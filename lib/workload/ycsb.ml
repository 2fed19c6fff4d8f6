type params = {
  keys : int;
  value_size : int;
  ops_per_txn : int;
  read_ratio : float;
  theta : float option;
}

let default =
  { keys = 1_000_000; value_size = 24; ops_per_txn = 4; read_ratio = 0.5; theta = None }

let ycsb_t = { default with ops_per_txn = 1 }

(* Standard YCSB mixes, transactionalised the same way as YCSB++ (each
   transaction groups [ops_per_txn] operations). Workloads A/B use the
   YCSB-default Zipfian skew; C is read-only. *)
let workload_b = { default with read_ratio = 0.95; theta = Some 0.99 }
let workload_c = { default with read_ratio = 1.0; theta = None }
let table_name = "usertable"
let key i = Store.Keycodec.encode [ Store.Keycodec.I i ]

let setup p db =
  let t = Silo.Db.create_table db table_name in
  let value = Row.pad p.value_size in
  for i = 0 to p.keys - 1 do
    Store.Table.insert t (key i) (Store.Record.make value)
  done

let pick_key p chooser rng =
  match chooser with Some z -> Zipf.next z rng | None -> Sim.Rng.int rng p.keys

let chooser_of p = Option.map (fun theta -> Zipf.create ~n:p.keys ~theta) p.theta

(* ---- the transaction ----

   Payloads carry their keys explicitly (no seed derivation needed — the
   key list fixes the transaction), so retries and OCC re-execution
   replay identically:

     "t <ro> <k1,k2,...>"  a [ops_per_txn]-style transaction over the
                           listed keys: reads when ro=1, RMWs when ro=0;
     "m <k>"               a single-key RMW — the cross-range 2PC
                           sub-transaction (byte-flips commute with
                           nothing, but atomic durability is what the
                           cross-shard oracle asserts; each half touches
                           a different key, so applies never conflict). *)

(* Read-modify-write: flip a byte so the value really changes. *)
let rmw p table k txn =
  let v' =
    match Silo.Txn.get txn table k with
    | Some s when String.length s > 0 ->
        let b = Bytes.of_string s in
        Bytes.set b 0 (if Bytes.get b 0 = 'x' then 'y' else 'x');
        Bytes.to_string b
    | Some _ | None -> Row.pad p.value_size
  in
  Silo.Txn.put txn table k v'

let op p db ~payload txn =
  let table = Silo.Db.table db table_name in
  match String.split_on_char ' ' payload with
  | [ "t"; ro; keys ] ->
      let ro = ro = "1" in
      List.iter
        (fun k ->
          let k = key (int_of_string k) in
          if ro then ignore (Silo.Txn.get txn table k) else rmw p table k txn)
        (String.split_on_char ',' keys)
  | [ "m"; k ] -> rmw p table (key (int_of_string k)) txn
  | _ -> failwith ("ycsb: bad client payload " ^ payload)

(* A "t" payload over [ops_per_txn] keys, drawn in order by [draw]. *)
let txn_payload p ~ro draw =
  let ks = ref [] in
  for _ = 1 to p.ops_per_txn do
    ks := string_of_int (draw ()) :: !ks
  done;
  Printf.sprintf "t %d %s" (if ro then 1 else 0) (String.concat "," (List.rev !ks))

(* The embedded generator: flip read-only vs RMW, then draw the keys with
   the workload's skew. *)
let payloads p ~rng ~worker:_ =
  let chooser = chooser_of p in
  fun () ->
    let ro = Sim.Rng.float rng 1.0 < p.read_ratio in
    txn_payload p ~ro (fun () -> pick_key p chooser rng)

(* The keys of a read payload, parsed straight into an array. *)
let read_keys payload =
  let len = String.length payload in
  let n = ref 1 in
  for i = 0 to len - 1 do
    if payload.[i] = ' ' then incr n
  done;
  let keys = Array.make !n "" and k = ref 0 and start = ref 0 in
  for i = 0 to len do
    if i = len || payload.[i] = ' ' then begin
      keys.(!k) <- key (int_of_string (String.sub payload !start (i - !start)));
      incr k;
      start := i + 1
    end
  done;
  keys

let read_op db ~payload snap =
  let table = Silo.Db.table db table_name in
  Array.fold_left
    (fun last v -> match v with Some v -> v | None -> last)
    ""
    (Silo.Db.snap_get_many snap table (read_keys payload))

let client_app p =
  Rolis.App.make ~name:"ycsb++" ~setup:(setup p) ~payloads:(payloads p) ~op:(op p)
    ~read_op ()

let app p = { (client_app p) with Rolis.App.client_op = None }

(* Partition-aware generator: single-shard transactions keep all their
   keys inside one shard's range (uniform within the shard — the Zipfian
   chooser spans the global space and would break partitioning); with
   probability [cross_pct] the transaction becomes a two-shard RMW pair
   committed through 2PC. *)
let shard_gen p router ~cross_pct ~rng () =
  let nsh = Rolis.Router.shards router in
  let key_in s =
    let lo, hi = Rolis.Router.ycsb_key_range router ~keys:p.keys s in
    lo + Sim.Rng.int rng (hi - lo + 1)
  in
  if nsh > 1 && Sim.Rng.float rng 1.0 < cross_pct then begin
    let sa = Sim.Rng.int rng nsh in
    let sb = (sa + 1 + Sim.Rng.int rng (nsh - 1)) mod nsh in
    Rolis.Shard.Multi
      [
        (sa, Printf.sprintf "m %d" (key_in sa));
        (sb, Printf.sprintf "m %d" (key_in sb));
      ]
  end
  else begin
    let s = Sim.Rng.int rng nsh in
    let ro = Sim.Rng.float rng 1.0 < p.read_ratio in
    Rolis.Shard.Single (s, txn_payload p ~ro (fun () -> key_in s))
  end

(* Read-session payload generator: [ops_per_txn] key indices drawn with
   the workload's skew, space-separated — the read-only counterpart of
   [payloads], interpreted by [read_op] against a pinned snapshot. *)
let read_payload_gen p rng =
  let chooser = chooser_of p in
  fun () ->
    String.concat " "
      (List.init p.ops_per_txn (fun _ -> string_of_int (pick_key p chooser rng)))
