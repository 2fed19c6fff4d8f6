let src = Logs.Src.create "rolis.shard" ~doc:"Sharded deployment events"

module Log = (val Logs.src_log src : Logs.LOG)

let ms = Sim.Engine.ms

(* ---- the replicated 2PC control surface ---- *)

let table_2pc = "__2pc"

let k_intent xid = Store.Keycodec.encode [ Store.Keycodec.S "i"; Store.Keycodec.I xid ]
let k_decision xid = Store.Keycodec.encode [ Store.Keycodec.S "d"; Store.Keycodec.I xid ]

(* Control payloads ride the ordinary client-request path, so every 2PC
   step inherits replication, exactly-once session dedup and failover
   recovery for free:

     "!p <xid> <sub>"          remote prepare: stage [sub] as the intent row
     "!c <xid> <parts> <sub>"  coordinator: run its own [sub] and record
                               the commit decision, in one transaction
     "!a <xid> <parts>"        coordinator decision: abort
     "!x <xid>"                apply the staged intent, consume it
     "!r <xid>"                cancel: discard the staged intent

   [parts] names the remote participants, the cohort that staged intents
   and must still apply or cancel. The coordinator never stages: its
   sub-transaction commits atomically with the decision row.

   Each writes ordinary rows in the [__2pc] table *and* stamps the
   transaction's wire record with a {!Store.Wire.decision} mark, so the
   journal itself carries the protocol history the cross-shard oracle
   audits ({!Check.cross_shard}). *)

let mark txn ~xid phase parts =
  Silo.Txn.set_decision txn
    { Store.Wire.d_xid = xid; d_phase = phase; d_parts = parts }

(* "a b c" -> ("a", "b c");  "a" -> ("a", "") *)
let split_word s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some sp ->
      (String.sub s 0 sp, String.sub s (sp + 1) (String.length s - sp - 1))

let split_control payload =
  (* "!p 123 rest..." -> (123, "rest...");  "!x 123" -> (123, "") *)
  let body = String.sub payload 3 (String.length payload - 3) in
  let xid, rest = split_word body in
  (int_of_string xid, rest)

let parse_parts s =
  if s = "" then []
  else String.split_on_char ',' s |> List.map int_of_string

let wrap_app ?(veto = fun ~payload:_ -> false) base =
  let base_op =
    match base.App.client_op with
    | Some op -> op
    | None -> invalid_arg "Shard.wrap_app: base app has no client_op"
  in
  let dispatch db ~payload txn =
    if String.length payload >= 3 && payload.[0] = '!' then begin
      let t2 = Silo.Db.table db table_2pc in
      let xid, rest = split_control payload in
      match payload.[1] with
      | 'p' ->
          (* A vetoed sub-transaction surfaces its abort at prepare time,
             before anything is staged here — the driver turns the no
             vote into a global abort. *)
          if veto ~payload:rest then Silo.Txn.abort ();
          Silo.Txn.put txn t2 (k_intent xid) rest;
          mark txn ~xid Store.Wire.Prepared []
      | 'c' ->
          (* The commit point. The veto is checked again here: the
             driver's early check is an optimisation, not the guard. *)
          let parts, sub = split_word rest in
          if veto ~payload:sub then Silo.Txn.abort ();
          base_op db ~payload:sub txn;
          Silo.Txn.put txn t2 (k_decision xid) "C";
          mark txn ~xid Store.Wire.Committed (parse_parts parts)
      | 'a' ->
          Silo.Txn.put txn t2 (k_decision xid) "A";
          mark txn ~xid Store.Wire.Aborted (parse_parts rest)
      | 'x' -> (
          (* The intent is read back from the *replicated* database, not
             from any coordinator-side memory: a participant that failed
             over between prepare and apply replays the intent row out of
             its journal and applies the identical sub-transaction. *)
          match Silo.Txn.get txn t2 (k_intent xid) with
          | None -> failwith (Printf.sprintf "2pc: apply %d without intent" xid)
          | Some sub ->
              base_op db ~payload:sub txn;
              Silo.Txn.delete txn t2 (k_intent xid);
              mark txn ~xid Store.Wire.Applied [])
      | 'r' ->
          (match Silo.Txn.get txn t2 (k_intent xid) with
          | Some _ -> Silo.Txn.delete txn t2 (k_intent xid)
          | None -> () (* this participant voted no: nothing staged *));
          mark txn ~xid Store.Wire.Canceled []
      | _ -> failwith ("2pc: bad control payload " ^ payload)
    end
    else base_op db ~payload txn
  in
  {
    base with
    App.setup =
      (fun db ->
        base.App.setup db;
        ignore (Silo.Db.create_table db table_2pc));
    client_op = Some dispatch;
  }

(* ---- deployment ---- *)

(* One logical transaction, as the partition-aware generator emits it. *)
type op =
  | Single of int * string  (** [(shard, payload)]: routes unchanged. *)
  | Multi of (int * string) list
      (** cross-shard: [(participant shard, sub-payload)] list; the first
          participant hosts the coordinator (its log carries the
          decision and its own sub). *)

type gen = unit -> op

type driver = {
  idx : int;
  sessions : Client.t array; (* one write session per shard, same cid *)
  mutable xid_ctr : int;
  mutable committed : int;
  mutable aborted : int;
  mutable cross_committed : int;
  mutable cross_aborted : int;
  mutable prepares : int;
  mutable idle : bool;
  mutable lat : Sim.Metrics.Hist.t;
  mutable cross_lat : Sim.Metrics.Hist.t;
}

type t = {
  eng : Sim.Engine.t;
  cfg : Config.t;
  router : Router.t;
  clusters : Cluster.t array;
  drivers : driver array;
  readers : Client.t array; (* read-only sessions, every shard's *)
  stopped : bool ref;
  veto : payload:string -> bool;
}

let engine t = t.eng
let router t = t.router
let clusters t = t.clusters
let cluster t s = t.clusters.(s)
let shards t = Array.length t.clusters

(* Globally unique transaction ids without coordination: driver-major. *)
let fresh_xid d =
  d.xid_ctr <- d.xid_ctr + 1;
  ((d.idx + 1) * 1_000_000) + d.xid_ctr

let req d s fmt =
  Printf.ksprintf (fun payload -> Client.request d.sessions.(s) payload) fmt

(* Client-driven 2PC, coordinator-on-shard. Every arrow is a replicated
   client request with session dedup, so the whole protocol is idempotent
   under retry and survives any participant's failover:

     1. "!p" on each remote participant (sequential; first no wins);
     2. all yes -> the folded "!c" on the coordinator shard runs the
        coordinator's own sub-transaction and records the decision in
        one entry — once acked, the transaction is atomically durable;
     3. "!x" on every remote applies its staged intent.

   A coordinator sub the [veto] rejects aborts before any remote is
   asked: only the "!a" round is paid. On a no vote, or if "!c" itself
   aborts, "!a" on the coordinator records the abort decision, then "!r"
   cancels the staged intents of the remotes that voted yes. *)
let run_2pc ~veto d parts =
  let xid = fresh_xid d in
  let coord, csub, remotes =
    match parts with
    | (coord, csub) :: remotes -> (coord, csub, remotes)
    | [] -> invalid_arg "Shard: a Multi needs at least one participant"
  in
  let rstr =
    String.concat "," (List.map (fun (s, _) -> string_of_int s) remotes)
  in
  let abort yes =
    ignore (req d coord "!a %d %s" xid rstr);
    List.iter (fun s -> ignore (req d s "!r %d" xid)) yes;
    false
  in
  let rec prepare yes = function
    | [] -> Ok (List.rev yes)
    | (s, sub) :: rest -> (
        match req d s "!p %d %s" xid sub with
        | `Ok ->
            d.prepares <- d.prepares + 1;
            prepare (s :: yes) rest
        | `Aborted | `Stopped -> Error (List.rev yes))
  in
  if veto ~payload:csub then abort []
  else
    match prepare [] remotes with
    | Error yes -> abort yes
    | Ok yes -> (
        match req d coord "!c %d %s %s" xid rstr csub with
        | `Ok ->
            List.iter
              (fun s ->
                match req d s "!x %d" xid with
                | `Ok -> ()
                | `Aborted | `Stopped ->
                    failwith
                      (Printf.sprintf
                         "2pc: committed xid %d lost its apply on shard %d" xid
                         s))
              yes;
            true
        | `Aborted -> abort yes
        | `Stopped ->
            failwith (Printf.sprintf "2pc: xid %d left in doubt" xid))

let run_driver t d gen () =
  while true do
    if !(t.stopped) then begin
      d.idle <- true;
      Sim.Engine.sleep (10 * ms)
    end
    else begin
      d.idle <- false;
      let t0 = Sim.Engine.time () in
      match gen () with
      | Single (s, payload) -> (
          match Client.request d.sessions.(s) payload with
          | `Ok ->
              d.committed <- d.committed + 1;
              Sim.Metrics.Hist.add d.lat (Sim.Engine.time () - t0)
          | `Aborted -> d.aborted <- d.aborted + 1
          | `Stopped -> ())
      | Multi parts ->
          if run_2pc ~veto:t.veto d parts then begin
            d.committed <- d.committed + 1;
            d.cross_committed <- d.cross_committed + 1;
            let l = Sim.Engine.time () - t0 in
            Sim.Metrics.Hist.add d.lat l;
            Sim.Metrics.Hist.add d.cross_lat l
          end
          else begin
            d.aborted <- d.aborted + 1;
            d.cross_aborted <- d.cross_aborted + 1
          end
    end
  done

let create ?on_durable ?(veto = fun ~payload:_ -> false) ?readers cfg router
    app ~gen =
  if cfg.Config.shards <> Router.shards router then
    invalid_arg "Shard.create: Config.shards disagrees with the router";
  if cfg.Config.shards < 1 then
    invalid_arg "Shard.create: shards must be positive";
  if cfg.Config.clients < 1 then
    invalid_arg "Shard.create: a sharded deployment needs drivers";
  let nreaders = match readers with Some (n, _) -> n | None -> 0 in
  let eng = Sim.Engine.create ~seed:cfg.Config.seed () in
  (* Each shard is a complete, unmodified Rolis cluster — replicas, its
     own network, its own leader and per-worker streams — co-hosted on
     the one virtual clock. The per-shard config is the deployment config
     with the sharding knobs stripped (a cluster never knows it is a
     shard) and room for the read sessions above the drivers. *)
  let shard_cfg =
    {
      cfg with
      Config.shards = 1;
      cross_pct = 0.0;
      clients = cfg.Config.clients + nreaders;
    }
  in
  let clusters =
    Array.init cfg.Config.shards (fun s ->
        let on_durable = Option.map (fun f -> f ~shard:s) on_durable in
        Cluster.create ~eng ?on_durable shard_cfg
          (wrap_app ~veto (app ~shard:s)))
  in
  let stopped = ref false in
  (* Drivers replace the per-cluster client fleet: driver [j] holds one
     write session per shard (same cid everywhere), routes single-shard
     payloads directly and runs the 2PC protocol for cross-shard ones.
     Sessions get a never-true stop flag — a driver finishes the protocol
     of its in-flight logical transaction and checks the deployment's
     stop signal only between transactions (a decided 2PC must reach its
     participants; see [quiesce]). *)
  let drivers =
    Array.init cfg.Config.clients (fun j ->
        let sessions =
          Array.init cfg.Config.shards (fun s ->
              Client.create
                (Cluster.network clusters.(s))
                ~cfg:shard_cfg ~cid:j ~stopped:(ref false)
                ~stats:(Cluster.client_stats clusters.(s))
                ())
        in
        {
          idx = j;
          sessions;
          xid_ctr = 0;
          committed = 0;
          aborted = 0;
          cross_committed = 0;
          cross_aborted = 0;
          prepares = 0;
          idle = false;
          lat = Sim.Metrics.Hist.create ();
          cross_lat = Sim.Metrics.Hist.create ();
        })
  in
  (* Read-only sessions: a single-shard snapshot read needs no
     coordination, so each is an ordinary closed-loop session on one
     shard's network, stopped with the drivers. *)
  let readers =
    match readers with
    | None -> [||]
    | Some (n, read_gen) ->
        Array.init (cfg.Config.shards * n) (fun i ->
            let s = i / n in
            let rrng = Sim.Rng.split (Sim.Engine.rng eng) in
            Client.spawn
              (Cluster.network clusters.(s))
              ~cfg:shard_cfg ~cid:(cfg.Config.clients + (i mod n)) ~stopped
              ~ro:true
              ~stats:(Cluster.client_read_stats clusters.(s))
              ~gen:(fun () -> read_gen ~shard:s rrng)
              ())
  in
  let t = { eng; cfg; router; clusters; drivers; readers; stopped; veto } in
  Array.iter
    (fun d ->
      let drng = Sim.Rng.split (Sim.Engine.rng eng) in
      ignore
        (Sim.Engine.spawn eng
           ~name:(Printf.sprintf "shard-driver-%d" d.idx)
           (run_driver t d (gen ~rng:drng ~driver:d.idx))))
    drivers;
  t

let stop t = t.stopped := true

(* Host-side (advances the engine itself, like {!Cluster.run}): stop the
   drivers, then step virtual time until each has finished its in-flight
   logical transaction — a decided 2PC must reach every participant
   before the deployment is a quiescent point. *)
let quiesce ?(timeout = 10 * Sim.Engine.s) t =
  t.stopped := true;
  let deadline = Sim.Engine.now t.eng + timeout in
  while
    (not (Array.for_all (fun d -> d.idle) t.drivers))
    && Sim.Engine.now t.eng < deadline
  do
    Sim.Engine.run ~until:(Sim.Engine.now t.eng + (20 * ms)) t.eng
  done;
  Array.for_all (fun d -> d.idle) t.drivers

let reset_window t =
  Array.iter Cluster.reset_window t.clusters;
  Array.iter
    (fun d ->
      d.committed <- 0;
      d.aborted <- 0;
      d.cross_committed <- 0;
      d.cross_aborted <- 0;
      d.prepares <- 0;
      d.lat <- Sim.Metrics.Hist.create ();
      d.cross_lat <- Sim.Metrics.Hist.create ())
    t.drivers

let run t ?(warmup = 0) ~duration () =
  if warmup > 0 then begin
    Sim.Engine.run ~until:(Sim.Engine.now t.eng + warmup) t.eng;
    reset_window t
  end;
  Array.iter Cluster.open_window t.clusters;
  Sim.Engine.run ~until:(Sim.Engine.now t.eng + duration) t.eng;
  Array.iter Cluster.close_window t.clusters

(* ---- aggregate accounting ---- *)

let sum_drivers t f = Array.fold_left (fun acc d -> acc + f d) 0 t.drivers
let committed t = sum_drivers t (fun d -> d.committed)
let aborted t = sum_drivers t (fun d -> d.aborted)
let cross_committed t = sum_drivers t (fun d -> d.cross_committed)
let cross_aborted t = sum_drivers t (fun d -> d.cross_aborted)
let prepares t = sum_drivers t (fun d -> d.prepares)

let released t =
  Array.fold_left (fun acc c -> acc + Cluster.released c) 0 t.clusters

let throughput t =
  (* Logical transactions per second: a cross-shard transaction counts
     once, however many replicated sub-entries it cost — the honest axis
     for the scaling and penalty figures. *)
  let start, stop = Cluster.window t.clusters.(0) in
  if stop <= start then 0.0
  else
    float_of_int (committed t)
    *. float_of_int Sim.Engine.s
    /. float_of_int (stop - start)

let latency t =
  Sim.Metrics.Hist.merge (Array.to_list (Array.map (fun d -> d.lat) t.drivers))

let cross_latency t =
  Sim.Metrics.Hist.merge
    (Array.to_list (Array.map (fun d -> d.cross_lat) t.drivers))

let acked_seqs t s =
  Array.to_list t.drivers
  |> List.concat_map (fun d -> Client.acked_seqs d.sessions.(s))

let sessions t =
  (Array.to_list t.drivers |> List.concat_map (fun d -> Array.to_list d.sessions))
  @ Array.to_list t.readers

let client_retries t =
  Array.fold_left
    (fun acc d ->
      Array.fold_left (fun acc c -> acc + Client.retries c) acc d.sessions)
    0 t.drivers
