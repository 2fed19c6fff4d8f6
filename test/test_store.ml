(* Tests for the storage substrate: key codec, B+tree, records, wire. *)

module SMap = Map.Make (String)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Keycodec ---------- *)

let component =
  let open QCheck.Gen in
  let int_comp = map (fun i -> Store.Keycodec.I i) int in
  let small_int_comp = map (fun i -> Store.Keycodec.I i) (int_range (-1000) 1000) in
  let str_comp = map (fun s -> Store.Keycodec.S s) (string_size (0 -- 8)) in
  oneof [ int_comp; small_int_comp; str_comp ]

let components_gen = QCheck.Gen.(list_size (1 -- 4) component)

let components_arb =
  let print cs =
    String.concat ","
      (List.map
         (function
           | Store.Keycodec.I i -> Printf.sprintf "I %d" i
           | Store.Keycodec.S s -> Printf.sprintf "S %S" s)
         cs)
  in
  QCheck.make ~print components_gen

let codec_roundtrip =
  QCheck.Test.make ~name:"keycodec roundtrip" ~count:500 components_arb (fun cs ->
      Store.Keycodec.decode (Store.Keycodec.encode cs) = cs)

let codec_order_preserving =
  QCheck.Test.make ~name:"keycodec preserves order" ~count:1000
    (QCheck.pair components_arb components_arb)
    (fun (a, b) ->
      let ca = Store.Keycodec.compare_components a b in
      let cb = compare (Store.Keycodec.encode a) (Store.Keycodec.encode b) in
      (ca < 0) = (cb < 0) && (ca = 0) = (cb = 0))

(* A [Buffer]-based encoder, kept as the byte-level reference the
   library's sized single-pass encoder must reproduce. *)
let ref_encode components =
  let buf = Buffer.create 32 in
  List.iter
    (function
      | Store.Keycodec.I x ->
          Buffer.add_char buf '\x01';
          let x = x lxor min_int in
          for i = 7 downto 0 do
            Buffer.add_char buf (Char.chr ((x lsr (8 * i)) land 0xff))
          done
      | Store.Keycodec.S s ->
          Buffer.add_char buf '\x02';
          String.iter
            (fun c ->
              if c = '\x00' then Buffer.add_string buf "\x00\xff"
              else Buffer.add_char buf c)
            s;
          Buffer.add_char buf '\x00')
    components;
  Buffer.contents buf

let codec_reference_qcheck =
  let edge =
    QCheck.Gen.(
      oneof
        [
          component;
          map (fun i -> Store.Keycodec.I i) (oneofl [ min_int; max_int; -1; 0; 1 ]);
          map
            (fun s -> Store.Keycodec.S s)
            (string_size ~gen:(oneofl [ '\x00'; '\xff'; 'a' ]) (0 -- 6));
        ])
  in
  QCheck.Test.make ~name:"keycodec encode matches the Buffer reference" ~count:1000
    (QCheck.make ~print:(fun cs -> String.escaped (ref_encode cs))
       QCheck.Gen.(list_size (0 -- 5) edge))
    (fun cs -> Store.Keycodec.encode cs = ref_encode cs)

let codec_decode_fuzz =
  QCheck.Test.make ~name:"decode of arbitrary bytes never crashes" ~count:500
    QCheck.(string_of_size Gen.(0 -- 60))
    (fun s ->
      match Store.Keycodec.decode s with
      | _ -> true
      | exception Invalid_argument _ -> true)

(* TPC-C-shaped composite keys. The shard router splits each table's
   keyspace on encoded warehouse prefixes, which is only sound if the
   encoding preserves the tuple's lexicographic order — bytes of
   different warehouses must never interleave. Tuples mirror the real
   TPC-C key shapes: (w,d,o,ol) order-lines and (w,d,last,c) the
   by-last-name customer index (string component in the middle). *)
let tpcc_tuple_gen =
  let open QCheck.Gen in
  let last_name =
    oneofl [ "BARBARBAR"; "OUGHT"; "ABLE"; "PRI"; "ESE"; "ANTICALLYATION" ]
  in
  oneof
    [
      map
        (fun (w, d, o, ol) ->
          Store.Keycodec.[ I w; I d; I o; I ol ])
        (quad (1 -- 64) (1 -- 10) (0 -- 100_000) (1 -- 15));
      map
        (fun (w, d, last, c) ->
          Store.Keycodec.[ I w; I d; S last; I c ])
        (quad (1 -- 64) (1 -- 10) last_name (1 -- 3000));
    ]

let tpcc_tuple_arb =
  let print cs =
    String.concat ";"
      (List.map
         (function
           | Store.Keycodec.I i -> string_of_int i
           | Store.Keycodec.S s -> Printf.sprintf "%S" s)
         cs)
  in
  QCheck.make ~print tpcc_tuple_gen

let codec_tpcc_order =
  QCheck.Test.make ~name:"keycodec preserves order on TPC-C-shaped tuples"
    ~count:1000
    (QCheck.pair tpcc_tuple_arb tpcc_tuple_arb)
    (fun (a, b) ->
      let ca = Store.Keycodec.compare_components a b in
      let cb = compare (Store.Keycodec.encode a) (Store.Keycodec.encode b) in
      (ca < 0) = (cb < 0) && (ca = 0) = (cb = 0))

(* Split-key soundness: a router split key [enc [I w]] bounds every key
   of warehouses < w strictly below it and every key of warehouses >= w
   at or above it, whatever the key's tail looks like. *)
let codec_split_key_soundness =
  QCheck.Test.make ~name:"warehouse split keys bound all composite tails"
    ~count:1000
    (QCheck.pair (QCheck.make QCheck.Gen.(1 -- 64)) tpcc_tuple_arb)
    (fun (w, tail_tuple) ->
      let tuple =
        match tail_tuple with
        | _ :: rest -> Store.Keycodec.I w :: rest
        | [] -> [ Store.Keycodec.I w ]
      in
      let split_lo = Store.Keycodec.encode [ Store.Keycodec.I w ] in
      let split_hi = Store.Keycodec.encode [ Store.Keycodec.I (w + 1) ] in
      let k = Store.Keycodec.encode tuple in
      compare split_lo k <= 0 && compare k split_hi < 0)

let test_next_prefix () =
  check_bool "simple bump" true (Store.Keycodec.next_prefix "ab" = Some "ac");
  check_bool "carries over 0xff" true
    (Store.Keycodec.next_prefix "a\xff" = Some "b");
  check_bool "all 0xff has no successor" true
    (Store.Keycodec.next_prefix "\xff\xff" = None)

let test_prefix_scan_semantics () =
  (* Every key beginning with prefix p satisfies p <= k < next_prefix p. *)
  let p = Store.Keycodec.encode [ Store.Keycodec.I 3 ] in
  let inside = Store.Keycodec.encode [ Store.Keycodec.I 3; Store.Keycodec.I 99 ] in
  let below = Store.Keycodec.encode [ Store.Keycodec.I 2; Store.Keycodec.I 99 ] in
  let above = Store.Keycodec.encode [ Store.Keycodec.I 4 ] in
  match Store.Keycodec.next_prefix p with
  | None -> Alcotest.fail "expected a successor"
  | Some q ->
      check_bool "inside >= p" true (compare inside p >= 0);
      check_bool "inside < q" true (compare inside q < 0);
      check_bool "below < p" true (compare below p < 0);
      check_bool "above >= q" true (compare above q >= 0)

(* ---------- Btree ---------- *)

(* Bindings in [[lo, hi)], ascending, through [iter_from]. *)
let range t ~lo ~hi =
  let acc = ref [] in
  Store.Btree.iter_from t lo (fun k v ->
      k < hi
      && begin
           acc := (k, v) :: !acc;
           true
         end);
  List.rev !acc

(* The first binding at or after [k], through [iter_from]. *)
let first_geq t k =
  let r = ref None in
  Store.Btree.iter_from t k (fun k v ->
      r := Some (k, v);
      false);
  !r

let test_btree_basic () =
  let t = Store.Btree.create () in
  check_int "empty" 0 (Store.Btree.length t);
  check_bool "insert new" true (Store.Btree.insert t "b" 2 = None);
  check_bool "insert replace" true (Store.Btree.insert t "b" 3 = Some 2);
  check_int "size" 1 (Store.Btree.length t);
  check_bool "find" true (Store.Btree.find t "b" = Some 3);
  check_bool "remove" true (Store.Btree.remove t "b" = Some 3);
  check_bool "remove absent" true (Store.Btree.remove t "b" = None);
  check_int "size after" 0 (Store.Btree.length t)

let test_btree_many_sorted_inserts () =
  let t = Store.Btree.create () in
  for i = 0 to 9999 do
    ignore (Store.Btree.insert t (Printf.sprintf "%08d" i) i)
  done;
  Store.Btree.check_invariants t;
  check_int "size" 10000 (Store.Btree.length t);
  for i = 0 to 9999 do
    if Store.Btree.find t (Printf.sprintf "%08d" i) <> Some i then
      Alcotest.failf "lost key %d" i
  done

let test_btree_reverse_inserts_then_deletes () =
  let t = Store.Btree.create () in
  for i = 9999 downto 0 do
    ignore (Store.Btree.insert t (Printf.sprintf "%08d" i) i)
  done;
  Store.Btree.check_invariants t;
  (* Delete every other key, then validate again. *)
  for i = 0 to 9999 do
    if i mod 2 = 0 then
      if Store.Btree.remove t (Printf.sprintf "%08d" i) <> Some i then
        Alcotest.failf "failed to delete %d" i
  done;
  Store.Btree.check_invariants t;
  check_int "half remain" 5000 (Store.Btree.length t);
  for i = 0 to 9999 do
    let expect = if i mod 2 = 0 then None else Some i in
    if Store.Btree.find t (Printf.sprintf "%08d" i) <> expect then
      Alcotest.failf "wrong lookup for %d" i
  done

let test_btree_drain () =
  let t = Store.Btree.create () in
  for i = 0 to 999 do
    ignore (Store.Btree.insert t (Printf.sprintf "%04d" i) i)
  done;
  for i = 0 to 999 do
    ignore (Store.Btree.remove t (Printf.sprintf "%04d" i));
    if i mod 97 = 0 then Store.Btree.check_invariants t
  done;
  Store.Btree.check_invariants t;
  check_int "empty after drain" 0 (Store.Btree.length t);
  check_bool "min of empty" true (first_geq t "" = None)

let test_btree_range () =
  let t = Store.Btree.create () in
  for i = 0 to 99 do
    ignore (Store.Btree.insert t (Printf.sprintf "%04d" i) i)
  done;
  let r =
    List.rev_map snd (range t ~lo:"0010" ~hi:"0015")
  in
  Alcotest.(check (list int)) "range [10,15)" [ 14; 13; 12; 11; 10 ] r;
  check_bool "first geq" true (first_geq t "0010x" = Some ("0011", 11));
  check_bool "min" true (first_geq t "" = Some ("0000", 0));
  check_bool "max" true (Store.Btree.find_last_lt t "1" = Some ("0099", 99))

(* Model-based qcheck: a random op sequence must behave like Map. *)
type op = Insert of string * int | Remove of string | Find of string

let op_gen =
  let open QCheck.Gen in
  let key = map (fun i -> Printf.sprintf "%03d" i) (int_range 0 200) in
  frequency
    [
      (5, map2 (fun k v -> Insert (k, v)) key small_nat);
      (3, map (fun k -> Remove k) key);
      (2, map (fun k -> Find k) key);
    ]

let ops_arb =
  let print ops =
    String.concat ";"
      (List.map
         (function
           | Insert (k, v) -> Printf.sprintf "I(%s,%d)" k v
           | Remove k -> Printf.sprintf "R(%s)" k
           | Find k -> Printf.sprintf "F(%s)" k)
         ops)
  in
  QCheck.make ~print QCheck.Gen.(list_size (0 -- 400) op_gen)

let btree_model_qcheck =
  QCheck.Test.make ~name:"btree behaves like Map under random ops" ~count:200 ops_arb
    (fun ops ->
      let t = Store.Btree.create () in
      let model = ref SMap.empty in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Insert (k, v) ->
              let prev = Store.Btree.insert t k v in
              let mprev = SMap.find_opt k !model in
              model := SMap.add k v !model;
              if prev <> mprev then ok := false
          | Remove k ->
              let prev = Store.Btree.remove t k in
              let mprev = SMap.find_opt k !model in
              model := SMap.remove k !model;
              if prev <> mprev then ok := false
          | Find k -> if Store.Btree.find t k <> SMap.find_opt k !model then ok := false)
        ops;
      Store.Btree.check_invariants t;
      !ok
      && Store.Btree.length t = SMap.cardinal !model
      && Store.Btree.to_list t = SMap.bindings !model)

(* Probe batches for [find_many]: keys over the ops' range and past it
   (absent), with repeats. *)
let probes_arb =
  QCheck.(
    make
      ~print:(fun l -> String.concat "," (List.map string_of_int l))
      Gen.(list_size (0 -- 40) (int_range 0 230)))

let probe_keys probes = Array.of_list (List.map (Printf.sprintf "%03d") probes)

(* [find_many] fills the first [length keys] slots with [Array.map find]
   and leaves the rest alone. *)
let find_many_agrees t keys =
  let n = Array.length keys in
  let out = Array.make (n + 1) (Some (-1)) in
  Store.Btree.find_many t keys out;
  Array.sub out 0 n = Array.map (Store.Btree.find t) keys && out.(n) = Some (-1)

let apply_op t = function
  | Insert (k, v) -> ignore (Store.Btree.insert t k v)
  | Remove k -> ignore (Store.Btree.remove t k)
  | Find _ -> ()

(* Checked after each half of the ops, so the second batch reuses the
   first's scratch on a tree that has split, merged or shrunk since. *)
let btree_find_many_qcheck =
  QCheck.Test.make ~name:"find_many = Array.map find" ~count:300
    (QCheck.triple ops_arb ops_arb probes_arb)
    (fun (ops1, ops2, probes) ->
      let t = Store.Btree.create () in
      let keys = probe_keys probes in
      List.iter (apply_op t) ops1;
      let first = find_many_agrees t keys in
      List.iter (apply_op t) ops2;
      first
      && find_many_agrees t keys
      && find_many_agrees t (probe_keys (List.rev probes)))

let test_btree_find_many_edges () =
  let t = Store.Btree.create () in
  let keys = probe_keys [ 1; 2; 2; 7 ] in
  check_bool "empty tree" true (find_many_agrees t keys);
  check_bool "empty batch" true (find_many_agrees t [||]);
  List.iter
    (fun i -> ignore (Store.Btree.insert t (Printf.sprintf "%03d" i) i))
    [ 2; 5; 7 ];
  check_bool "root-only leaf" true (find_many_agrees t keys);
  for i = 0 to 19_999 do
    ignore (Store.Btree.insert t (Printf.sprintf "%05d" i) i)
  done;
  let rng = Random.State.make [| 7 |] in
  let batch () =
    Array.init 60 (fun _ -> Printf.sprintf "%05d" (Random.State.int rng 21_000))
  in
  check_bool "deep tree" true (find_many_agrees t (batch ()));
  for i = 0 to 19_999 do
    if i mod 4 <> 0 then ignore (Store.Btree.remove t (Printf.sprintf "%05d" i))
  done;
  Store.Btree.check_invariants t;
  check_bool "after merges" true (find_many_agrees t (batch ()));
  Alcotest.check_raises "short output"
    (Invalid_argument "Btree.find_many: output shorter than keys") (fun () ->
      Store.Btree.find_many t keys (Array.make 3 None))

let btree_find_last_lt_qcheck =
  QCheck.Test.make ~name:"find_last_lt equals Map.find_last_opt" ~count:150
    (QCheck.pair ops_arb QCheck.small_nat)
    (fun (ops, probe) ->
      let k = Printf.sprintf "%03d" (probe mod 1000) in
      let t = Store.Btree.create () in
      let model = ref SMap.empty in
      List.iter
        (function
          | Insert (key, v) ->
              ignore (Store.Btree.insert t key v);
              model := SMap.add key v !model
          | Remove key ->
              ignore (Store.Btree.remove t key);
              model := SMap.remove key !model
          | Find _ -> ())
        ops;
      Store.Btree.find_last_lt t k = SMap.find_last_opt (fun key -> key < k) !model)

let btree_range_qcheck =
  QCheck.Test.make ~name:"btree range equals Map filtered range" ~count:100
    (QCheck.pair ops_arb (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun (ops, (a, b)) ->
      let lo = Printf.sprintf "%03d" (min a b mod 1000)
      and hi = Printf.sprintf "%03d" (max a b mod 1000) in
      let t = Store.Btree.create () in
      let model = ref SMap.empty in
      List.iter
        (function
          | Insert (k, v) ->
              ignore (Store.Btree.insert t k v);
              model := SMap.add k v !model
          | Remove k ->
              ignore (Store.Btree.remove t k);
              model := SMap.remove k !model
          | Find _ -> ())
        ops;
      let got = range t ~lo ~hi in
      let want =
        SMap.bindings !model |> List.filter (fun (k, _) -> k >= lo && k < hi)
      in
      got = want)

(* ---------- Btree ordered walks + sorted bulk apply ---------- *)

let test_btree_insert_if_absent () =
  let t = Store.Btree.create () in
  check_bool "absent inserts" true (Store.Btree.insert_if_absent t "k" 1);
  check_bool "present refuses" false (Store.Btree.insert_if_absent t "k" 2);
  check_bool "binding untouched by refusal" true (Store.Btree.find t "k" = Some 1);
  check_int "size counted once" 1 (Store.Btree.length t);
  (* Refusal must leave no structural damage even deep in a grown tree. *)
  for i = 0 to 999 do
    ignore (Store.Btree.insert_if_absent t (Printf.sprintf "%04d" i) i)
  done;
  for i = 0 to 999 do
    if Store.Btree.insert_if_absent t (Printf.sprintf "%04d" i) (-1) then
      Alcotest.failf "duplicate %d accepted" i
  done;
  Store.Btree.check_invariants t;
  check_int "size stable" 1001 (Store.Btree.length t)

(* Every binding in ascending order, walked leaf to leaf by [iter_from]. *)
let walk t =
  let walked = ref [] in
  Store.Btree.iter_from t "" (fun k v ->
      walked := (k, v) :: !walked;
      true);
  List.rev !walked

let test_btree_cursor_walk () =
  let t = Store.Btree.create () in
  for i = 0 to 499 do
    ignore (Store.Btree.insert t (Printf.sprintf "%04d" (2 * i)) i)
  done;
  (* A walk from an absent key starts at the next present one. *)
  check_bool "first geq" true (first_geq t "0003" = Some ("0004", 2));
  check_bool "walk = to_list" true (walk t = Store.Btree.to_list t);
  check_bool "range = to_list" true (range t ~lo:"" ~hi:"9999" = Store.Btree.to_list t);
  check_bool "past the end" true (first_geq t "9999" = None)

(* The sorted sweeps address their run by index; these adapt a
   (key, payload) list to that form. *)
let on_run kvs g =
  let a = Array.of_list kvs in
  g ~key:(fun i -> fst a.(i)) ~lo:0 ~hi:(Array.length a) (fun i -> snd a.(i))

let apply_run t kvs ~f =
  on_run kvs (fun ~key ~lo ~hi payload ->
      Store.Btree.apply_sorted t ~key ~lo ~hi ~f:(fun i e -> f (key i) (payload i) e))

let count_run t kvs =
  on_run kvs (fun ~key ~lo ~hi _ -> Store.Btree.count_sorted t ~key ~lo ~hi)

(* Reference semantics for apply_sorted: a sequential find/insert loop. *)
let apply_seq t kvs ~f =
  List.iter
    (fun (k, x) ->
      match f k x (Store.Btree.find t k) with
      | Some v -> ignore (Store.Btree.insert t k v)
      | None -> ())
    kvs

let batch_gen =
  let open QCheck.Gen in
  let key = map (fun i -> Printf.sprintf "%03d" i) (int_range 0 300) in
  pair
    (list_size (0 -- 300) (pair key small_nat)) (* seed inserts *)
    (list_size (0 -- 200) (pair key small_nat)) (* bulk batch *)

let batch_arb =
  let print (seed, batch) =
    let p l = String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "(%s,%d)" k v) l) in
    Printf.sprintf "seed=[%s] batch=[%s]" (p seed) (p batch)
  in
  QCheck.make ~print batch_gen

(* Dedup (last wins, like the entry merge) then sort: apply_sorted
   requires a strictly ascending run. *)
let sorted_run batch =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) batch;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let btree_apply_sorted_qcheck =
  QCheck.Test.make
    ~name:"apply_sorted = sequential find/insert loop (with splits)" ~count:300
    batch_arb
    (fun (seed, batch) ->
      let run = sorted_run batch in
      (* Install everywhere; on existing keys sum so the callback's
         [existing] argument is exercised, not just overwritten. *)
      let f _k x existing =
        match existing with Some v -> Some (v + x) | None -> Some x
      in
      let t = Store.Btree.create () and r = Store.Btree.create () in
      List.iter
        (fun (k, v) ->
          ignore (Store.Btree.insert t k v);
          ignore (Store.Btree.insert r k v))
        seed;
      let counts = apply_run t run ~f in
      apply_seq r run ~f;
      Store.Btree.check_invariants t;
      Store.Btree.to_list t = Store.Btree.to_list r
      && Store.Btree.length t = Store.Btree.length r
      && counts.Store.Btree.descents + counts.Store.Btree.steps
         >= List.length run)

let btree_apply_sorted_decline_qcheck =
  QCheck.Test.make ~name:"apply_sorted None leaves the tree untouched"
    ~count:200 batch_arb
    (fun (seed, batch) ->
      let run = sorted_run batch in
      (* Decline every odd payload: those keys must keep their old
         binding (or stay absent). *)
      let f _k x existing =
        if x mod 2 = 1 then None
        else match existing with Some v -> Some (v + x) | None -> Some x
      in
      let t = Store.Btree.create () and r = Store.Btree.create () in
      List.iter
        (fun (k, v) ->
          ignore (Store.Btree.insert t k v);
          ignore (Store.Btree.insert r k v))
        seed;
      ignore (apply_run t run ~f);
      apply_seq r run ~f;
      Store.Btree.check_invariants t;
      Store.Btree.to_list t = Store.Btree.to_list r)

let btree_apply_sorted_cursor_qcheck =
  QCheck.Test.make
    ~name:"cursor iteration agrees with to_list after random bulk applies"
    ~count:150 batch_arb
    (fun (seed, batch) ->
      let t = Store.Btree.create () in
      List.iter (fun (k, v) -> ignore (Store.Btree.insert t k v)) seed;
      ignore
        (apply_run t (sorted_run batch) ~f:(fun _k x _ -> Some x));
      walk t = Store.Btree.to_list t)

(* The replay decision pattern count_sorted models: present keys mutate
   in place (no structural change), absent keys always install. *)
let replay_f _k x existing =
  match existing with Some _ -> None | None -> Some x

let btree_count_sorted_qcheck =
  QCheck.Test.make
    ~name:"count_sorted is read-only and predicts update-only runs exactly"
    ~count:200 batch_arb
    (fun (seed, batch) ->
      let t = Store.Btree.create () in
      List.iter (fun (k, v) -> ignore (Store.Btree.insert t k v)) seed;
      let run = sorted_run batch in
      let before = Store.Btree.to_list t in
      let predicted = count_run t run in
      let read_only = Store.Btree.to_list t = before in
      (* Updates only (no structural change): the prediction must equal
         the live sweep's charges, key for key. *)
      let updates =
        List.filter (fun (k, _) -> Store.Btree.find t k <> None) run
      in
      let predicted_upd = count_run t updates in
      let live_upd = apply_run t updates ~f:replay_f in
      read_only
      && predicted_upd = live_upd
      && predicted.Store.Btree.descents + predicted.Store.Btree.steps
         >= List.length run)

let btree_count_sorted_splits_qcheck =
  QCheck.Test.make
    ~name:"count_sorted models split charges exactly on ascending appends"
    ~count:100
    QCheck.(int_range 1 400)
    (fun n ->
      (* A fresh tree plus a strictly ascending insert run keeps every
         key in the rightmost leaf, so the virtual-occupancy model must
         reproduce the live sweep's split descents exactly. *)
      let run = List.init n (fun i -> (Printf.sprintf "%04d" i, i)) in
      let t = Store.Btree.create () in
      let predicted = count_run t run in
      let live = apply_run t run ~f:replay_f in
      Store.Btree.check_invariants t;
      predicted = live)

let test_btree_apply_sorted_validation () =
  let t = Store.Btree.create () in
  Alcotest.check_raises "keys must be strictly ascending"
    (Invalid_argument "Btree.apply_sorted: keys must be strictly ascending")
    (fun () ->
      ignore
        (apply_run t
           [ ("b", 1); ("a", 2) ]
           ~f:(fun _ x _ -> Some x)));
  Alcotest.check_raises "duplicates rejected too"
    (Invalid_argument "Btree.apply_sorted: keys must be strictly ascending")
    (fun () ->
      ignore
        (apply_run t
           [ ("a", 1); ("a", 2) ]
           ~f:(fun _ x _ -> Some x)))

(* ---------- Record ---------- *)

let test_record_cas () =
  let r = Store.Record.make ~epoch:1 ~ts:100 "old" in
  check_bool "older write loses" false
    (Store.Record.cas_apply r ~epoch:1 ~ts:50 ~value:(Some "x"));
  check_bool "value unchanged" true (r.Store.Record.value = "old");
  check_bool "same stamp loses (idempotent)" false
    (Store.Record.cas_apply r ~epoch:1 ~ts:100 ~value:(Some "x"));
  check_bool "newer ts wins" true
    (Store.Record.cas_apply r ~epoch:1 ~ts:101 ~value:(Some "new"));
  check_bool "value updated" true (r.Store.Record.value = "new");
  check_bool "newer epoch beats bigger ts" true
    (Store.Record.cas_apply r ~epoch:2 ~ts:1 ~value:None);
  check_bool "tombstoned" true (Store.Record.is_deleted r)

let record_cas_monotone_qcheck =
  QCheck.Test.make ~name:"record stamp never regresses under random CAS" ~count:200
    QCheck.(list (pair (int_range 0 3) (int_range 0 100)))
    (fun stamps ->
      let r = Store.Record.make "init" in
      List.for_all
        (fun (epoch, ts) ->
          let before = (Store.Record.epoch r, Store.Record.ts r) in
          let won = Store.Record.cas_apply r ~epoch ~ts ~value:(Some "v") in
          let after = (Store.Record.epoch r, Store.Record.ts r) in
          if won then after = (epoch, ts) && after > before else after = before)
        stamps)

let test_record_snapshot_retention () =
  let r = Store.Record.make ~epoch:1 ~ts:100 "v100" in
  (* A pin >= floor may still need ts=100, so the install retains it. *)
  ignore (Store.Record.cas_apply_retain r ~floor:90 ~epoch:1 ~ts:200 ~value:(Some "v200"));
  check_bool "current at high pin" true
    (Store.Record.read_at r ~pin:250 = Store.Record.Visible (Some "v200", 200));
  check_bool "slot at mid pin" true
    (Store.Record.read_at r ~pin:150 = Store.Record.Visible (Some "v100", 100));
  check_bool "miss below the slot" true
    (Store.Record.read_at r ~pin:50 = Store.Record.Miss);
  (* Once the floor has passed the current stamp, retention reclaims. *)
  ignore (Store.Record.cas_apply_retain r ~floor:300 ~epoch:1 ~ts:300 ~value:(Some "v300"));
  check_bool "slot reclaimed" true (r.Store.Record.prior.p_ts = -1);
  check_bool "below-pin key absent" true
    (match Store.Record.read_at r ~pin:250 with
    | Store.Record.Visible (None, -1) -> true
    | _ -> false);
  (* Tombstones are versions too: a deletion retained in the slot reads
     back as [None] at an old pin. *)
  ignore (Store.Record.cas_apply_retain r ~floor:250 ~epoch:1 ~ts:400 ~value:None);
  check_bool "prior survives delete" true
    (Store.Record.read_at r ~pin:350 = Store.Record.Visible (Some "v300", 300));
  check_bool "delete visible above" true
    (Store.Record.read_at r ~pin:400 = Store.Record.Visible (None, 400))

let test_record_reject_refresh () =
  (* Parallel per-stream replay: ts=300 lands first, then the slower
     stream delivers ts=200. The CAS rejects it, but it is the newest
     version below the current stamp — it must land in the slot so a read
     pinned in [200, 300) still sees it. *)
  let r = Store.Record.make ~epoch:1 ~ts:100 "v100" in
  ignore (Store.Record.cas_apply_retain r ~floor:90 ~epoch:1 ~ts:300 ~value:(Some "v300"));
  check_bool "crossed write rejected" false
    (Store.Record.cas_apply_retain r ~floor:90 ~epoch:1 ~ts:200 ~value:(Some "v200"));
  check_bool "current untouched" true (Store.Record.ts r = 300);
  check_bool "loser parked in slot" true
    (Store.Record.read_at r ~pin:250 = Store.Record.Visible (Some "v200", 200));
  (* A second, even older loser must not displace the newer slot entry. *)
  check_bool "older loser rejected" false
    (Store.Record.cas_apply_retain r ~floor:90 ~epoch:1 ~ts:150 ~value:(Some "v150"));
  check_bool "slot keeps newer loser" true (r.Store.Record.prior.p_ts = 200)

let test_record_byte_size_slot () =
  let r = Store.Record.make ~epoch:1 ~ts:100 "aaaa" in
  let base = Store.Record.byte_size ~key:"k" r in
  check_int "no slot overhead while empty" base (64 + 1 + 4);
  ignore
    (Store.Record.cas_apply_retain r ~floor:90 ~epoch:1 ~ts:200
       ~value:(Some "bbbbbbbb"));
  (* Occupied slot: fixed 32-byte overhead plus the retained value. *)
  check_int "slot overhead while occupied"
    (64 + 1 + 8 + 32 + 4)
    (Store.Record.byte_size ~key:"k" r);
  (* An install the floor has passed empties the slot. *)
  Store.Record.install_retain r ~floor:300 ~epoch:1 ~ts:300 ~value:(Some "cccccccc");
  check_int "reclaimed once the floor passes" (64 + 1 + 8)
    (Store.Record.byte_size ~key:"k" r)

(* Interleave retained installs and rejected crossed writes at random;
   [read_at] must never surface a version stamped above the pin, and a
   visible version must carry the value written at that stamp. *)
let record_read_at_qcheck =
  QCheck.Test.make ~name:"read_at never exceeds the pin" ~count:300
    QCheck.(list (pair (int_range 1 60) (int_range 0 40)))
    (fun writes ->
      let r = Store.Record.make "init" in
      List.for_all
        (fun (ts, floor) ->
          ignore
            (Store.Record.cas_apply_retain r ~floor ~epoch:0 ~ts
               ~value:(Some (string_of_int ts)));
          List.for_all
            (fun pin ->
              match Store.Record.read_at r ~pin with
              | Store.Record.Miss -> true
              | Store.Record.Visible (None, vts) -> vts <= pin
              | Store.Record.Visible (Some v, vts) ->
                  (* ts=0 is the seed record's own stamp ("init"). *)
                  vts <= pin && (vts = 0 || v = string_of_int vts))
            [ 0; 10; 20; 30; 40; 50; 60 ])
        writes)

(* The record as it was before its prior version moved out of line and
   its tombstone flag folded into the value: nine inline fields (the
   never-taken lock word left out). The reference the four-word record
   must match on every observable read. *)
module Old_record = struct
  type t = {
    mutable value : string;
    mutable deleted : bool;
    mutable epoch : int;
    mutable ts : int;
    mutable version : int;
    mutable snap_value : string;
    mutable snap_deleted : bool;
    mutable snap_epoch : int;
    mutable snap_ts : int;
  }

  let make ~epoch ~ts value =
    {
      value;
      deleted = false;
      epoch;
      ts;
      version = 0;
      snap_value = "";
      snap_deleted = false;
      snap_epoch = 0;
      snap_ts = -1;
    }

  let copy t = { t with value = t.value }

  let stamp t ~epoch ~ts ~value =
    (match value with
    | Some v ->
        t.value <- v;
        t.deleted <- false
    | None ->
        t.value <- "";
        t.deleted <- true);
    t.epoch <- epoch;
    t.ts <- ts;
    t.version <- t.version + 1

  let newer ~epoch ~ts t = epoch > t.epoch || (epoch = t.epoch && ts > t.ts)

  let snap_clear t =
    t.snap_value <- "";
    t.snap_deleted <- false;
    t.snap_epoch <- 0;
    t.snap_ts <- -1

  let retain t ~floor ~ts =
    if floor < ts then begin
      t.snap_value <- t.value;
      t.snap_deleted <- t.deleted;
      t.snap_epoch <- t.epoch;
      t.snap_ts <- t.ts
    end
    else snap_clear t

  let cas_apply t ~epoch ~ts ~value =
    newer ~epoch ~ts t && (stamp t ~epoch ~ts ~value; true)

  let install_retain t ~floor ~epoch ~ts ~value =
    retain t ~floor ~ts;
    stamp t ~epoch ~ts ~value

  let cas_apply_retain t ~floor ~epoch ~ts ~value =
    if newer ~epoch ~ts t then begin
      install_retain t ~floor ~epoch ~ts ~value;
      true
    end
    else begin
      if ts > t.snap_ts && ts < t.ts then begin
        t.snap_value <- Option.value value ~default:"";
        t.snap_deleted <- value = None;
        t.snap_epoch <- epoch;
        t.snap_ts <- ts
      end;
      false
    end

  let read_at t ~pin =
    if t.ts <= pin then
      Store.Record.Visible ((if t.deleted then None else Some t.value), t.ts)
    else if t.snap_ts < 0 then Store.Record.Visible (None, -1)
    else if t.snap_ts <= pin then
      Store.Record.Visible ((if t.snap_deleted then None else Some t.snap_value), t.snap_ts)
    else Store.Record.Miss

  let byte_size ~key t =
    64 + String.length key + String.length t.value
    + if t.snap_ts >= 0 then 32 + String.length t.snap_value else 0
end

type record_op =
  | R_make of int * int * string option
  | R_install of int * int * int * string option
  | R_install_retain of int * int * int * int * string option
  | R_cas of int * int * int * string option
  | R_cas_retain of int * int * int * int * string option
  | R_copy of int

(* Small stamp and floor ranges, so crossed writes (the parked-loser
   branch), retention and reclamation all happen often. *)
let record_ops_arb =
  let open QCheck.Gen in
  let i = int_range 0 7 and epoch = int_range 0 2 and ts = int_range (-1) 30 in
  let floor = int_range 0 30 in
  let value = opt ~ratio:0.8 (map (Printf.sprintf "v%d") (int_range 0 999)) in
  let op =
    frequency
      [
        (1, map3 (fun e t v -> R_make (e, t, v)) epoch ts value);
        (2, map3 (fun i (e, t) v -> R_install (i, e, t, v)) i (pair epoch ts) value);
        ( 3,
          map3
            (fun i (e, t) (f, v) -> R_install_retain (i, f, e, t, v))
            i (pair epoch ts) (pair floor value) );
        (2, map3 (fun i (e, t) v -> R_cas (i, e, t, v)) i (pair epoch ts) value);
        ( 5,
          map3
            (fun i (e, t) (f, v) -> R_cas_retain (i, f, e, t, v))
            i (pair epoch ts) (pair floor value) );
        (1, map (fun i -> R_copy i) i);
      ]
  in
  let print_v = function Some v -> v | None -> "-" in
  let print (ops, _) =
    String.concat ";"
      (List.map
         (function
           | R_make (e, t, v) -> Printf.sprintf "make(%d,%d,%s)" e t (print_v v)
           | R_install (i, e, t, v) -> Printf.sprintf "install%d(%d,%d,%s)" i e t (print_v v)
           | R_install_retain (i, f, e, t, v) ->
               Printf.sprintf "install_retain%d(f%d,%d,%d,%s)" i f e t (print_v v)
           | R_cas (i, e, t, v) -> Printf.sprintf "cas%d(%d,%d,%s)" i e t (print_v v)
           | R_cas_retain (i, f, e, t, v) ->
               Printf.sprintf "cas_retain%d(f%d,%d,%d,%s)" i f e t (print_v v)
           | R_copy i -> Printf.sprintf "copy%d" i)
         ops)
  in
  QCheck.make ~print (pair (list_size (1 -- 60) op) (list_size (1 -- 8) (int_range (-2) 32)))

(* One record under test beside its reference, with both versions as of
   the last op checked. *)
type record_pair = {
  o : Old_record.t;
  r : Store.Record.t;
  mutable o_ver : int;
  mutable r_ver : int;
}

let record_pair o r = { o; r; o_ver = o.Old_record.version; r_ver = Store.Record.version r }

let record_matches_old_qcheck =
  QCheck.Test.make ~name:"four-word record = nine-field reference" ~count:500 record_ops_arb
    (fun (ops, pins) ->
      (* Parallel pools of (reference, record) pairs, one per [make] or
         [copy]; an op names its record modulo the pool size. *)
      let pool = ref [| record_pair (Old_record.make ~epoch:0 ~ts:0 "init") (Store.Record.make "init") |] in
      let add o r = pool := Array.append !pool [| record_pair o r |] in
      let get i = !pool.(i mod Array.length !pool) in
      let same p =
        let o = p.o and r = p.r in
        o.Old_record.value = r.value
        && o.deleted = Store.Record.is_deleted r
        && o.epoch = Store.Record.epoch r
        && o.ts = Store.Record.ts r
        && Old_record.byte_size ~key:"key" o = Store.Record.byte_size ~key:"key" r
        && List.for_all (fun pin -> Old_record.read_at o ~pin = Store.Record.read_at r ~pin) pins
      in
      (* The stamp is the version: it moves exactly when the reference's
         counter does. The one exception is an install that breaks the
         leader's contract (a stamp not newer than the record's), which
         the reference counts and the stamp cannot show; [exempt] names
         the record such an op wrote. *)
      let version_tracks exempt p =
        let moved_o = p.o.version <> p.o_ver and moved_r = Store.Record.version p.r <> p.r_ver in
        p.o_ver <- p.o.version;
        p.r_ver <- Store.Record.version p.r;
        p.r == exempt || moved_o = moved_r
      in
      let no_record = Store.Record.make "" in
      List.for_all
        (fun op ->
          let exempt_if_stale p ~epoch ~ts =
            if Old_record.newer ~epoch ~ts p.o then no_record else p.r
          in
          let agree, exempt =
            match op with
            | R_make (epoch, ts, Some v) ->
                add (Old_record.make ~epoch ~ts v) (Store.Record.make ~epoch ~ts v);
                (true, no_record)
            | R_make (epoch, ts, None) ->
                let o = Old_record.make ~epoch ~ts "" in
                o.deleted <- true;
                add o (Store.Record.tombstone ~epoch ~ts ());
                (true, no_record)
            | R_install (i, epoch, ts, value) ->
                let p = get i in
                let exempt = exempt_if_stale p ~epoch ~ts in
                Old_record.stamp p.o ~epoch ~ts ~value;
                Store.Record.install p.r ~epoch ~ts ~value;
                (true, exempt)
            | R_install_retain (i, floor, epoch, ts, value) ->
                let p = get i in
                let exempt = exempt_if_stale p ~epoch ~ts in
                Old_record.install_retain p.o ~floor ~epoch ~ts ~value;
                Store.Record.install_retain p.r ~floor ~epoch ~ts ~value;
                (true, exempt)
            | R_cas (i, epoch, ts, value) ->
                let p = get i in
                ( Old_record.cas_apply p.o ~epoch ~ts ~value
                  = Store.Record.cas_apply p.r ~epoch ~ts ~value,
                  no_record )
            | R_cas_retain (i, floor, epoch, ts, value) ->
                let p = get i in
                ( Old_record.cas_apply_retain p.o ~floor ~epoch ~ts ~value
                  = Store.Record.cas_apply_retain p.r ~floor ~epoch ~ts ~value,
                  no_record )
            | R_copy i ->
                let p = get i in
                add (Old_record.copy p.o) (Store.Record.copy p.r);
                (true, no_record)
          in
          agree
          && Array.for_all same !pool
          && Array.for_all (fun p -> version_tracks exempt p) !pool)
        ops)

(* The packed stamp sorts as the [(epoch, ts)] pair it packs, across the
   whole range ([ts = -1] and both upper limits included), and packing
   rejects every pair outside it. The limits are record.mli's; the packed
   stamp is observed as a fresh record's version. *)
let max_epoch = (1 lsl 18) - 1
let max_ts = (1 lsl 44) - 2
let pack ~epoch ~ts = Store.Record.version (Store.Record.make ~epoch ~ts "")

let stamp_pair_arb =
  let open QCheck.Gen in
  let edge lo hi = oneof [ int_range lo (lo + 3); int_range (hi - 3) hi; int_range lo hi ] in
  let epoch = edge 0 max_epoch and ts = edge (-1) max_ts in
  QCheck.make
    ~print:QCheck.Print.(pair (pair int int) (pair int int))
    (pair (pair epoch ts) (pair epoch ts))

let record_pack_order_qcheck =
  QCheck.Test.make ~name:"stamp packing keeps (epoch, ts) order" ~count:1000 stamp_pair_arb
    (fun ((e1, t1), (e2, t2)) ->
      let s1 = pack ~epoch:e1 ~ts:t1 and s2 = pack ~epoch:e2 ~ts:t2 in
      let r = Store.Record.make ~epoch:e2 ~ts:t2 "" in
      compare s1 s2 = compare (e1, t1) (e2, t2)
      && s1 >= 0
      && Store.Record.cas_apply (Store.Record.copy r) ~epoch:e1 ~ts:t1 ~value:None
         = ((e1, t1) > (e2, t2))
      && (Store.Record.epoch r, Store.Record.ts r, Store.Record.version r) = (e2, t2, s2))

let test_record_pack_range () =
  check_int "lowest stamp" 0 (pack ~epoch:0 ~ts:(-1));
  check_int "highest stamp" max_int (pack ~epoch:max_epoch ~ts:max_ts);
  List.iter
    (fun (epoch, ts) ->
      check_bool
        (Printf.sprintf "(%d, %d) rejected" epoch ts)
        true
        (match pack ~epoch ~ts with _ -> false | exception Invalid_argument _ -> true))
    [
      (-1, 0);
      (min_int, 0);
      (max_epoch + 1, 0);
      (max_int, 0);
      (0, -2);
      (0, min_int);
      (0, max_ts + 1);
      (max_epoch, max_int);
    ];
  check_bool "make checks the range" true
    (match Store.Record.make ~epoch:0 ~ts:(max_ts + 1) "" with _ -> false | exception Invalid_argument _ -> true)

(* The layout and the accounting pinned: a record is three fields, an
   empty prior slot is one shared block, and [byte_size] (which feeds
   [Table.bytes], the checkpoint and mem5 accounting) counts a tombstone,
   alone and in the slot, as it counted the [""] a deletion stored. A
   fresh record and an occupied slot are pinned by "byte_size slot
   overhead". *)
let test_record_layout () =
  let r = Store.Record.make "v" in
  check_int "three fields" 3 (Obj.size (Obj.repr r));
  check_bool "empty slots shared" true (r.prior == (Store.Record.make "w").prior);
  let tomb = Store.Record.tombstone ~epoch:1 ~ts:5 () in
  check_bool "tombstone deleted" true (Store.Record.is_deleted tomb);
  check_bool "live empty value is not a tombstone" false
    (Store.Record.is_deleted (Store.Record.make ""));
  check_int "tombstone" (64 + 3) (Store.Record.byte_size ~key:"key" tomb);
  ignore (Store.Record.cas_apply_retain tomb ~floor:0 ~epoch:1 ~ts:9 ~value:(Some "bb"));
  check_int "tombstone in the slot" (64 + 3 + 2 + 32) (Store.Record.byte_size ~key:"key" tomb);
  check_bool "copy shares the slot" true ((Store.Record.copy tomb).prior == tomb.prior);
  let t = Store.Table.create ~id:0 ~name:"t" () in
  Store.Table.insert t "key" (Store.Record.make "aaaa");
  Store.Table.insert t "k2" (Store.Record.tombstone ());
  check_int "table bytes" (64 + 3 + 4 + (64 + 2)) (Store.Table.bytes t)

(* ---------- Table ---------- *)

let test_table_tombstones () =
  let t = Store.Table.create ~id:0 ~name:"t" () in
  Store.Table.insert t "a" (Store.Record.make "1");
  Store.Table.insert t "b" (Store.Record.tombstone ());
  check_bool "get sees tombstone" true (Store.Table.get t "b" <> None);
  check_bool "get_live hides tombstone" true (Store.Table.get_live t "b" = None);
  check_int "scan skips tombstone" 1 (List.length (Store.Table.scan t ~lo:"" ~hi:"z" ()));
  let physical = ref 0 in
  Store.Table.iter t (fun _ _ -> incr physical);
  check_int "iter includes it" 2 !physical;
  check_int "compact drops one" 1 (Store.Table.compact t);
  check_int "one physical record left" 1 (Store.Table.count t)

let test_table_min_live () =
  let t = Store.Table.create ~id:0 ~name:"t" () in
  Store.Table.insert t "a" (Store.Record.tombstone ());
  Store.Table.insert t "b" (Store.Record.make "2");
  (* The oldest-live probe: a one-record live scan. *)
  match Store.Table.scan t ~lo:"" ~hi:"z" ~limit:1 () with
  | [ ("b", _) ] -> ()
  | (k, _) :: _ -> Alcotest.failf "expected b, got %s" k
  | [] -> Alcotest.fail "expected a live record"

let test_table_bytes_accounting () =
  let t = Store.Table.create ~id:0 ~name:"t" () in
  check_int "empty" 0 (Store.Table.bytes t);
  Store.Table.insert t "k" (Store.Record.make "0123456789");
  check_bool "grew" true (Store.Table.bytes t > 0);
  Store.Table.remove_phys t "k";
  check_int "back to zero" 0 (Store.Table.bytes t)

let test_table_duplicate_insert () =
  let t = Store.Table.create ~id:0 ~name:"dup" () in
  Store.Table.insert t "k" (Store.Record.make "1");
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Table.insert: duplicate key in dup") (fun () ->
      Store.Table.insert t "k" (Store.Record.make "2"));
  (* Original binding survives the failed insert. *)
  match Store.Table.get t "k" with
  | Some r -> check_bool "old value" true (r.Store.Record.value = "1")
  | None -> Alcotest.fail "binding lost"

(* ---------- Hash-indexed tables ---------- *)

let test_hash_point_ops () =
  let t = Store.Table.create ~repr:Store.Table.Hash ~id:7 ~name:"item" () in
  check_bool "repr" true (Store.Table.repr t = Store.Table.Hash);
  Store.Table.insert t "a" (Store.Record.make "1");
  Store.Table.insert t "b" (Store.Record.tombstone ());
  check_bool "get sees tombstone" true (Store.Table.get t "b" <> None);
  check_bool "get_live hides tombstone" true (Store.Table.get_live t "b" = None);
  check_int "count" 2 (Store.Table.count t);
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Table.insert: duplicate key in item") (fun () ->
      Store.Table.insert t "a" (Store.Record.make "x"));
  check_int "compact drops tombstone" 1 (Store.Table.compact t);
  Store.Table.remove_phys t "a";
  check_int "empty after removes" 0 (Store.Table.count t)

let test_hash_range_ops_raise () =
  let t = Store.Table.create ~repr:Store.Table.Hash ~id:0 ~name:"h" () in
  Store.Table.insert t "k" (Store.Record.make "v");
  let expect_raise label f =
    try
      ignore (f ());
      Alcotest.failf "%s must raise on a hash table" label
    with Invalid_argument _ -> ()
  in
  expect_raise "scan" (fun () -> Store.Table.scan t ~lo:"" ~hi:"z" ());
  expect_raise "max_live" (fun () -> Store.Table.max_live t ~lo:"" ~hi:"z");
  expect_raise "tree" (fun () -> Store.Table.tree t)

let test_hash_iter_ascending () =
  let t = Store.Table.create ~repr:Store.Table.Hash ~id:0 ~name:"h" () in
  List.iter
    (fun k -> Store.Table.insert t k (Store.Record.make k))
    [ "q"; "b"; "z"; "a"; "m" ];
  let seen = ref [] in
  Store.Table.iter t (fun k _ -> seen := k :: !seen);
  check_bool "ascending order" true
    (List.rev !seen = [ "a"; "b"; "m"; "q"; "z" ])

let test_hash_apply_sorted_run () =
  let t = Store.Table.create ~repr:Store.Table.Hash ~id:0 ~name:"h" () in
  Store.Table.insert t "b" (Store.Record.make "old");
  let run = [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  let counts =
    on_run run (fun ~key ~lo ~hi _ -> Store.Table.count_sorted_run t ~key ~lo ~hi)
  in
  check_int "one descent per key" 3 counts.Store.Btree.descents;
  check_int "no steps on hash" 0 counts.Store.Btree.steps;
  let applied =
    on_run run (fun ~key ~lo ~hi payload ->
        Store.Table.apply_sorted_run t ~key ~lo ~hi ~f:(fun i existing ->
            match existing with
            | Some r ->
                r.Store.Record.value <- payload i;
                None
            | None -> Some (Store.Record.make (payload i))))
  in
  check_int "applied descents" 3 applied.Store.Btree.descents;
  check_int "all present" 3 (Store.Table.count t);
  (match Store.Table.get t "b" with
  | Some r -> check_bool "updated in place" true (r.Store.Record.value = "2")
  | None -> Alcotest.fail "b lost");
  Alcotest.check_raises "unsorted run rejected"
    (Invalid_argument "Table.apply_sorted_run: keys not strictly ascending")
    (fun () ->
      ignore
        (on_run [ ("z", "1"); ("a", "2") ] (fun ~key ~lo ~hi _ ->
             Store.Table.apply_sorted_run t ~key ~lo ~hi ~f:(fun _ _ -> None))))

(* Model-based equivalence: the same random point-op trace against a
   B-tree table and a hash table must be observationally identical —
   every get result, the final count, and the ascending [iter] listing.
   This is the contract that lets a config flip a table's representation
   without replicas diverging. *)
let hash_btree_equiv_qcheck =
  let op_gen =
    let open QCheck.Gen in
    let key = map (Printf.sprintf "k%02d") (int_range 0 30) in
    frequency
      [
        (4, map2 (fun k v -> `Upsert (k, v)) key (string_size (1 -- 8)));
        (2, map (fun k -> `Get k) key);
        (1, map (fun k -> `Remove k) key);
        (1, map (fun k -> `Tombstone k) key);
      ]
  in
  QCheck.Test.make ~name:"hash table = btree table (point ops)" ~count:200
    (QCheck.make QCheck.Gen.(list_size (0 -- 60) op_gen))
    (fun ops ->
      let bt = Store.Table.create ~id:0 ~name:"t" () in
      let ht = Store.Table.create ~repr:Store.Table.Hash ~id:0 ~name:"t" () in
      let value t k =
        match Store.Table.get t k with
        | None -> None
        | Some r -> Some (r.Store.Record.value, Store.Record.is_deleted r)
      in
      let upsert t k v =
        match Store.Table.get t k with
        | Some r -> r.Store.Record.value <- v
        | None -> Store.Table.insert t k (Store.Record.make v)
      in
      let tombstone t k =
        match Store.Table.get t k with
        | Some r -> Store.Record.install r ~epoch:0 ~ts:0 ~value:None
        | None -> ()
      in
      List.for_all
        (fun op ->
          (match op with
          | `Upsert (k, v) ->
              upsert bt k v;
              upsert ht k v
          | `Remove k ->
              Store.Table.remove_phys bt k;
              Store.Table.remove_phys ht k
          | `Tombstone k ->
              tombstone bt k;
              tombstone ht k
          | `Get _ -> ());
          match op with
          | `Get k -> value bt k = value ht k
          | _ -> true)
        ops
      &&
      let listing t =
        let acc = ref [] in
        Store.Table.iter t (fun k r ->
            acc := (k, r.Store.Record.value, Store.Record.is_deleted r) :: !acc);
        List.rev !acc
      in
      Store.Table.count bt = Store.Table.count ht && listing bt = listing ht)

(* ---------- structural copy ---------- *)

(* A random table history: inserts of absent keys, physical removes, and
   installs into present records. Up to 200 keys over leaves of 32 make
   splits, merges and leaves with spare capacity. *)
type table_op = T_ins of string * string | T_rem of string | T_mut of string * string

let table_ops_arb =
  let open QCheck.Gen in
  let key = map (Printf.sprintf "%03d") (int_range 0 199) in
  let value = map (Printf.sprintf "v%d") small_nat in
  let op =
    frequency
      [
        (5, map2 (fun k v -> T_ins (k, v)) key value);
        (3, map (fun k -> T_rem k) key);
        (2, map2 (fun k v -> T_mut (k, v)) key value);
      ]
  in
  let print ops =
    String.concat ";"
      (List.map
         (function
           | T_ins (k, v) -> Printf.sprintf "I(%s,%s)" k v
           | T_rem k -> Printf.sprintf "R(%s)" k
           | T_mut (k, v) -> Printf.sprintf "M(%s,%s)" k v)
         ops)
  in
  QCheck.make ~print (list_size (0 -- 500) op)

let apply_table_op t = function
  | T_ins (k, v) ->
      if Store.Table.get t k = None then Store.Table.insert t k (Store.Record.make v)
  | T_rem k -> Store.Table.remove_phys t k
  | T_mut (k, v) -> (
      match Store.Table.get t k with
      | Some r ->
          Store.Record.install r ~epoch:2 ~ts:(Store.Record.ts r + 1) ~value:(Some v)
      | None -> ())

let table_get_many_qcheck repr =
  let name =
    match repr with Store.Table.Btree -> "btree" | Store.Table.Hash -> "hash"
  in
  QCheck.Test.make ~count:150
    ~name:(Printf.sprintf "table get_many = get (%s)" name)
    (QCheck.pair table_ops_arb probes_arb)
    (fun (history, probes) ->
      let t = Store.Table.create ~repr ~id:0 ~name:"t" () in
      List.iter (apply_table_op t) history;
      let keys = probe_keys probes in
      let out = Array.make (Array.length keys) None in
      Store.Table.get_many t keys out;
      Array.for_all2
        (fun got k -> Option.equal ( == ) got (Store.Table.get t k))
        out keys)

let table_pairs t =
  let acc = ref [] in
  Store.Table.iter t (fun k r -> acc := (k, r) :: !acc);
  List.rev !acc

(* Every record field by field, in [iter] order. *)
let table_contents t =
  List.map
    (fun (k, (r : Store.Record.t)) -> (k, r.value, Store.Record.is_deleted r, r.stamp))
    (table_pairs t)

(* The walks a B-tree copy must reproduce from every probe key: a bounded
   range and an [iter_from] cut after 40 keys. *)
let tree_walks tr =
  List.init 11 (fun i ->
      let lo = Printf.sprintf "%03d" (i * 20) and hi = Printf.sprintf "%03d" ((i * 20) + 35) in
      let range = List.map fst (range tr ~lo ~hi) in
      let from = ref [] in
      Store.Btree.iter_from tr lo (fun k _ ->
          from := k :: !from;
          List.length !from < 40);
      (range, !from))

let table_copy_qcheck repr =
  let name = match repr with Store.Table.Btree -> "btree" | Store.Table.Hash -> "hash" in
  QCheck.Test.make ~count:150
    ~name:(Printf.sprintf "table copy (%s): equal, shares strings, independent" name)
    (QCheck.triple table_ops_arb table_ops_arb table_ops_arb)
    (fun (history, on_src, on_copy) ->
      let src = Store.Table.create ~repr ~id:3 ~name:"t" () in
      List.iter (apply_table_op src) history;
      let c = Store.Table.copy src in
      let trees_ok () =
        match repr with
        | Store.Table.Hash -> true
        | Store.Table.Btree ->
            Store.Btree.check_invariants (Store.Table.tree src);
            Store.Btree.check_invariants (Store.Table.tree c);
            true
      in
      let same_table =
        Store.Table.id c = 3
        && Store.Table.name c = "t"
        && Store.Table.repr c = repr
        && Store.Table.count c = Store.Table.count src
        && Store.Table.bytes c = Store.Table.bytes src
      in
      let sp = table_pairs src and cp = table_pairs c in
      let shared =
        List.length sp = List.length cp
        && List.for_all2
             (fun (k, (r : Store.Record.t)) (k', (r' : Store.Record.t)) ->
               k == k' && r != r' && r.value == r'.value)
             sp cp
      in
      let same_walks =
        match repr with
        | Store.Table.Hash -> true
        | Store.Table.Btree ->
            let ts = Store.Table.tree src and tc = Store.Table.tree c in
            List.map fst (Store.Btree.to_list ts) = List.map fst (Store.Btree.to_list tc)
            && tree_walks ts = tree_walks tc
      in
      let checked_at_birth = trees_ok () in
      let born = table_contents src in
      let equal_at_birth = table_contents c = born in
      List.iter (apply_table_op src) on_src;
      let copy_kept = table_contents c = born in
      let src_now = table_contents src in
      List.iter (apply_table_op c) on_copy;
      let src_kept = table_contents src = src_now in
      checked_at_birth && trees_ok () && same_table && shared && same_walks && equal_at_birth && copy_kept
      && src_kept)

(* ---------- Wire ---------- *)

(* A one-shot encode through a fresh arena. *)
let encode e = Store.Wire.encode_into (Store.Wire.Scratch.create ()) e

let sample_entry () =
  let w1 = { Store.Wire.table = 1; key = "k1"; value = Some "v1" } in
  let w2 = { Store.Wire.table = 2; key = "k2"; value = None } in
  Store.Wire.make_entry ~epoch:3
    [
      {
        Store.Wire.ts = 100;
        req = Some (7, 42);
        decision =
          Some { Store.Wire.d_xid = 9001; d_phase = Store.Wire.Committed; d_parts = [ 0; 2 ] };
        writes = [ w1; w2 ];
      };
      { Store.Wire.ts = 105; req = None; decision = None; writes = [ w1 ] };
    ]

let test_wire_roundtrip () =
  let e = sample_entry () in
  check_int "last ts from batch" 105 e.Store.Wire.last_ts;
  let e' = Store.Wire.decode (encode e) in
  check_bool "roundtrip" true (e = e')

let test_wire_size_matches_encoding () =
  let e = sample_entry () in
  check_int "byte_size = encoded length" (String.length (encode e))
    (Store.Wire.byte_size e)

let test_wire_noop () =
  let n = Store.Wire.noop ~epoch:2 ~ts:55 in
  check_bool "is noop" true (Store.Wire.is_noop n);
  check_bool "roundtrip noop" true (Store.Wire.decode (encode n) = n)

let test_wire_malformed () =
  let e = sample_entry () in
  let enc = encode e in
  let truncated = String.sub enc 0 (String.length enc - 3) in
  (try
     ignore (Store.Wire.decode truncated);
     Alcotest.fail "truncated input must be rejected"
   with Invalid_argument _ -> ());
  let extended = enc ^ "xx" in
  try
    ignore (Store.Wire.decode extended);
    Alcotest.fail "trailing bytes must be rejected"
  with Invalid_argument _ -> ()

let wire_entry_gen =
  let open QCheck.Gen in
  let write =
    map3
      (fun table key value -> { Store.Wire.table; key; value })
      (int_range 0 20) (string_size (0 -- 10))
      (option (string_size (0 -- 30)))
  in
  let txn =
    let req =
      option (map2 (fun cid seq -> (cid, seq)) (int_range 0 100) (int_range 1 1000))
    in
    let decision =
      option
        (map3
           (fun d_xid phase d_parts ->
             let d_phase =
               match phase with
               | 0 -> Store.Wire.Prepared
               | 1 -> Store.Wire.Committed
               | 2 -> Store.Wire.Aborted
               | 3 -> Store.Wire.Applied
               | _ -> Store.Wire.Canceled
             in
             { Store.Wire.d_xid; d_phase; d_parts })
           big_nat (int_range 0 4)
           (list_size (0 -- 4) (int_range 0 7)))
    in
    map3
      (fun ts (req, decision) writes -> { Store.Wire.ts; req; decision; writes })
      big_nat (pair req decision)
      (list_size (0 -- 5) write)
  in
  map2
    (fun epoch txns ->
      match txns with
      | [] -> Store.Wire.noop ~epoch ~ts:0
      | _ -> Store.Wire.make_entry ~epoch txns)
    (int_range 0 100) (list_size (0 -- 8) txn)

let wire_roundtrip_qcheck =
  QCheck.Test.make ~name:"wire roundtrip + size law" ~count:300
    (QCheck.make wire_entry_gen) (fun e ->
      let enc = encode e in
      Store.Wire.decode enc = e && String.length enc = Store.Wire.byte_size e)

(* A reused arena must encode byte-for-byte as a fresh one, including when the scratch buffer is reused across
   entries of wildly different sizes (reuse is the whole point: one
   scratch per worker, never reallocated once warm). *)
let wire_encode_into_qcheck =
  let scratch = Store.Wire.Scratch.create ~capacity:8 () in
  QCheck.Test.make ~name:"encode_into = encode (reused scratch)" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 6) wire_entry_gen))
    (fun entries ->
      List.for_all
        (fun e -> Store.Wire.encode_into scratch e = encode e)
        entries)

let test_wire_scratch_growth () =
  let s = Store.Wire.Scratch.create ~capacity:4 () in
  check_bool "initial capacity honoured" true
    (Store.Wire.Scratch.capacity s >= 4);
  let e = sample_entry () in
  let enc = Store.Wire.encode_into s e in
  check_bool "matches one-shot encode" true (enc = encode e);
  check_bool "grew to fit" true
    (Store.Wire.Scratch.capacity s >= String.length enc);
  let cap = Store.Wire.Scratch.capacity s in
  ignore (Store.Wire.encode_into s e);
  check_int "stable once warm" cap (Store.Wire.Scratch.capacity s)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "store"
    [
      ( "keycodec",
        [
          Alcotest.test_case "next_prefix" `Quick test_next_prefix;
          Alcotest.test_case "prefix scan semantics" `Quick test_prefix_scan_semantics;
          qc codec_roundtrip;
          qc codec_order_preserving;
          qc codec_tpcc_order;
          qc codec_split_key_soundness;
          qc codec_decode_fuzz;
          qc codec_reference_qcheck;
        ] );
      ( "btree",
        [
          Alcotest.test_case "basic" `Quick test_btree_basic;
          Alcotest.test_case "sorted inserts" `Quick test_btree_many_sorted_inserts;
          Alcotest.test_case "reverse + deletes" `Quick
            test_btree_reverse_inserts_then_deletes;
          Alcotest.test_case "drain" `Quick test_btree_drain;
          Alcotest.test_case "range ops" `Quick test_btree_range;
          Alcotest.test_case "insert_if_absent" `Quick
            test_btree_insert_if_absent;
          Alcotest.test_case "cursor walk" `Quick test_btree_cursor_walk;
          Alcotest.test_case "apply_sorted validation" `Quick
            test_btree_apply_sorted_validation;
          qc btree_model_qcheck;
          qc btree_range_qcheck;
          qc btree_find_last_lt_qcheck;
          qc btree_apply_sorted_qcheck;
          qc btree_apply_sorted_decline_qcheck;
          qc btree_apply_sorted_cursor_qcheck;
          qc btree_count_sorted_qcheck;
          qc btree_count_sorted_splits_qcheck;
          Alcotest.test_case "find_many edge cases" `Quick test_btree_find_many_edges;
          qc btree_find_many_qcheck;
        ] );
      ( "record",
        [
          Alcotest.test_case "layout" `Quick test_record_layout;
          Alcotest.test_case "cas" `Quick test_record_cas;
          Alcotest.test_case "snapshot retention" `Quick
            test_record_snapshot_retention;
          Alcotest.test_case "reject refresh" `Quick test_record_reject_refresh;
          Alcotest.test_case "byte_size slot overhead" `Quick
            test_record_byte_size_slot;
          qc record_cas_monotone_qcheck;
          qc record_read_at_qcheck;
          qc record_matches_old_qcheck;
          qc record_pack_order_qcheck;
          Alcotest.test_case "pack range" `Quick test_record_pack_range;
        ] );
      ( "table",
        [
          Alcotest.test_case "tombstones" `Quick test_table_tombstones;
          Alcotest.test_case "min_live" `Quick test_table_min_live;
          Alcotest.test_case "byte accounting" `Quick test_table_bytes_accounting;
          Alcotest.test_case "duplicate insert" `Quick test_table_duplicate_insert;
        ] );
      ( "hash-table",
        [
          Alcotest.test_case "point ops" `Quick test_hash_point_ops;
          Alcotest.test_case "range ops raise" `Quick test_hash_range_ops_raise;
          Alcotest.test_case "iter ascending" `Quick test_hash_iter_ascending;
          Alcotest.test_case "apply_sorted_run" `Quick test_hash_apply_sorted_run;
          qc hash_btree_equiv_qcheck;
          qc (table_get_many_qcheck Store.Table.Btree);
          qc (table_get_many_qcheck Store.Table.Hash);
        ] );
      ( "copy",
        [
          qc (table_copy_qcheck Store.Table.Btree);
          qc (table_copy_qcheck Store.Table.Hash);
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "size law" `Quick test_wire_size_matches_encoding;
          Alcotest.test_case "noop" `Quick test_wire_noop;
          Alcotest.test_case "malformed input" `Quick test_wire_malformed;
          Alcotest.test_case "scratch growth" `Quick test_wire_scratch_growth;
          qc wire_roundtrip_qcheck;
          qc wire_encode_into_qcheck;
        ] );
    ]
