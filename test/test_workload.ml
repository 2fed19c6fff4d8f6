(* Tests for the workload generators: row codec, Zipf, YCSB++, TPC-C
   (including consistency conditions after concurrent runs and across a
   Rolis failover). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Engine.ms
let s = Sim.Engine.s

(* ---------- Row ---------- *)

(* The list codec's framing, kept here as the byte-level reference the
   in-place readers and writers must agree with. *)
let ref_pack fields =
  String.concat "" (List.map (fun f -> Printf.sprintf "%d:%s" (String.length f) f) fields)

(* Its inverse: ["<length>:<bytes>"] frames until the row ends. *)
let ref_unpack row =
  let rec go pos acc =
    if pos >= String.length row then List.rev acc
    else
      let colon = String.index_from row pos ':' in
      let n = int_of_string (String.sub row pos (colon - pos)) in
      go (colon + 1 + n) (String.sub row (colon + 1) n :: acc)
  in
  go 0 []

let row_roundtrip_qcheck =
  QCheck.Test.make ~name:"row pack/unpack roundtrip" ~count:300
    QCheck.(list (string_of_size Gen.(0 -- 40)))
    (fun fields -> ref_unpack (Workload.Row.pack fields) = fields)

let test_row_field_ops () =
  let row = Workload.Row.pack [ "a"; "42"; "c" ] in
  check_int "int_at" 42 (Workload.Row.int_at row 1);
  check_int "to_int" 42 (Workload.Row.to_int (List.nth (ref_unpack row) 1));
  let row' = Workload.Row.set_int row 1 43 in
  check_int "set_int" 43 (Workload.Row.int_at row' 1);
  Alcotest.(check string) "others untouched" "c" (List.nth (ref_unpack row') 2)

(* Rows mix numeric fields (negative ones and [min_int]/[max_int] too),
   empty fields and free text that may hold the framing's own ':' and
   digits. *)
let row_field_gen =
  let open QCheck.Gen in
  oneof
    [
      map string_of_int int;
      map string_of_int (int_range (-1000) 1000);
      oneofl [ ""; string_of_int min_int; string_of_int max_int; "0"; "-0" ];
      string_size ~gen:(oneofl [ 'a'; ':'; '7'; '-'; '\x00' ]) (0 -- 12);
    ]

let row_case_arb =
  let open QCheck.Gen in
  let gen =
    list_size (1 -- 8) row_field_gen >>= fun fields ->
    int_range 0 (List.length fields - 1) >>= fun i ->
    row_field_gen >>= fun v ->
    map (fun n -> (fields, i, v, n)) int
  in
  QCheck.make
    ~print:(fun (fs, i, v, n) ->
      Printf.sprintf "[%s] i=%d v=%S n=%d" (String.concat "; " (List.map (Printf.sprintf "%S") fs)) i v n)
    gen

let row_codec_qcheck =
  QCheck.Test.make ~name:"row readers and writers agree with the list codec" ~count:1000
    row_case_arb (fun (fields, i, v, n) ->
      let module R = Workload.Row in
      let row = R.pack fields in
      let numeric f = int_of_string_opt f <> None in
      row = ref_pack fields
      && ref_unpack row = fields
      && R.pack (List.mapi (fun j f -> if j = i then v else f) fields)
         = ref_pack (List.mapi (fun j f -> if j = i then v else f) fields)
      && ((not (numeric (List.nth fields i)))
         || R.int_at row i = int_of_string (List.nth fields i))
      && R.set_int row i n
         = ref_pack (List.mapi (fun j f -> if j = i then string_of_int n else f) fields))

(* ---------- Zipf ---------- *)

let test_zipf_bounds_and_skew () =
  let z = Workload.Zipf.create ~n:1000 ~theta:0.99 in
  let rng = Sim.Rng.create 7L in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let v = Workload.Zipf.next z rng in
    check_bool "in range" true (v >= 0 && v < 1000);
    counts.(v) <- counts.(v) + 1
  done;
  (* Head keys dominate the tail under theta = 0.99. *)
  let head = counts.(0) + counts.(1) + counts.(2) in
  let tail = counts.(997) + counts.(998) + counts.(999) in
  check_bool "skewed towards head" true (head > 50 * max tail 1)

(* ---------- helpers: a standalone DB in a simulation ---------- *)

let in_sim f =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:8 ~efficiency:(fun ~active:_ -> 1.0) () in
  let db = Silo.Db.create eng cpu () in
  let finished = ref false in
  let _p =
    Sim.Engine.spawn eng (fun () ->
        f eng db;
        finished := true)
  in
  Sim.Engine.run eng;
  check_bool "sim body completed" true !finished

(* ---------- YCSB ---------- *)

let test_ycsb_setup_and_run () =
  let p = { Workload.Ycsb.default with Workload.Ycsb.keys = 1_000 } in
  in_sim (fun eng db ->
      Workload.Ycsb.setup p db;
      check_int "table populated" 1_000
        (Store.Table.count (Silo.Db.table db Workload.Ycsb.table_name));
      let rng = Sim.Rng.split (Sim.Engine.rng eng) in
      let body = (Workload.Ycsb.app p).Rolis.App.make_worker db ~rng ~worker:0 in
      for _ = 1 to 200 do
        let r = Silo.Db.run db ~worker:0 body in
        check_bool "committed" true (r.Silo.Db.tid <> None);
        check_int "4 ops read" 4 r.Silo.Db.reads
      done;
      let st = Silo.Db.stats db in
      check_int "200 commits" 200 st.Silo.Db.commits)

(* YCSB's usertable key for an integer key. *)
let ycsb_key i = Store.Keycodec.encode [ Store.Keycodec.I i ]

(* A follower read reads its payload's keys in payload order, repeats
   included, and returns the last value it found. *)
let test_ycsb_read_op () =
  let p = { Workload.Ycsb.default with Workload.Ycsb.keys = 1_000 } in
  in_sim (fun _eng db ->
      Workload.Ycsb.setup p db;
      let t = Silo.Db.table db Workload.Ycsb.table_name in
      (match Store.Table.get t (ycsb_key 17) with
      | Some r -> Store.Record.install r ~epoch:0 ~ts:0 ~value:(Some "seventeen")
      | None -> Alcotest.fail "key 17 not loaded");
      let read_op = Option.get (Workload.Ycsb.client_app p).Rolis.App.read_op in
      let payload = "5 17 999 17 2000 3" in
      let v, obs = Silo.Db.read_at db ~audit:true ~pin:0 (read_op db ~payload) in
      let loaded = Workload.Row.pad p.Workload.Ycsb.value_size in
      Alcotest.(check string) "last value found" loaded v;
      Alcotest.(check (list string))
        "keys in payload order"
        (List.map ycsb_key [ 5; 17; 999; 17; 2000; 3 ])
        (List.rev_map (fun (_, k, _) -> k) obs);
      let v, _ = Silo.Db.read_at db ~pin:0 (read_op db ~payload:"1 17 2000") in
      Alcotest.(check string) "an absent key keeps the last" "seventeen" v)

(* ---------- TPC-C ---------- *)

let small_tpcc =
  {
    Workload.Tpcc.default with
    Workload.Tpcc.warehouses = 2;
    items = 500;
    customers_per_district = 30;
    init_orders_per_district = 30;
  }

let test_tpcc_setup_consistent () =
  in_sim (fun _eng db ->
      Workload.Tpcc.setup small_tpcc db;
      Alcotest.(check (list string))
        "fresh load is consistent" []
        (Workload.Tpcc.consistency_errors small_tpcc db))

let test_tpcc_each_kind_runs () =
  in_sim (fun eng db ->
      Workload.Tpcc.setup small_tpcc db;
      let rng = Sim.Rng.split (Sim.Engine.rng eng) in
      List.iter
        (fun kind ->
          (* Several instances of each kind, to hit by-name paths etc. *)
          for _ = 1 to 25 do
            let payload = Workload.Tpcc.payload rng ~w:1 kind in
            let r =
              Silo.Db.run db ~worker:0 (Workload.Tpcc.op small_tpcc db ~payload)
            in
            match kind with
            | Workload.Tpcc.New_order ->
                (* Commits or 1% user rollback; both are fine. *)
                ()
            | _ -> check_bool (Workload.Tpcc.kind_name kind ^ " commits") true (r.Silo.Db.tid <> None)
          done)
        Workload.Tpcc.all_kinds;
      Alcotest.(check (list string))
        "consistent after every kind" []
        (Workload.Tpcc.consistency_errors small_tpcc db))

let test_tpcc_concurrent_mix_consistent () =
  in_sim (fun eng db ->
      Workload.Tpcc.setup small_tpcc db;
      let app = Workload.Tpcc.app small_tpcc in
      for w = 0 to 3 do
        let rng = Sim.Rng.split (Sim.Engine.rng eng) in
        let body = app.Rolis.App.make_worker db ~rng ~worker:w in
        let _p =
          Sim.Engine.spawn eng (fun () ->
              for _ = 1 to 150 do
                ignore (Silo.Db.run db ~worker:w body)
              done)
        in
        ()
      done;
      (* Let the spawned workers finish before checking. *)
      Sim.Engine.sleep (10 * s);
      Alcotest.(check (list string))
        "consistent after concurrent mix" []
        (Workload.Tpcc.consistency_errors small_tpcc db))

let test_tpcc_skewed_contention () =
  (* FastIds off + one district-heavy mix: conflict aborts must appear. *)
  let p = { small_tpcc with Workload.Tpcc.warehouses = 1; fast_ids = false;
            mix = { new_order = 100; payment = 0; order_status = 0; stock_level = 0; delivery = 0 } } in
  in_sim (fun eng db ->
      Workload.Tpcc.setup p db;
      let app = Workload.Tpcc.app p in
      for w = 0 to 7 do
        let rng = Sim.Rng.split (Sim.Engine.rng eng) in
        let body = app.Rolis.App.make_worker db ~rng ~worker:w in
        let _p =
          Sim.Engine.spawn eng (fun () ->
              for _ = 1 to 50 do
                ignore (Silo.Db.run db ~worker:w body)
              done)
        in
        ()
      done;
      Sim.Engine.sleep (10 * s);
      let stats = Silo.Db.stats db in
      check_bool "district counter contention causes conflicts" true
        (stats.Silo.Db.conflict_aborts > 0);
      Alcotest.(check (list string))
        "still consistent" []
        (Workload.Tpcc.consistency_errors p db))

(* The TPC-C op's per-database state (FastIds counters, history
   sequence) must not keep a database alive: once the last reference is
   dropped, a full major collection reclaims it. *)
let test_tpcc_state_released () =
  let weak = Weak.create 1 in
  let[@inline never] run_one_txn () =
    let eng = Sim.Engine.create () in
    let cpu = Sim.Cpu.create eng ~cores:1 () in
    let db = Silo.Db.create eng cpu () in
    let p = { small_tpcc with Workload.Tpcc.warehouses = 1 } in
    Workload.Tpcc.setup p db;
    let op = Option.get (Workload.Tpcc.client_app p).Rolis.App.client_op in
    let committed = ref false in
    ignore
      (Sim.Engine.spawn eng (fun () ->
           let r = Silo.Db.run db ~worker:0 (op db ~payload:"p 1 7") in
           committed := r.Silo.Db.tid <> None));
    Sim.Engine.run eng;
    check_bool "payment committed" true !committed;
    Weak.set weak 0 (Some db)
  in
  run_one_txn ();
  Gc.full_major ();
  check_bool "dropped database collected" true (Option.is_none (Weak.get weak 0))

(* The heavyweight end-to-end check: TPC-C on a Rolis cluster, crash the
   leader, and require full TPC-C consistency on the new leader. *)
let test_tpcc_on_cluster_with_failover () =
  let cfg =
    {
      Rolis.Config.default with
      Rolis.Config.workers = 4;
      cores = 8;
      batch_size = 20;
      costs = { Silo.Costs.default with Silo.Costs.txn_begin_ns = 100_000 };
      heartbeat_interval = 50 * ms;
      election_timeout = 300 * ms;
    }
  in
  let cluster = Rolis.Cluster.create cfg (Workload.Tpcc.app small_tpcc) in
  let eng = Rolis.Cluster.engine cluster in
  Sim.Engine.schedule eng (800 * ms) (fun () -> Rolis.Cluster.crash_replica cluster 0);
  Rolis.Cluster.run cluster ~duration:(3 * s) ();
  check_bool "released transactions" true
    (Rolis.Cluster.count cluster Rolis.Stats.Released > 50);
  match Rolis.Cluster.leader cluster with
  | None -> Alcotest.fail "no leader after failover"
  | Some r ->
      Alcotest.(check (list string))
        "TPC-C consistent on the new leader" []
        (Workload.Tpcc.consistency_errors small_tpcc (Rolis.Replica.db r))

let test_zipf_low_theta_near_uniform () =
  (* theta -> 0 approaches uniform: the head must not dominate. *)
  let z = Workload.Zipf.create ~n:100 ~theta:0.01 in
  let rng = Sim.Rng.create 3L in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let v = Workload.Zipf.next z rng in
    counts.(v) <- counts.(v) + 1
  done;
  (* Every cell within 3x of the uniform expectation (500). *)
  Array.iteri
    (fun i c ->
      if c > 1_500 then Alcotest.failf "cell %d overrepresented (%d)" i c)
    counts

let test_ycsb_standard_mixes () =
  check_bool "B mostly reads" true (Workload.Ycsb.workload_b.Workload.Ycsb.read_ratio > 0.9);
  check_bool "C read-only" true (Workload.Ycsb.workload_c.Workload.Ycsb.read_ratio = 1.0);
  (* A skewed run produces conflict aborts that the uniform run avoids. *)
  let run p =
    let r =
      Baselines.Silo_only.run ~cores:8 ~workers:8 ~duration:(100 * ms)
        ~app:(Workload.Ycsb.app { p with Workload.Ycsb.keys = 2_000 })
        ()
    in
    r.Baselines.Silo_only.conflict_aborts
  in
  let skewed = run { Workload.Ycsb.default with Workload.Ycsb.theta = Some 0.99 } in
  let uniform = run Workload.Ycsb.default in
  check_bool "skew raises conflicts" true (skewed > uniform)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "workload"
    [
      ( "row",
        [
          Alcotest.test_case "field ops" `Quick test_row_field_ops;
          qc row_roundtrip_qcheck;
          qc row_codec_qcheck;
        ]
      );
      ( "zipf",
        [
          Alcotest.test_case "bounds and skew" `Quick test_zipf_bounds_and_skew;
          Alcotest.test_case "low theta near uniform" `Quick
            test_zipf_low_theta_near_uniform;
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "setup and run" `Quick test_ycsb_setup_and_run;
          Alcotest.test_case "standard mixes" `Quick test_ycsb_standard_mixes;
          Alcotest.test_case "follower read" `Quick test_ycsb_read_op;
        ] );
      ( "tpcc",
        [
          Alcotest.test_case "fresh load consistent" `Quick test_tpcc_setup_consistent;
          Alcotest.test_case "each kind runs" `Quick test_tpcc_each_kind_runs;
          Alcotest.test_case "concurrent mix consistent" `Quick
            test_tpcc_concurrent_mix_consistent;
          Alcotest.test_case "skewed contention" `Quick test_tpcc_skewed_contention;
          Alcotest.test_case "dropped database releases its state" `Quick
            test_tpcc_state_released;
          Alcotest.test_case "cluster failover consistency" `Slow
            test_tpcc_on_cluster_with_failover;
        ] );
    ]
