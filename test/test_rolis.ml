(* End-to-end tests for the Rolis core: watermark laws, release/replay
   convergence, failover safety (the paper's Fig. 3 scenario), bootstrap. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Engine.ms
let s = Sim.Engine.s

(* ---------- Watermark (pure) ---------- *)

let test_watermark_min_law () =
  let wm = Rolis.Watermark.create ~streams:3 in
  check_bool "undefined before any entries" true
    (Rolis.Watermark.compute wm ~epoch:1 = None);
  Rolis.Watermark.note_durable wm ~stream:0 ~epoch:1 ~ts:10;
  Rolis.Watermark.note_durable wm ~stream:1 ~epoch:1 ~ts:7;
  check_bool "still undefined with a silent stream" true
    (Rolis.Watermark.compute wm ~epoch:1 = None);
  Rolis.Watermark.note_durable wm ~stream:2 ~epoch:1 ~ts:30;
  check_bool "min over streams" true (Rolis.Watermark.compute wm ~epoch:1 = Some 7);
  Rolis.Watermark.note_durable wm ~stream:1 ~epoch:1 ~ts:25;
  check_bool "grows with the laggard" true
    (Rolis.Watermark.compute wm ~epoch:1 = Some 10)

let test_watermark_monotone () =
  let wm = Rolis.Watermark.create ~streams:2 in
  Rolis.Watermark.note_durable wm ~stream:0 ~epoch:1 ~ts:10;
  Rolis.Watermark.note_durable wm ~stream:1 ~epoch:1 ~ts:10;
  let w1 = Rolis.Watermark.compute wm ~epoch:1 in
  (* Stale stamps are ignored. *)
  Rolis.Watermark.note_durable wm ~stream:0 ~epoch:1 ~ts:5;
  check_bool "stale durable ignored" true (Rolis.Watermark.compute wm ~epoch:1 = w1)

let test_watermark_epoch_sealing () =
  let wm = Rolis.Watermark.create ~streams:2 in
  Rolis.Watermark.note_durable wm ~stream:0 ~epoch:1 ~ts:34;
  Rolis.Watermark.note_durable wm ~stream:1 ~epoch:1 ~ts:21;
  check_bool "not sealed yet" false (Rolis.Watermark.is_sealed wm ~epoch:1);
  check_bool "no final watermark yet" true
    (Rolis.Watermark.final_watermark wm ~epoch:1 = None);
  (* Epoch-2 no-ops seal epoch 1 on both streams. *)
  Rolis.Watermark.note_durable wm ~stream:0 ~epoch:2 ~ts:100;
  check_bool "half sealed" false (Rolis.Watermark.is_sealed wm ~epoch:1);
  Rolis.Watermark.note_durable wm ~stream:1 ~epoch:2 ~ts:101;
  check_bool "sealed" true (Rolis.Watermark.is_sealed wm ~epoch:1);
  check_bool "final = min of sealed tails" true
    (Rolis.Watermark.final_watermark wm ~epoch:1 = Some 21);
  (* The Fig. 8 example: five streams, W = min(34,27,41,21,23) = 21. *)
  let wm8 = Rolis.Watermark.create ~streams:5 in
  List.iteri
    (fun i ts -> Rolis.Watermark.note_durable wm8 ~stream:i ~epoch:1 ~ts)
    [ 34; 27; 41; 21; 23 ];
  List.iteri
    (fun i _ -> Rolis.Watermark.note_durable wm8 ~stream:i ~epoch:2 ~ts:200)
    [ (); (); (); (); () ];
  check_bool "paper Fig. 8 watermark" true
    (Rolis.Watermark.final_watermark wm8 ~epoch:1 = Some 21)

let test_watermark_skipped_epoch () =
  let wm = Rolis.Watermark.create ~streams:2 in
  Rolis.Watermark.note_durable wm ~stream:0 ~epoch:1 ~ts:10;
  Rolis.Watermark.note_durable wm ~stream:1 ~epoch:1 ~ts:20;
  (* Stream 0 has entries in epoch 2; stream 1 jumps straight to 3. *)
  Rolis.Watermark.note_durable wm ~stream:0 ~epoch:2 ~ts:30;
  Rolis.Watermark.note_durable wm ~stream:0 ~epoch:3 ~ts:40;
  Rolis.Watermark.note_durable wm ~stream:1 ~epoch:3 ~ts:50;
  check_bool "epoch 2 sealed" true (Rolis.Watermark.is_sealed wm ~epoch:2);
  (* Stream 1 never wrote in epoch 2, so only stream 0 constrains it. *)
  check_bool "final for epoch 2" true
    (Rolis.Watermark.final_watermark wm ~epoch:2 = Some 30)

(* Random durability feeds: within one epoch the computed watermark must
   be monotone over time and always equal the min of per-stream maxima. *)
let watermark_qcheck =
  QCheck.Test.make ~name:"watermark = min of stream maxima, monotone" ~count:200
    QCheck.(list (pair (int_range 0 3) (int_range 1 1000)))
    (fun feed ->
      let wm = Rolis.Watermark.create ~streams:4 in
      let maxima = Array.make 4 0 in
      let last_w = ref None in
      List.for_all
        (fun (stream, ts) ->
          Rolis.Watermark.note_durable wm ~stream ~epoch:1 ~ts;
          maxima.(stream) <- max maxima.(stream) ts;
          let expected =
            if Array.exists (fun m -> m = 0) maxima then None
            else Some (Array.fold_left min max_int maxima)
          in
          let got = Rolis.Watermark.compute wm ~epoch:1 in
          let monotone =
            match (!last_w, got) with
            | Some prev, Some cur -> cur >= prev
            | Some _, None -> false
            | None, _ -> true
          in
          last_w := got;
          got = expected && monotone)
        feed)

(* Random multi-epoch feeds, checked against an independent model:
   - sealing is permanent — once [final_watermark ~epoch] is [Some w] it
     never changes or reverts to [None];
   - an absent stream does not constrain a sealed epoch (contributes
     max_int): the final watermark equals the min over the streams that
     actually wrote in that epoch, of their accepted maxima.
   The model tracks per-stream epochs so out-of-order stale feeds (an
   epoch below the stream's current one) are ignored, like the real
   durability pipeline. *)
let watermark_sealing_qcheck =
  QCheck.Test.make ~name:"sealing permanent; absent stream contributes max_int"
    ~count:300
    QCheck.(list (triple (int_range 0 2) (int_range 1 4) (int_range 1 1000)))
    (fun feed ->
      let streams = 3 and max_epoch = 4 in
      let wm = Rolis.Watermark.create ~streams in
      let model_epoch = Array.make streams 0 in
      let maxima : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
      let sealed_seen : (int, int) Hashtbl.t = Hashtbl.create 4 in
      List.for_all
        (fun (stream, epoch, ts) ->
          Rolis.Watermark.note_durable wm ~stream ~epoch ~ts;
          if epoch >= model_epoch.(stream) then begin
            model_epoch.(stream) <- epoch;
            let cur =
              match Hashtbl.find_opt maxima (stream, epoch) with
              | Some m -> m
              | None -> 0
            in
            Hashtbl.replace maxima (stream, epoch) (max cur ts)
          end;
          let ok = ref true in
          for e = 1 to max_epoch do
            match Rolis.Watermark.final_watermark wm ~epoch:e with
            | Some w ->
                let expected =
                  List.init streams Fun.id
                  |> List.filter_map (fun s -> Hashtbl.find_opt maxima (s, e))
                  |> List.fold_left min max_int
                in
                if w <> expected then ok := false;
                (match Hashtbl.find_opt sealed_seen e with
                | Some w0 -> if w <> w0 then ok := false
                | None -> Hashtbl.replace sealed_seen e w)
            | None -> if Hashtbl.mem sealed_seen e then ok := false
          done;
          !ok)
        feed)

(* The incremental min cache (cached min + count-at-min + undefined
   count) must be indistinguishable from the reference full fold,
   including across epoch switches and interleaved queries of different
   epochs. *)
let watermark_incremental_qcheck =
  QCheck.Test.make ~name:"incremental compute = reference scan" ~count:300
    QCheck.(list (triple (int_range 0 3) (int_range 1 3) (int_range 1 500)))
    (fun feed ->
      let wm = Rolis.Watermark.create ~streams:4 in
      List.for_all
        (fun (stream, epoch, ts) ->
          Rolis.Watermark.note_durable wm ~stream ~epoch ~ts;
          List.for_all
            (fun e ->
              Rolis.Watermark.compute wm ~epoch:e
              = Rolis.Watermark.compute_scan wm ~epoch:e)
            [ 1; 2; 3 ])
        feed)

(* What makes the event-driven release path affordable: repeated queries
   of a stable epoch cost O(1). A full rescan happens only when the
   unique minimum holder advances. *)
let test_watermark_scan_amortized () =
  let wm = Rolis.Watermark.create ~streams:4 in
  for s = 0 to 3 do
    Rolis.Watermark.note_durable wm ~stream:s ~epoch:1 ~ts:(s + 1)
  done;
  ignore (Rolis.Watermark.compute wm ~epoch:1);
  let scans0 = Rolis.Watermark.scan_count wm in
  (* Stream 0 stays the unique laggard: advancing the others updates the
     cache in place and never forces a rescan. *)
  for i = 1 to 100 do
    for s = 1 to 3 do
      Rolis.Watermark.note_durable wm ~stream:s ~epoch:1 ~ts:(100 + i)
    done;
    check_bool "min pinned at the laggard" true
      (Rolis.Watermark.compute wm ~epoch:1 = Some 1)
  done;
  check_int "no rescans while the min holder is unchanged" scans0
    (Rolis.Watermark.scan_count wm);
  (* Moving the laggard relocates the minimum: exactly one rescan. *)
  Rolis.Watermark.note_durable wm ~stream:0 ~epoch:1 ~ts:50;
  check_bool "watermark advanced" true
    (Rolis.Watermark.compute wm ~epoch:1 = Some 50);
  check_int "one rescan to relocate the min" (scans0 + 1)
    (Rolis.Watermark.scan_count wm)

(* ---------- cluster helpers ---------- *)

(* Slow, test-friendly cost model: ~50us per transaction keeps event
   counts small while exercising every code path. *)
let test_costs =
  { Silo.Costs.default with Silo.Costs.txn_begin_ns = 50_000; abort_ns = 5_000 }

let test_cfg ?(workers = 4) ?(batch = 50) () =
  {
    Rolis.Config.default with
    Rolis.Config.workers;
    cores = 8;
    batch_size = batch;
    costs = test_costs;
    physical_serialization = true;
    heartbeat_interval = 50 * ms;
    election_timeout = 300 * ms;
  }

(* Release commits summed over a cluster's replicas. *)
let cluster_released c = Rolis.Cluster.count c Rolis.Stats.Released

(* A transfer app over [accounts] accounts, each starting with
   [initial] units; every transaction moves a random amount between two
   random accounts inside one transaction — the paper's Fig. 3 workload.
   [stopped] freezes generation (the empty payload is a no-op body, as is
   a drawn self-transfer). *)
let transfer_app ~accounts ~initial ~stopped =
  let key i = Store.Keycodec.encode [ Store.Keycodec.I i ] in
  Rolis.App.make ~name:"transfer"
    ~setup:(fun db ->
      let t = Silo.Db.create_table db "accounts" in
      for i = 0 to accounts - 1 do
        Store.Table.insert t (key i) (Store.Record.make (string_of_int initial))
      done)
    ~payloads:(fun ~rng ~worker:_ () ->
      if !stopped then ""
      else
        let a = Sim.Rng.int rng accounts and b = Sim.Rng.int rng accounts in
        if a = b then "" else Printf.sprintf "%d %d %d" a b (1 + Sim.Rng.int rng 10))
    ~op:(fun db ~payload txn ->
      let t = Silo.Db.table db "accounts" in
      match String.split_on_char ' ' payload with
      | [ "" ] -> ()
      | [ a; b; amt ] ->
          let a = int_of_string a and b = int_of_string b in
          let amount = int_of_string amt in
          let bal k =
            match Silo.Txn.get txn t (key k) with
            | Some v -> int_of_string v
            | None -> Alcotest.failf "account %d missing" k
          in
          let va = bal a and vb = bal b in
          Silo.Txn.put txn t (key a) (string_of_int (va - amount));
          Silo.Txn.put txn t (key b) (string_of_int (vb + amount))
      | _ -> Alcotest.failf "bad transfer payload %S" payload)
    ~read_op:(fun db ~payload snap ->
      let t = Silo.Db.table db "accounts" in
      match Silo.Db.snap_get snap t (key (int_of_string payload)) with
      | Some v -> v
      | None -> string_of_int initial)
    ()

let total_money db ~accounts =
  let t = Silo.Db.table db "accounts" in
  let sum = ref 0 in
  for i = 0 to accounts - 1 do
    match Store.Table.get_live t (Store.Keycodec.encode [ Store.Keycodec.I i ]) with
    | Some r -> sum := !sum + int_of_string r.Store.Record.value
    | None -> Alcotest.failf "account %d missing" i
  done;
  !sum

let table_state db name =
  let t = Silo.Db.table db name in
  let acc = ref [] in
  Store.Table.iter t (fun k r ->
      if not (Store.Record.is_deleted r) then acc := (k, r.Store.Record.value) :: !acc);
  List.rev !acc

(* ---------- end-to-end ---------- *)

let test_basic_release () =
  let cfg = test_cfg () in
  let cluster = Rolis.Cluster.create cfg (Fixtures.counter_app ~keys:100) in
  (* No warm-up here: with a reset window, releases of pre-window
     executions would make the release/execute comparison meaningless. *)
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  let released = cluster_released cluster in
  check_bool "transactions released" true (released > 1_000);
  (match Rolis.Cluster.leader cluster with
  | Some r -> check_int "initial leader serves" 0 (Rolis.Replica.id r)
  | None -> Alcotest.fail "no serving leader");
  let lat = Rolis.Cluster.latency cluster in
  let p50 = Sim.Metrics.Hist.quantile lat 0.5 in
  check_bool "median latency sane (>0.5ms, <100ms)" true
    (p50 > ms / 2 && p50 < 100 * ms);
  (* Released never exceeds executed. *)
  check_bool "release <= execute" true
    (released <= Rolis.Cluster.count cluster Rolis.Stats.Executed)

let test_convergence_after_drain () =
  let stopped = ref false in
  let accounts = 50 in
  let cfg = test_cfg () in
  let app = transfer_app ~accounts ~initial:1_000 ~stopped in
  let cluster = Rolis.Cluster.create cfg app in
  (* The incremental backlog counter must agree with the reference fold
     at all times, not just after the drain: check mid-run under load. *)
  let check_backlog where =
    Array.iter
      (fun r ->
        check_int
          (Printf.sprintf "backlog counter = fold (%s, replica %d)" where
             (Rolis.Replica.id r))
          (Rolis.Replica.replay_backlog_scan r)
          (Rolis.Replica.replay_backlog r))
      (Rolis.Cluster.replicas cluster)
  in
  Sim.Engine.schedule (Rolis.Cluster.engine cluster) (500 * ms) (fun () ->
      check_backlog "mid-run");
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  stopped := true;
  (* Drain: heartbeat no-ops push the watermark past the last real txn;
     followers finish replay. *)
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  check_backlog "after drain";
  let leader_state = table_state (Rolis.Replica.db (Rolis.Cluster.replica cluster 0)) "accounts" in
  check_bool "some transfers happened" true
    (cluster_released cluster > 100);
  for i = 1 to 2 do
    let f = Rolis.Cluster.replica cluster i in
    (* Only the pipeline tail may still be queued: the freshest heartbeat
       no-op per stream, plus at most one entry whose timestamp the
       follower's (slightly lagging) watermark has not yet covered. *)
    check_bool
      (Printf.sprintf "follower %d drained to the pipeline tail" i)
      true
      (Rolis.Replica.replay_backlog f <= 2 * cfg.Rolis.Config.workers);
    check_bool
      (Printf.sprintf "follower %d state equals leader" i)
      true
      (table_state (Rolis.Replica.db f) "accounts" = leader_state)
  done;
  (* Money is conserved everywhere. *)
  Array.iter
    (fun r ->
      check_int "money conserved" (accounts * 1_000)
        (total_money (Rolis.Replica.db r) ~accounts))
    (Rolis.Cluster.replicas cluster)

let test_failover_money_conservation () =
  (* The Fig. 3 scenario: crash the leader mid-stream. The new leader must
     replay a consistent prefix — transfers are two-key transactions, so
     any torn or transitively-inconsistent replay breaks the total. *)
  let stopped = ref false in
  let accounts = 40 in
  let cfg = test_cfg () in
  let app = transfer_app ~accounts ~initial:500 ~stopped in
  let cluster = Rolis.Cluster.create cfg app in
  let eng = Rolis.Cluster.engine cluster in
  Sim.Engine.schedule eng (700 * ms) (fun () -> Rolis.Cluster.crash_replica cluster 0);
  Rolis.Cluster.run cluster ~duration:(3 * s) ();
  (* A new leader must have taken over and be serving. *)
  (match Rolis.Cluster.leader cluster with
  | Some r ->
      check_bool "new leader is a former follower" true (Rolis.Replica.id r <> 0);
      check_bool "epoch advanced" true
        (Paxos.Election.epoch (Rolis.Replica.election r) >= 2);
      check_int "money conserved on new leader" (accounts * 500)
        (total_money (Rolis.Replica.db r) ~accounts)
  | None -> Alcotest.fail "no leader after failover");
  (* And the cluster kept releasing transactions after the crash. *)
  let post_crash =
    List.filter (fun (t, rate) -> t > 1.2 && rate > 0.0) (Rolis.Cluster.release_rate cluster)
  in
  check_bool "throughput resumed after failover" true (post_crash <> [])

(* Straddling entries after a seal: single-transaction entries with a
   long watermark interval leave several entries per stream beyond the
   running watermark when the leader dies. After promotion seals the
   epoch, each of those entries must probe the final watermark and drain;
   a replay loop that waits on a durability event for every straddler
   after the first waits forever (no replica serves while promotion
   waits on replay), so replay stalls, the replay epoch never advances,
   and the cluster stays leaderless. *)
let test_failover_straddler_backlog () =
  let cfg =
    {
      (test_cfg ~workers:2 ~batch:1 ()) with
      Rolis.Config.watermark_interval = 100 * ms;
    }
  in
  (* Worker 1 stops committing after 300 ms: its stream's durable tail
     then only moves on heartbeat no-ops, so at the 700 ms crash the
     sealed epoch's final watermark (the min across stream tails) sits
     up to a heartbeat interval behind stream 0 — a dozen
     single-transaction entries straddle it, more than promotion's few
     post-seal durability commits can unlock one at a time. *)
  let app =
    let base = Fixtures.counter_app ~keys:200 in
    {
      base with
      Rolis.App.make_worker =
        (fun db ~rng ~worker ->
          let body = base.Rolis.App.make_worker db ~rng ~worker in
          fun txn ->
            if worker = 1 && Sim.Engine.time () > 300 * ms then Silo.Txn.abort ()
            else body txn);
    }
  in
  let cluster = Rolis.Cluster.create cfg app in
  let eng = Rolis.Cluster.engine cluster in
  Sim.Engine.schedule eng (700 * ms) (fun () ->
      Rolis.Cluster.crash_replica cluster 0);
  Rolis.Cluster.run cluster ~duration:(4 * s) ();
  (match Rolis.Cluster.leader cluster with
  | Some r ->
      check_bool "new leader is a former follower" true (Rolis.Replica.id r <> 0)
  | None -> Alcotest.fail "no leader after straddler-heavy failover");
  (* Every survivor replayed past the sealed epoch: a stalled seal probe
     pins the replay epoch at the crashed leader's epoch forever. *)
  Array.iter
    (fun r ->
      if Rolis.Replica.is_alive r then
        check_bool
          (Printf.sprintf "replica %d replay epoch advanced" (Rolis.Replica.id r))
          true
          (Rolis.Replica.replay_epoch r >= 2))
    (Rolis.Cluster.replicas cluster);
  let post_crash =
    List.filter
      (fun (t, rate) -> t > 1.5 && rate > 0.0)
      (Rolis.Cluster.release_rate cluster)
  in
  check_bool "throughput resumed after failover" true (post_crash <> [])

let test_failover_gap_then_recovery () =
  let cfg = test_cfg () in
  let cluster = Rolis.Cluster.create cfg (Fixtures.counter_app ~keys:200) in
  let eng = Rolis.Cluster.engine cluster in
  Sim.Engine.schedule eng (1 * s) (fun () -> Rolis.Cluster.crash_replica cluster 0);
  Rolis.Cluster.run cluster ~duration:(3 * s) ();
  let series = Rolis.Cluster.release_rate cluster in
  let rate_at t0 =
    match List.assoc_opt t0 series with Some r -> r | None -> 0.0
  in
  check_bool "busy before crash" true (rate_at 0.5 > 0.0);
  (* Election timeout is 300ms in the test config: there is a visible gap
     right after the crash. *)
  check_bool "gap right after crash" true (rate_at 1.2 = 0.0);
  let resumed = List.exists (fun (t, r) -> t > 1.3 && r > 0.0) series in
  check_bool "recovered within the run" true resumed

(* Durability of released results: everything the old leader released to
   clients must survive on the new leader. Counters only grow, so the sum
   of counters on the new leader must be at least the number of releases
   counted at crash time. *)
let test_released_results_survive_crash () =
  let cfg = test_cfg () in
  let cluster = Rolis.Cluster.create cfg (Fixtures.counter_app ~keys:100) in
  let eng = Rolis.Cluster.engine cluster in
  let released_at_crash = ref 0 in
  Sim.Engine.schedule eng (900 * ms) (fun () ->
      released_at_crash :=
        Rolis.Stats.get
          (Rolis.Replica.stats (Rolis.Cluster.replica cluster 0))
          Rolis.Stats.Released;
      Rolis.Cluster.crash_replica cluster 0);
  Rolis.Cluster.run cluster ~duration:(3 * s) ();
  match Rolis.Cluster.leader cluster with
  | None -> Alcotest.fail "no leader after crash"
  | Some r ->
      let t = Silo.Db.table (Rolis.Replica.db r) "counters" in
      let sum = ref 0 in
      Store.Table.iter t (fun _ rec_ ->
          if not (Store.Record.is_deleted rec_) then
            sum := !sum + int_of_string rec_.Store.Record.value);
      check_bool "released increments survived" true (!sum >= !released_at_crash);
      check_bool "sanity: something was released" true (!released_at_crash > 100)

let test_sharded_stream_mode () =
  let cfg =
    { (test_cfg ()) with Rolis.Config.stream_mode = Rolis.Config.Sharded 2 }
  in
  let stopped = ref false in
  let accounts = 30 in
  let app = transfer_app ~accounts ~initial:100 ~stopped in
  let cluster = Rolis.Cluster.create cfg app in
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  check_bool "sharded mode releases" true (cluster_released cluster > 200);
  stopped := true;
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  (* Convergence and conservation must hold with workers sharing streams. *)
  Array.iter
    (fun r ->
      check_int "money conserved (sharded)" (accounts * 100)
        (total_money (Rolis.Replica.db r) ~accounts))
    (Rolis.Cluster.replicas cluster)

let test_networked_clients_mode () =
  let cfg = { (test_cfg ()) with Rolis.Config.networked_clients = true } in
  let cluster = Rolis.Cluster.create cfg (Fixtures.counter_app ~keys:100) in
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  check_bool "networked mode releases" true (cluster_released cluster > 500);
  (* Client-observed latency includes the request/response round trip. *)
  let p50 = Sim.Metrics.Hist.quantile (Rolis.Cluster.latency cluster) 0.5 in
  check_bool "latency includes client RTT" true
    (p50 >= cfg.Rolis.Config.client_rtt)

let test_disable_replay_mode () =
  let cfg = { (test_cfg ()) with Rolis.Config.disable_replay = true } in
  let cluster = Rolis.Cluster.create cfg (Fixtures.counter_app ~keys:100) in
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  check_bool "leader throughput unaffected" true (cluster_released cluster > 500);
  (* Followers learn durability but never apply. *)
  let f = Rolis.Cluster.replica cluster 1 in
  check_int "follower applied nothing" 0
    (Rolis.Stats.get (Rolis.Replica.stats f) Rolis.Stats.Replayed_txns);
  let t = Silo.Db.table (Rolis.Replica.db f) "counters" in
  let all_zero = ref true in
  Store.Table.iter t (fun _ r -> if r.Store.Record.value <> "0" then all_zero := false);
  check_bool "follower data untouched" true !all_zero

let test_bulk_replay_convergence () =
  (* Event-driven entry-at-a-time replay: followers drain to the
     leader's exact state and every replica still conserves money — the
     transfer workload tears immediately if the sorted sweep merges,
     truncates, or re-applies anything wrongly. *)
  let stopped = ref false in
  let accounts = 50 in
  let cfg = test_cfg () in
  let cluster =
    Rolis.Cluster.create cfg (transfer_app ~accounts ~initial:1_000 ~stopped)
  in
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  (* Mid-run, the replayed frontier can never pass the durable one. *)
  Array.iter
    (fun r ->
      check_bool "replay frontier <= durable frontier" true
        (Rolis.Replica.replay_frontier r <= Rolis.Replica.durable_frontier r))
    (Rolis.Cluster.replicas cluster);
  stopped := true;
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  check_bool "bulk mode releases" true (cluster_released cluster > 100);
  let leader_state =
    table_state (Rolis.Replica.db (Rolis.Cluster.replica cluster 0)) "accounts"
  in
  for i = 1 to 2 do
    let f = Rolis.Cluster.replica cluster i in
    check_bool
      (Printf.sprintf "follower %d replayed in bulk" i)
      true
      (Rolis.Stats.get (Rolis.Replica.stats f) Rolis.Stats.Replayed_txns > 0);
    check_bool
      (Printf.sprintf "follower %d state equals leader" i)
      true
      (table_state (Rolis.Replica.db f) "accounts" = leader_state)
  done;
  Array.iter
    (fun r ->
      check_int "money conserved" (accounts * 1_000)
        (total_money (Rolis.Replica.db r) ~accounts))
    (Rolis.Cluster.replicas cluster);
  (* The lag telemetry sampled on the controller tick has data. *)
  match Rolis.Cluster.stage_summary cluster Rolis.Trace.Replay_lag with
  | Some (n, p50, p95, _) ->
      check_bool "lag samples accumulated" true (n > 0);
      check_bool "lag percentiles ordered" true (0 <= p50 && p50 <= p95)
  | None -> Alcotest.fail "no replay-lag samples"

let test_parallel_hash_replay_convergence () =
  (* Both new raw-speed knobs at once: intra-entry parallel bulk replay
     (4 ways) over a hash-indexed table. Correctness must be untouched —
     followers drain to the leader's exact state and money is conserved
     on every replica. *)
  let stopped = ref false in
  let accounts = 50 in
  let cfg =
    {
      (test_cfg ()) with
      Rolis.Config.replay_parallel = 4;
      hash_tables = [ "accounts" ];
    }
  in
  Rolis.Config.validate cfg;
  let cluster =
    Rolis.Cluster.create cfg (transfer_app ~accounts ~initial:1_000 ~stopped)
  in
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  stopped := true;
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  check_bool "parallel hash mode releases" true
    (cluster_released cluster > 100);
  let leader_db = Rolis.Replica.db (Rolis.Cluster.replica cluster 0) in
  check_bool "table is hash-indexed" true
    (Store.Table.repr (Silo.Db.table leader_db "accounts") = Store.Table.Hash);
  let leader_state = table_state leader_db "accounts" in
  for i = 1 to 2 do
    let f = Rolis.Cluster.replica cluster i in
    check_bool
      (Printf.sprintf "follower %d replayed" i)
      true
      (Rolis.Stats.get (Rolis.Replica.stats f) Rolis.Stats.Replayed_txns > 0);
    check_bool
      (Printf.sprintf "follower %d state equals leader" i)
      true
      (table_state (Rolis.Replica.db f) "accounts" = leader_state)
  done;
  Array.iter
    (fun r ->
      check_int "money conserved" (accounts * 1_000)
        (total_money (Rolis.Replica.db r) ~accounts))
    (Rolis.Cluster.replicas cluster)

let test_old_leader_tainted_on_partition () =
  let cfg = test_cfg () in
  let cluster = Rolis.Cluster.create cfg (Fixtures.counter_app ~keys:100) in
  let eng = Rolis.Cluster.engine cluster in
  (* Cut replica 0 (the leader) off from both followers. *)
  Sim.Engine.schedule eng (500 * ms) (fun () ->
      let net = Rolis.Cluster.network cluster in
      Sim.Net.partition net 0 1;
      Sim.Net.partition net 0 2);
  Rolis.Cluster.run cluster ~duration:(2 * s) ();
  let old_leader = Rolis.Cluster.replica cluster 0 in
  check_bool "old leader stopped serving" false (Rolis.Replica.is_serving old_leader);
  check_bool "old leader tainted" true (Rolis.Replica.is_tainted old_leader);
  match Rolis.Cluster.leader cluster with
  | Some r -> check_bool "new leader among survivors" true (Rolis.Replica.id r <> 0)
  | None -> Alcotest.fail "no new leader"

let test_single_stream_mode () =
  let cfg = { (test_cfg ~workers:4 ()) with Rolis.Config.stream_mode = Rolis.Config.Single } in
  let cluster = Rolis.Cluster.create cfg (Fixtures.counter_app ~keys:100) in
  Rolis.Cluster.run cluster ~warmup:(200 * ms) ~duration:(1 * s) ();
  check_bool "strawman releases transactions" true (cluster_released cluster > 500)

let test_restart_rejoin_convergence () =
  (* Crash a follower mid-run, restart it while the cluster is still under
     load: it rebuilds from the survivors' journals (per-stream union),
     closes the remaining gap over the fetch path, and must end up
     byte-identical to the leader after the drain. *)
  let stopped = ref false in
  let accounts = 40 in
  let cfg = { (test_cfg ()) with Rolis.Config.archive_entries = true } in
  let app = transfer_app ~accounts ~initial:300 ~stopped in
  let cluster = Rolis.Cluster.create cfg app in
  let eng = Rolis.Cluster.engine cluster in
  Sim.Engine.schedule eng (300 * ms) (fun () -> Rolis.Cluster.crash_replica cluster 2);
  Sim.Engine.schedule eng (800 * ms) (fun () -> Rolis.Cluster.restart_replica cluster 2);
  Rolis.Cluster.run cluster ~duration:(1_500 * ms) ();
  stopped := true;
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  check_bool "progress under churn" true (cluster_released cluster > 100);
  let r2 = Rolis.Cluster.replica cluster 2 in
  check_bool "restarted replica alive" true (Rolis.Replica.is_alive r2);
  let leader_state =
    table_state (Rolis.Replica.db (Rolis.Cluster.replica cluster 0)) "accounts"
  in
  check_bool "restarted replica equals leader" true
    (table_state (Rolis.Replica.db r2) "accounts" = leader_state);
  check_int "money conserved on restarted replica" (accounts * 300)
    (total_money (Rolis.Replica.db r2) ~accounts)

(* Paper §4.3: a new replica starts empty, is seeded while the cluster is
   under load, and converges by idempotent (epoch, ts) replay. With
   checkpoints off there is no image, so the dark spare (slot 3) is
   rebuilt from the union of the members' journals and then follows the
   live stream; after the drain it must equal a source replica exactly. *)
let test_bootstrap_new_replica () =
  let stopped = ref false in
  let accounts = 30 in
  let cfg =
    { (test_cfg ()) with Rolis.Config.archive_entries = true; spare_replicas = 1 }
  in
  let cluster = Rolis.Cluster.create cfg (transfer_app ~accounts ~initial:200 ~stopped) in
  let eng = Rolis.Cluster.engine cluster in
  let added = ref false in
  Sim.Engine.schedule eng (500 * ms) (fun () ->
      ignore
        (Sim.Engine.spawn eng ~name:"bootstrap" (fun () ->
             added := Rolis.Cluster.add_replica cluster 3)));
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  stopped := true;
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  check_bool "sync completed" true !added;
  check_bool "new replica is a member" true (List.mem 3 (Rolis.Cluster.members cluster));
  let new_db = Rolis.Replica.db (Rolis.Cluster.replica cluster 3) in
  check_int "money conserved on the new replica" (accounts * 200)
    (total_money new_db ~accounts);
  let src_db = Rolis.Replica.db (Rolis.Cluster.replica cluster 1) in
  check_bool "new replica equals source" true
    (table_state new_db "accounts" = table_state src_db "accounts")

(* A voluntary rebuild of a still-alive replica keeps its accepted but
   uncommitted slots: one may be the last copy of an entry committed at a
   since-dead leader. Leader 0's Accepts reach replica 1 only, and replica
   1's acks never return, so replica 1 alone accepts slots nobody commits.
   Crash the leader and rebuild replica 1 while it is alive: the old
   incarnation is a donor, so the rebuilt streams still hold those slots
   above their commit index. *)
let test_voluntary_restart_keeps_accepted () =
  let stopped = ref false in
  let cfg = { (test_cfg ()) with Rolis.Config.archive_entries = true } in
  let cluster =
    Rolis.Cluster.create cfg (transfer_app ~accounts:20 ~initial:100 ~stopped)
  in
  let net = Rolis.Cluster.network cluster in
  Rolis.Cluster.run cluster ~duration:(400 * ms) ();
  (match Rolis.Cluster.leader cluster with
  | Some l -> check_int "replica 0 leads" 0 (Rolis.Replica.id l)
  | None -> Alcotest.fail "no leader");
  Sim.Net.partition net 0 2;
  Sim.Net.partition_oneway net ~src:1 ~dst:0;
  Rolis.Cluster.run cluster ~duration:(100 * ms) ();
  let holds_accepted r =
    Array.exists
      (fun st -> Paxos.Stream.next_index st > Paxos.Stream.commit_index st + 1)
      (Rolis.Replica.streams r)
  in
  Rolis.Cluster.crash_replica cluster 0;
  check_bool "replica 1 still alive" true
    (Rolis.Replica.is_alive (Rolis.Cluster.replica cluster 1));
  Rolis.Cluster.restart_replica cluster 1;
  check_bool "rebuilt replica keeps its accepted tail" true
    (holds_accepted (Rolis.Cluster.replica cluster 1));
  check_bool "no other survivor holds it" false
    (holds_accepted (Rolis.Cluster.replica cluster 2))

(* ---------- one load per group ---------- *)

let load_tpcc =
  {
    Workload.Tpcc.default with
    Workload.Tpcc.warehouses = 2;
    items = 200;
    customers_per_district = 20;
    init_orders_per_district = 20;
  }

(* Every record of [db], field by field, each table in [iter] order. *)
let db_contents db =
  List.map
    (fun t ->
      let rows = ref [] in
      Store.Table.iter t (fun k (r : Store.Record.t) ->
          rows := (k, r.value, r.stamp, Store.Record.is_deleted r) :: !rows);
      (Store.Table.id t, Store.Table.name t, Store.Table.repr t, List.rev !rows))
    (Silo.Db.tables db)

let iter_records db f =
  List.iter (fun t -> Store.Table.iter t (fun _ r -> f r)) (Silo.Db.tables db)

(* No record is reachable from two databases. Each database stamps its
   own mark into every record's [stamp], in turn; a record shared with
   a database stamped later would then show that database's mark. The
   stamps are restored afterwards. *)
let records_disjoint dbs =
  let saved =
    List.map
      (fun db ->
        let vs = ref [] in
        iter_records db (fun r -> vs := r.Store.Record.stamp :: !vs);
        List.rev !vs)
      dbs
  in
  List.iteri
    (fun i db -> iter_records db (fun r -> r.Store.Record.stamp <- -1 - i))
    dbs;
  let ok = ref true in
  List.iteri
    (fun i db ->
      iter_records db (fun r -> if r.Store.Record.stamp <> -1 - i then ok := false))
    dbs;
  List.iter2
    (fun db vs ->
      let vs = ref vs in
      iter_records db (fun r ->
          match !vs with
          | v :: rest ->
              r.Store.Record.stamp <- v;
              vs := rest
          | [] -> assert false))
    dbs saved;
  !ok

(* Replica 0 loads; the other replicas, the spare too, copy its tables.
   Each must hold exactly what its own load would have, in records of its
   own — and so must a replica rebuilt by [restart_replica], which loads
   again. *)
let test_replicas_born_equal () =
  let cfg =
    {
      (test_cfg ~workers:2 ()) with
      Rolis.Config.spare_replicas = 1;
      hash_tables = [ "item" ];
    }
  in
  let cluster = Rolis.Cluster.create cfg (Workload.Tpcc.app load_tpcc) in
  let expected =
    let eng = Sim.Engine.create () in
    let db =
      Silo.Db.create eng (Sim.Cpu.create eng ~cores:1 ())
        ~hash_tables:cfg.Rolis.Config.hash_tables ()
    in
    Workload.Tpcc.setup load_tpcc db;
    db_contents db
  in
  let dbs () =
    Array.to_list (Array.map Rolis.Replica.db (Rolis.Cluster.replicas cluster))
  in
  check_int "pool" 4 (List.length (dbs ()));
  let born_equal what =
    List.iteri
      (fun i db ->
        check_bool (Printf.sprintf "%s: replica %d equals a fresh load" what i) true
          (db_contents db = expected))
      (dbs ());
    check_bool (what ^ ": no record shared") true (records_disjoint (dbs ()))
  in
  born_equal "at birth";
  Rolis.Cluster.restart_replica cluster 1;
  born_equal "after restart";
  (* The copies serve: a short run converges. *)
  Rolis.Cluster.run cluster ~duration:(300 * ms) ();
  check_bool "committed on the copies" true (cluster_released cluster > 0)

type Silo.Db.attachment += Test_loaded

let test_setup_attach_refused () =
  let base = Fixtures.counter_app ~keys:4 in
  let app =
    {
      base with
      Rolis.App.setup =
        (fun db ->
          base.Rolis.App.setup db;
          Silo.Db.attach db Test_loaded);
    }
  in
  match Rolis.Cluster.create (test_cfg ()) app with
  | _ -> Alcotest.fail "a setup that attaches state was accepted"
  | exception Invalid_argument _ -> ()

(* ---------- batching ---------- *)

(* Drive a standalone batcher over a schedule of inter-submit gaps (ts is
   the submit index) to quiescence. Returns the flushed entries in
   chronological order with their flush times, the submit time of every
   ts, and whether the concatenated ts run is exactly 1..n — lossless and
   monotone per stream. *)
let drive_batcher cfg gaps =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:2 () in
  let stats = Rolis.Stats.create eng in
  let trace = Rolis.Trace.create eng ~stats ~workers:1 ~sample_interval:0 ~capacity:8 in
  let flushed = ref [] in
  (* (flush time, entry), newest first *)
  let b =
    Rolis.Batcher.create cfg ~cpu ~stats ~trace
      ~epoch:(fun () -> 1)
      ~propose:(fun e -> flushed := (Sim.Engine.now eng, e) :: !flushed)
      ~shared:false ()
  in
  let submit_at = Hashtbl.create 64 in
  let last = ref 0 in
  List.iteri
    (fun i gap ->
      last := !last + gap;
      let at = !last and ts = i + 1 in
      Hashtbl.replace submit_at ts at;
      Sim.Engine.schedule eng at (fun () ->
          Rolis.Batcher.submit b { Store.Wire.ts; req = None; decision = None; writes = [] }))
    gaps;
  Sim.Engine.run eng;
  let entries = List.rev !flushed in
  let ts_order =
    List.concat_map
      (fun (_, e) ->
        List.map (fun (t : Store.Wire.txn_log) -> t.Store.Wire.ts) e.Store.Wire.txns)
      entries
  in
  (entries, submit_at, ts_order = List.init (List.length gaps) (fun i -> i + 1))

(* The per-batch deadline: the first batch (no
   rate estimate yet, target 1) leaves at once and cancels its deadline;
   the second (target 20 after a 100 us gap) neither fills nor is flushed
   early, so its deadline event flushes it exactly one budget after its
   submit. *)
let test_batcher_deadline_flush () =
  let cfg = test_cfg ~workers:1 ~batch:100 () in
  let target = cfg.Rolis.Config.target_batch_delay_ns in
  let c0 = Sim.Engine.cancelled () in
  let gap = 100 * Sim.Engine.us in
  let entries, submit_at, lossless = drive_batcher cfg [ gap; gap ] in
  check_bool "lossless" true lossless;
  Alcotest.(check (list (pair int int)))
    "flush times and sizes"
    [ (Hashtbl.find submit_at 1, 1); (Hashtbl.find submit_at 2 + target, 1) ]
    (List.map (fun (at, e) -> (at, List.length e.Store.Wire.txns)) entries);
  check_int "first deadline cancelled" 1 (Sim.Engine.cancelled () - c0)

(* Over random arrival schedules every submitted transaction is flushed
   exactly once and in order, and none waits in a batch longer than
   target_batch_delay_ns: the per-batch deadline event guarantees it. *)
let batcher_adaptive_qcheck =
  QCheck.Test.make ~name:"adaptive batching: bounded delay, monotone, lossless"
    ~count:60
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 0 (3 * ms)))
    (fun gaps ->
      let cfg = test_cfg ~workers:1 ~batch:100 () in
      let target = cfg.Rolis.Config.target_batch_delay_ns in
      let entries, submit_at, lossless = drive_batcher cfg gaps in
      lossless
      && List.for_all
           (fun (at, e) ->
             List.for_all
               (fun (t : Store.Wire.txn_log) ->
                 at - Hashtbl.find submit_at t.Store.Wire.ts <= target)
               e.Store.Wire.txns)
           entries)

(* The paper's static point is the same batcher with a budget at or
   above the fill time and a byte cap that does not bind: once the stream
   has a rate estimate (the first entry goes out alone), every entry but
   the last carries exactly [batch_size] transactions. *)
let batcher_static_qcheck =
  QCheck.Test.make ~name:"static budget: every full entry carries batch_size"
    ~count:60
    QCheck.(
      pair (int_range 1 20) (list_of_size Gen.(int_range 1 60) (int_range 1 (3 * ms))))
    (fun (batch, gaps) ->
      let cfg =
        {
          (test_cfg ~workers:1 ~batch ()) with
          Rolis.Config.target_batch_delay_ns = batch * 3 * ms;
        }
      in
      let entries, _, lossless = drive_batcher cfg gaps in
      let sizes = List.map (fun (_, e) -> List.length e.Store.Wire.txns) entries in
      let rec full = function
        | [] -> true
        | [ last ] -> last >= 1 && last <= batch
        | n :: rest -> n = batch && full rest
      in
      lossless && match sizes with first :: rest -> first = 1 && full rest | [] -> false)

(* Goldens of the one batching path: released/executed counts and
   latency quantiles captured when the latency-budget batcher became the
   only path, and re-captured when promotion became event-driven (the
   initial leader now serves once its Prepare round completes instead of
   at a 5 ms poll; pinning that poll back reproduces the old values
   exactly). Any virtual-time drift in batching, release or coalescing
   shows up here as an exact mismatch. *)
let check_golden name cfg app ~duration ~golden =
  let g_released, g_executed, g_p50, g_p95 = golden in
  let cluster = Rolis.Cluster.create cfg app in
  Rolis.Cluster.run cluster ~duration ();
  let lat = Rolis.Cluster.latency cluster in
  check_int (name ^ ": released") g_released (cluster_released cluster);
  check_int (name ^ ": executed") g_executed
    (Rolis.Cluster.count cluster Rolis.Stats.Executed);
  check_int (name ^ ": p50") g_p50 (Sim.Metrics.Hist.quantile lat 0.5);
  check_int (name ^ ": p95") g_p95 (Sim.Metrics.Hist.quantile lat 0.95)

let test_golden_counter () =
  check_golden "counter" (test_cfg ())
    (Fixtures.counter_app ~keys:100)
    ~duration:(1 * s)
    ~golden:(57417, 57485, 1523149, 2067312)

let test_golden_tpcc () =
  let workers = 4 in
  let app =
    Workload.Tpcc.app (Workload.Tpcc.with_warehouses Workload.Tpcc.default workers)
  in
  let cfg = { Rolis.Config.default with Rolis.Config.workers; cores = 8 } in
  check_golden "tpcc" cfg app ~duration:(200 * ms)
    ~golden:(41853, 41922, 1374894, 1926006)

(* The acceptance criterion: at low/medium load a 2 ms budget must cut
   TPC-C release latency at least 2x against the static point — fixed-size
   batches, from a budget and byte cap that never bind at the default
   batch size. *)
let test_budget_p50_win () =
  let run ~target ~max_bytes =
    let workers = 2 in
    let cfg =
      {
        Rolis.Config.default with
        Rolis.Config.workers;
        cores = 8;
        target_batch_delay_ns = target;
        max_batch_bytes = max_bytes;
      }
    in
    let app =
      Workload.Tpcc.app
        (Workload.Tpcc.with_warehouses Workload.Tpcc.default workers)
    in
    let cluster = Rolis.Cluster.create cfg app in
    Rolis.Cluster.run cluster ~warmup:(150 * ms) ~duration:(100 * ms) ();
    cluster
  in
  let default = Rolis.Config.default in
  let static =
    run ~target:(100 * ms)
      ~max_bytes:(default.Rolis.Config.batch_size * Rolis.Config.max_txn_bytes)
  in
  let budget = run ~target:(2 * ms) ~max_bytes:default.Rolis.Config.max_batch_bytes in
  let p50 c = Sim.Metrics.Hist.quantile (Rolis.Cluster.latency c) 0.5 in
  check_bool "both made progress" true
    (cluster_released static > 500 && cluster_released budget > 500);
  check_bool
    (Printf.sprintf "2 ms budget p50 (%d ns) at least 2x below static (%d ns)"
       (p50 budget) (p50 static))
    true
    (2 * p50 budget <= p50 static);
  (* The event-driven machinery actually carried the run. *)
  let st = Rolis.Replica.stats (Rolis.Cluster.replica budget 0) in
  check_bool "deadline flushes observed" true
    (Rolis.Stats.get st Rolis.Stats.Deadline_flushes > 0);
  check_bool "event-driven releases observed" true
    (Rolis.Stats.get st Rolis.Stats.Event_releases > 0)

(* End-to-end safety of the batching path: leader crash mid-run,
   then drain — money conserved on every survivor, and the incremental
   backlog counter still agrees with the reference fold after the
   failover churn (clear/step-down paths included). *)
let test_adaptive_failover_conservation () =
  let stopped = ref false in
  let accounts = 40 in
  let cfg = test_cfg () in
  let app = transfer_app ~accounts ~initial:500 ~stopped in
  let cluster = Rolis.Cluster.create cfg app in
  let eng = Rolis.Cluster.engine cluster in
  Sim.Engine.schedule eng (700 * ms) (fun () -> Rolis.Cluster.crash_replica cluster 0);
  Rolis.Cluster.run cluster ~duration:(2 * s) ();
  stopped := true;
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  (match Rolis.Cluster.leader cluster with
  | Some r ->
      check_bool "new leader took over" true (Rolis.Replica.id r <> 0);
      check_int "money conserved on the new leader" (accounts * 500)
        (total_money (Rolis.Replica.db r) ~accounts)
  | None -> Alcotest.fail "no leader after failover");
  Array.iter
    (fun r ->
      if Rolis.Replica.is_alive r then begin
        check_int "money conserved" (accounts * 500)
          (total_money (Rolis.Replica.db r) ~accounts);
        check_int
          (Printf.sprintf "replica %d backlog counter = fold" (Rolis.Replica.id r))
          (Rolis.Replica.replay_backlog_scan r)
          (Rolis.Replica.replay_backlog r)
      end)
    (Rolis.Cluster.replicas cluster)

(* ---------- config validation ---------- *)

let expect_invalid name cfg =
  match Rolis.Config.validate cfg with
  | () -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_config_validate_timing () =
  let ok = test_cfg () in
  Rolis.Config.validate ok;
  expect_invalid "heartbeat = election timeout"
    { ok with Rolis.Config.heartbeat_interval = ok.Rolis.Config.election_timeout };
  expect_invalid "heartbeat > election timeout"
    { ok with Rolis.Config.heartbeat_interval = 2 * ok.Rolis.Config.election_timeout };
  expect_invalid "heartbeat zero" { ok with Rolis.Config.heartbeat_interval = 0 };
  expect_invalid "negative client rtt" { ok with Rolis.Config.client_rtt = -1 };
  expect_invalid "negative client rpc overhead"
    { ok with Rolis.Config.client_rpc_overhead = -1 }

let test_config_validate_clients () =
  let ok = test_cfg () in
  expect_invalid "negative clients" { ok with Rolis.Config.clients = -1 };
  (* Session knobs are only constrained once sessions exist... *)
  Rolis.Config.validate { ok with Rolis.Config.client_timeout = 0 };
  Rolis.Config.validate { ok with Rolis.Config.admission_max_pending = 0 };
  (* ...then every one of them is. *)
  let on = { ok with Rolis.Config.clients = 4 } in
  Rolis.Config.validate on;
  expect_invalid "client timeout zero" { on with Rolis.Config.client_timeout = 0 };
  expect_invalid "retry limit zero" { on with Rolis.Config.client_retry_limit = 0 };
  expect_invalid "admission pending zero" { on with Rolis.Config.admission_max_pending = 0 }

let test_config_validate_batching () =
  let ok = test_cfg () in
  Rolis.Config.validate ok;
  expect_invalid "target delay zero"
    { ok with Rolis.Config.target_batch_delay_ns = 0 };
  expect_invalid "negative target delay"
    { ok with Rolis.Config.target_batch_delay_ns = -ms };
  expect_invalid "byte cap below one max-size transaction"
    { ok with Rolis.Config.max_batch_bytes = Rolis.Config.max_txn_bytes - 1 };
  Rolis.Config.validate
    { ok with Rolis.Config.max_batch_bytes = Rolis.Config.max_txn_bytes }

let test_config_validate_checkpoint () =
  let ok = test_cfg () in
  let on =
    {
      ok with
      Rolis.Config.checkpoint_interval = 500 * ms;
      archive_entries = true;
      checkpoint_retention = ok.Rolis.Config.election_timeout;
    }
  in
  Rolis.Config.validate on;
  expect_invalid "negative interval"
    { ok with Rolis.Config.checkpoint_interval = -1 };
  expect_invalid "interval at watermark tick"
    { on with Rolis.Config.checkpoint_interval = ok.Rolis.Config.watermark_interval };
  expect_invalid "checkpointing without archived journal"
    { on with Rolis.Config.archive_entries = false };
  expect_invalid "retention under election timeout"
    { on with Rolis.Config.checkpoint_retention = ok.Rolis.Config.election_timeout - 1 };
  (* The checkpoint knobs are unconstrained while checkpointing is off. *)
  Rolis.Config.validate { ok with Rolis.Config.checkpoint_retention = 0 }

let test_config_validate_replay () =
  let ok = test_cfg () in
  Rolis.Config.validate ok;
  expect_invalid "replay fan-out zero" { ok with Rolis.Config.replay_parallel = 0 };
  expect_invalid "negative replay fan-out"
    { ok with Rolis.Config.replay_parallel = -2 };
  Rolis.Config.validate { ok with Rolis.Config.replay_parallel = 4 };
  Rolis.Config.validate { ok with Rolis.Config.hash_tables = [ "item"; "usertable" ] };
  expect_invalid "duplicate hash table"
    { ok with Rolis.Config.hash_tables = [ "item"; "usertable"; "item" ] }

let test_config_validate_reconfig () =
  let ok = test_cfg () in
  Rolis.Config.validate ok;
  (* A deployment with spare slots and a raised floor is legal... *)
  Rolis.Config.validate
    { ok with Rolis.Config.spare_replicas = 2; min_members = 2 };
  (* ...and each reconfiguration knob is individually constrained. *)
  expect_invalid "negative spare slots" { ok with Rolis.Config.spare_replicas = -1 };
  expect_invalid "membership floor zero" { ok with Rolis.Config.min_members = 0 };
  expect_invalid "membership floor above initial voters"
    { ok with Rolis.Config.min_members = ok.Rolis.Config.replicas + 1 }

(* ---------- client sessions ---------- *)

(* The exactly-once release-visibility case from the issue: the leader
   dies the instant its first client transaction becomes durable — i.e.
   after commit but before the release pass could ack it. The client must
   never see that ack from the dead leader; its retry against the new
   leader must succeed exactly once (either the entry was below the final
   watermark and replay rebuilt the session table, answering from cache,
   or it was above and the retry re-executes fresh). *)
let test_release_visibility_across_crash () =
  let stopped = ref false in
  let accounts = 20 in
  let cfg =
    { (test_cfg ()) with Rolis.Config.clients = 4; archive_entries = true }
  in
  let cluster = ref None in
  let sessions = ref [||] in
  let sum f = Array.fold_left (fun a c -> a + f c) 0 !sessions in
  let crash_fired = ref false in
  let acked_at_crash = ref (-1) in
  let on_durable ~replica ~stream:_ ~idx:_ (e : Store.Wire.entry) =
    if
      (not !crash_fired)
      && replica = 0
      && List.exists
           (fun (t : Store.Wire.txn_log) -> t.Store.Wire.req <> None)
           e.Store.Wire.txns
    then begin
      crash_fired := true;
      match !cluster with
      | Some c ->
          Sim.Engine.schedule (Rolis.Cluster.engine c) 0 (fun () ->
              acked_at_crash := sum Rolis.Client.acked_count;
              Rolis.Cluster.crash_replica c 0)
      | None -> ()
    end
  in
  let c =
    Rolis.Cluster.create ~on_durable cfg (transfer_app ~accounts ~initial:1_000 ~stopped)
  in
  cluster := Some c;
  let eng = Rolis.Cluster.engine c and net = Rolis.Cluster.network c in
  sessions :=
    Array.init cfg.Rolis.Config.clients (fun cid ->
        let crng = Sim.Rng.split (Sim.Engine.rng eng) in
        Rolis.Client.spawn net ~cfg ~cid ~stopped
          ~gen:(fun () -> Rolis.Chaos.bank_payload crng ~accounts)
          ());
  Rolis.Cluster.run c ~duration:(4 * s) ();
  check_bool "leader crashed on its first durable client txn" true !crash_fired;
  check_int "nothing was acked before the crash" 0 !acked_at_crash;
  (match Rolis.Cluster.leader c with
  | Some r -> check_bool "failover happened" true (Rolis.Replica.id r <> 0)
  | None -> Alcotest.fail "no leader after the crash");
  check_bool "acks resumed through the new leader" true
    (sum Rolis.Client.acked_count > 0);
  (* Quiesce, then audit every ack against the union durable log. *)
  stopped := true;
  Rolis.Cluster.run c ~duration:(2_500 * ms) ();
  let acked = Array.to_list !sessions |> List.concat_map Rolis.Client.acked_seqs in
  check_bool "sanity: something was acked" true (acked <> []);
  let viols = Rolis.Check.exactly_once c ~acked in
  if viols <> [] then
    Alcotest.failf "exactly-once violated: %s"
      (String.concat "; "
         (List.map (fun v -> v.Rolis.Check.detail) viols));
  check_bool "money conserved on the new leader" true
    (match Rolis.Cluster.leader c with
    | Some r -> total_money (Rolis.Replica.db r) ~accounts = accounts * 1_000
    | None -> false)

(* A leader announcement ends a write session's wait. Scripted replicas
   stand in for the cluster so every resend time is exact: each scenario
   names the replica the session first targets (node 0, hinted from its
   cid), what that replica answers, and when replica [leader] announces
   itself. The session must resend to the announced leader at once —
   whether it was napping through a Busy backoff, a park, or waiting on
   a leader that died — and an ack that lands during a nap must still
   complete the request, exactly once. *)
let test_announcement_ends_nap () =
  let lat = 50 * Sim.Engine.us in
  let scenario name ?(retry_limit = 10) ~first ~announce_at ~leader ~expect_by () =
    let cfg =
      { (test_cfg ()) with Rolis.Config.clients = 1; client_retry_limit = retry_limit }
    in
    let eng = Sim.Engine.create ~seed:5L () in
    let pool = Rolis.Config.pool cfg in
    let net = Sim.Net.create eng ~nodes:(pool + 1) ~latency:(Sim.Net.Fixed lat) in
    let reqs = ref [] in
    for node = 0 to pool - 1 do
      ignore
        (Sim.Engine.spawn eng (fun () ->
             while true do
               match (Sim.Net.recv net node).Paxos.Msg.body with
               | Paxos.Msg.Client_req { cid; seq; _ } ->
                   reqs := (Sim.Engine.time (), node) :: !reqs;
                   let reply r =
                     Sim.Net.send net ~src:node ~dst:(pool + cid)
                       { Paxos.Msg.from = node; body = Paxos.Msg.Client_rep { cid; seq; reply = r } }
                   in
                   if node = leader then reply Paxos.Msg.Ok_released
                   else if List.length !reqs = 1 then List.iter reply first
               | _ -> ()
             done))
    done;
    Sim.Engine.schedule eng announce_at (fun () ->
        Sim.Net.send net ~src:leader ~dst:pool
          {
            Paxos.Msg.from = leader;
            body = Paxos.Msg.Elect (Paxos.Msg.Heartbeat { epoch = 2; leader });
          });
    let session = Rolis.Client.create net ~cfg ~cid:0 () in
    let outcome = ref None in
    ignore
      (Sim.Engine.spawn eng (fun () ->
           let r = Rolis.Client.request session "op" in
           outcome := Some (r, Sim.Engine.time ())));
    Sim.Engine.run ~until:(2 * s) eng;
    let name what = Printf.sprintf "%s: %s" name what in
    (match !outcome with
    | Some (`Ok, t) -> check_bool (name "acked in time") true (t <= expect_by)
    | Some ((`Aborted | `Stopped), _) | None -> Alcotest.fail (name "request not acked"));
    check_bool (name "acked exactly once") true (Rolis.Client.acked_seqs session = [ (0, 1) ]);
    List.rev !reqs
  in
  let resent_at_once name reqs ~leader ~announce_at =
    match List.filter (fun (_, node) -> node = leader) reqs with
    | (t, _) :: _ ->
        check_bool (name ^ ": resent on the announcement") true
          (t - announce_at <= (2 * lat) + Sim.Engine.us)
    | [] -> Alcotest.failf "%s: never resent to the announced leader" name
  in
  (* Busy, then an announcement 2 ms into the 10-20 ms backoff. *)
  let reqs =
    scenario "backoff" ~first:[ Paxos.Msg.Busy ] ~announce_at:(2 * ms) ~leader:1
      ~expect_by:(3 * ms) ()
  in
  resent_at_once "backoff" reqs ~leader:1 ~announce_at:(2 * ms);
  (* The first replica is dead: its 100 ms reply timeout, a backoff and
     then a 200-300 ms park follow; the announcement lands mid-park. *)
  let reqs =
    scenario "park" ~retry_limit:1 ~first:[] ~announce_at:(200 * ms) ~leader:2
      ~expect_by:(201 * ms) ()
  in
  resent_at_once "park" reqs ~leader:2 ~announce_at:(200 * ms);
  (* Waiting on a dead leader: resend without sitting out the timeout. *)
  let reqs =
    scenario "dead leader" ~first:[] ~announce_at:(30 * ms) ~leader:1
      ~expect_by:(31 * ms) ()
  in
  resent_at_once "dead leader" reqs ~leader:1 ~announce_at:(30 * ms);
  (* Busy, then the replica's own late ack arrives during the backoff and
     no announcement comes: the stashed ack completes the request. *)
  let reqs =
    scenario "ack during nap" ~first:[ Paxos.Msg.Busy; Paxos.Msg.Ok_released ]
      ~announce_at:(3 * s) ~leader:2 ~expect_by:(25 * ms) ()
  in
  check_bool "ack during nap: resent once, to the same replica" true
    (List.map snd reqs = [ 0; 0 ])

(* Failover end to end: small TPC-C under 8 sessions, crash the leader
   at 0.3 s. With election timers checked only on the heartbeat tick,
   deployment seeds 42 and 1070 went more than 3 s without service
   (1070's drivers did not even quiesce); seed 7 served again after
   1.1 s. Each must now serve again within 2 s of the crash, and every
   ack stays exactly-once. *)
let test_tpcc_failover_serves () =
  let warehouses = 4 in
  let p =
    {
      (Workload.Tpcc.with_warehouses Workload.Tpcc.default warehouses) with
      Workload.Tpcc.items = 1_000;
      customers_per_district = 30;
      init_orders_per_district = 30;
    }
  in
  let router = Rolis.Router.tpcc ~warehouses ~shards:1 in
  List.iter
    (fun seed ->
      let cfg =
        {
          Rolis.Config.default with
          Rolis.Config.workers = 4;
          cores = 8;
          batch_size = 64;
          clients = 8;
          archive_entries = true;
          seed = Int64.of_int seed;
        }
      in
      let dep =
        Rolis.Shard.create ~veto:(Workload.Tpcc.veto p) cfg router
          (fun ~shard:_ -> Workload.Tpcc.client_app p)
          ~gen:(fun ~rng ~driver:_ -> Workload.Tpcc.shard_gen p router ~cross_pct:0.0 ~rng)
      in
      let c = (Rolis.Shard.clusters dep).(0) in
      let crash_at = 300 * ms in
      Rolis.Shard.run dep ~duration:crash_at ();
      let old = Option.get (Rolis.Cluster.leader c) in
      Rolis.Cluster.crash_replica c (Rolis.Replica.id old);
      (* Service is back once a new leader serves and commits. *)
      let serving_since = ref None and resumed = ref None in
      while !resumed = None && Sim.Engine.now (Rolis.Shard.engine dep) < crash_at + (3 * s) do
        Rolis.Shard.run dep ~duration:(10 * ms) ();
        let now = Sim.Engine.now (Rolis.Shard.engine dep) in
        match (!serving_since, Rolis.Cluster.leader c) with
        | None, Some _ -> serving_since := Some (Rolis.Shard.committed dep)
        | Some n, Some _ when Rolis.Shard.committed dep > n -> resumed := Some now
        | _ -> ()
      done;
      (match !resumed with
      | Some t ->
          check_bool
            (Printf.sprintf "seed %d: serving again %d ms after the crash" seed
               ((t - crash_at) / ms))
            true
            (t - crash_at <= 2 * s)
      | None -> Alcotest.failf "seed %d: no service within 3 s of the crash" seed);
      check_bool "drivers quiesced" true (Rolis.Shard.quiesce dep);
      match Rolis.Check.exactly_once c ~acked:(Rolis.Shard.acked_seqs dep 0) with
      | [] -> ()
      | viols ->
          Alcotest.failf "seed %d: exactly-once violated: %s" seed
            (String.concat "; " (List.map (fun v -> v.Rolis.Check.detail) viols)))
    [ 42; 1070; 7 ]

(* Admission control: with a starved admission queue the leader answers
   [Busy] instead of buffering unboundedly; clients back off and retry,
   and backpressure never costs exactly-once. *)
let test_admission_backpressure () =
  let stopped = ref false in
  let accounts = 20 in
  let cfg =
    {
      (test_cfg ()) with
      Rolis.Config.clients = 6;
      client_timeout = 50 * ms;
      admission_max_pending = 1;
      archive_entries = true;
    }
  in
  let c = Rolis.Cluster.create cfg (transfer_app ~accounts ~initial:1_000 ~stopped) in
  let eng = Rolis.Cluster.engine c and net = Rolis.Cluster.network c in
  let sessions =
    Array.init cfg.Rolis.Config.clients (fun cid ->
        let crng = Sim.Rng.split (Sim.Engine.rng eng) in
        Rolis.Client.spawn net ~cfg ~cid ~stopped
          ~gen:(fun () -> Rolis.Chaos.bank_payload crng ~accounts)
          ())
  in
  Rolis.Cluster.run c ~duration:(1 * s) ();
  stopped := true;
  Rolis.Cluster.run c ~duration:(1_500 * ms) ();
  let sum f = Array.fold_left (fun a cl -> a + f cl) 0 sessions in
  check_bool "leader pushed back" true (sum Rolis.Client.busy_replies > 0);
  check_bool "clients still made progress" true (sum Rolis.Client.acked_count > 0);
  let acked = Array.to_list sessions |> List.concat_map Rolis.Client.acked_seqs in
  let viols = Rolis.Check.exactly_once c ~acked in
  if viols <> [] then
    Alcotest.failf "exactly-once violated under backpressure: %s"
      (String.concat "; " (List.map (fun v -> v.Rolis.Check.detail) viols));
  Array.iter
    (fun r ->
      if Rolis.Replica.is_alive r then
        check_int "money conserved" (accounts * 1_000)
          (total_money (Rolis.Replica.db r) ~accounts))
    (Rolis.Cluster.replicas c)

(* ---------- follower reads ---------- *)

(* End to end: read-only sessions mixed with write sessions; followers
   serve snapshot reads under leases, the audited read sample passes the
   snapshot oracle, and money stays conserved with the read traffic on. *)
let test_follower_reads_e2e () =
  let stopped = ref false in
  let accounts = 40 in
  let cfg =
    {
      (test_cfg ()) with
      Rolis.Config.clients = 4;
      follower_reads = true;
      read_lease = 150 * ms;
      archive_entries = true;
    }
  in
  let c = Rolis.Cluster.create cfg (transfer_app ~accounts ~initial:1_000 ~stopped) in
  let eng = Rolis.Cluster.engine c and net = Rolis.Cluster.network c in
  (* cids 0-1 write transfers; cids 2-3 are read-only balance readers. *)
  let writers =
    Array.init 2 (fun cid ->
        let crng = Sim.Rng.split (Sim.Engine.rng eng) in
        Rolis.Client.spawn net ~cfg ~cid ~stopped
          ~gen:(fun () -> Rolis.Chaos.bank_payload crng ~accounts)
          ())
  in
  let ro_stopped = ref false in
  let readers =
    Array.init 2 (fun i ->
        let crng = Sim.Rng.split (Sim.Engine.rng eng) in
        Rolis.Client.spawn net ~cfg ~cid:(2 + i) ~stopped:ro_stopped ~ro:true
          ~stats:(Rolis.Cluster.client_read_stats c)
          ~gen:(fun () -> string_of_int (Sim.Rng.int crng accounts))
          ())
  in
  Rolis.Cluster.run c ~duration:(3 * s) ();
  stopped := true;
  ro_stopped := true;
  Rolis.Cluster.run c ~duration:(1 * s) ();
  let sum arr f = Array.fold_left (fun a cl -> a + f cl) 0 arr in
  check_bool "write sessions acked" true (sum writers Rolis.Client.acked_count > 0);
  check_bool "read sessions acked" true (sum readers Rolis.Client.acked_count > 0);
  let leader_id =
    match Rolis.Cluster.leader c with
    | Some r -> Rolis.Replica.id r
    | None -> Alcotest.fail "no leader"
  in
  let follower_served =
    Array.fold_left
      (fun a r ->
        if Rolis.Replica.id r = leader_id then a
        else a + Rolis.Stats.get (Rolis.Replica.stats r) Rolis.Stats.Reads_served)
      0 (Rolis.Cluster.replicas c)
  in
  check_bool "followers served reads" true (follower_served > 0);
  let viols = Rolis.Check.snapshot_reads c in
  if viols <> [] then
    Alcotest.failf "snapshot reads violated: %s"
      (String.concat "; " (List.map (fun v -> v.Rolis.Check.detail) viols));
  (* Only write acks feed the exactly-once audit — reads are idempotent. *)
  let acked = Array.to_list writers |> List.concat_map Rolis.Client.acked_seqs in
  let viols = Rolis.Check.exactly_once c ~acked in
  if viols <> [] then
    Alcotest.failf "exactly-once violated with follower reads: %s"
      (String.concat "; " (List.map (fun v -> v.Rolis.Check.detail) viols));
  (match Rolis.Cluster.leader c with
  | Some r -> check_int "money conserved" (accounts * 1_000) (total_money (Rolis.Replica.db r) ~accounts)
  | None -> ())

(* Safety: a follower cut off from its peers keeps its lease only until
   it lapses, then parks every read — it can never serve a stale snapshot
   while a majority elects a new epoch elsewhere. Clients can still reach
   the isolated follower throughout (only replica-replica links are cut),
   so every request it sheds is a genuine lease park. *)
let test_lease_partition_parks () =
  let stopped = ref false in
  let accounts = 20 in
  let cfg =
    {
      (test_cfg ()) with
      Rolis.Config.clients = 2;
      follower_reads = true;
      read_lease = 150 * ms;
    }
  in
  let c = Rolis.Cluster.create cfg (transfer_app ~accounts ~initial:500 ~stopped) in
  let eng = Rolis.Cluster.engine c and net = Rolis.Cluster.network c in
  let _readers =
    Array.init 2 (fun cid ->
        let crng = Sim.Rng.split (Sim.Engine.rng eng) in
        Rolis.Client.spawn net ~cfg ~cid ~stopped ~ro:true ~prefer:[| 2 |]
          ~stats:(Rolis.Cluster.client_read_stats c)
          ~gen:(fun () -> string_of_int (Sim.Rng.int crng accounts))
          ())
  in
  Rolis.Cluster.run c ~duration:(1 * s) ();
  let served () =
    Rolis.Stats.get (Rolis.Replica.stats (Rolis.Cluster.replica c 2)) Rolis.Stats.Reads_served
  in
  check_bool "follower served while leased" true (served () > 0);
  Sim.Net.partition net 0 2;
  Sim.Net.partition net 1 2;
  Rolis.Cluster.run c ~duration:(cfg.Rolis.Config.read_lease + (200 * ms)) ();
  check_bool "lease lapsed in isolation" false
    (Rolis.Replica.lease_valid (Rolis.Cluster.replica c 2));
  let served_mid = served () in
  Rolis.Cluster.run c ~duration:(1 * s) ();
  check_int "no reads served without a lease" served_mid (served ());
  check_bool "reads parked instead" true
    (Rolis.Stats.get (Rolis.Replica.stats (Rolis.Cluster.replica c 2)) Rolis.Stats.Reads_parked
    > 0);
  (* Heal: a fresh lease arrives with the next heartbeat and serving
     resumes at the current epoch. *)
  Sim.Net.heal net 0 2;
  Sim.Net.heal net 1 2;
  Rolis.Cluster.run c ~duration:(1 * s) ();
  check_bool "serving resumed after heal" true (served () > served_mid)

(* Chaos sweep with the read path on: crashes, partitions and elections
   racing lease grants — exactly-once, money and the snapshot-read oracle
   must all hold on every seed. *)
let test_follower_reads_chaos () =
  for seed = 0 to 2 do
    let o = Rolis.Chaos.run_seed ~follower_reads:true ~seed () in
    if not (Rolis.Chaos.ok o) then
      Alcotest.failf "chaos seed %d with follower reads failed: %s" seed
        (Format.asprintf "%a" Rolis.Chaos.pp_outcome o);
    check_bool
      (Printf.sprintf "seed %d exercised the read path" seed)
      true
      (o.Rolis.Chaos.reads_acked > 0)
  done

(* ---------- checkpoint ---------- *)

let test_checkpoint_roundtrip () =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:8 () in
  let db = Silo.Db.create eng cpu () in
  let t = Silo.Db.create_table db "data" in
  for i = 0 to 999 do
    let r = Store.Record.make ~epoch:1 ~ts:i (Printf.sprintf "v%d" i) in
    Store.Table.insert t (Store.Keycodec.encode [ Store.Keycodec.I i ]) r
  done;
  (* A tombstone must not survive the checkpoint. *)
  Store.Record.install
    (Store.Table.get t (Store.Keycodec.encode [ Store.Keycodec.I 0 ]) |> Option.get)
    ~epoch:1 ~ts:0 ~value:None;
  let duration = ref 0 in
  let checked = ref false in
  let _p =
    Sim.Engine.spawn eng (fun () ->
        let t0 = Sim.Engine.time () in
        let img = Rolis.Checkpoint.write db () in
        check_int "999 live rows captured" 999 (Rolis.Checkpoint.row_count img);
        check_bool "bytes accounted" true (Rolis.Checkpoint.size_bytes img > 0);
        let fresh = Silo.Db.create eng cpu () in
        Rolis.Checkpoint.recover ~into:fresh img;
        duration := Sim.Engine.time () - t0;
        let ft = Silo.Db.table fresh "data" in
        check_int "all rows recovered" 999 (Store.Table.count ft);
        (match Store.Table.get_live ft (Store.Keycodec.encode [ Store.Keycodec.I 7 ]) with
        | Some r ->
            check_bool "value preserved" true (r.Store.Record.value = "v7");
            check_int "stamp preserved" 7 (Store.Record.ts r)
        | None -> Alcotest.fail "row 7 missing");
        checked := true)
  in
  Sim.Engine.run eng;
  check_bool "checkpoint body ran" true !checked;
  check_bool "checkpointing takes virtual time" true (!duration > 0)

(* Replay [entries] into [dst] through the follower's strictly-newer
   (epoch, ts) CAS; returns the number of writes that won. The reference
   the checkpoint tests compare recovery against. *)
let replay_entries ~dst entries =
  let applied = ref 0 in
  List.iter
    (fun (entry : Store.Wire.entry) ->
      List.iter
        (fun (txn : Store.Wire.txn_log) ->
          Silo.Db.apply_replay dst txn ~epoch:entry.epoch
            ~writes:(List.length txn.Store.Wire.writes)
            ~applied)
        entry.txns)
    entries;
  !applied

let test_checkpoint_plus_log_replay () =
  (* Fuzzy checkpoint composes with idempotent log replay: recovering the
     checkpoint and then replaying a log that overlaps it converges. *)
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:8 () in
  let db = Silo.Db.create eng cpu ~physical_deletes:false () in
  let t = Silo.Db.create_table db "data" in
  let key i = Store.Keycodec.encode [ Store.Keycodec.I i ] in
  for i = 0 to 99 do
    Store.Table.insert t (key i) (Store.Record.make ~epoch:1 ~ts:i "old")
  done;
  let log =
    List.init 50 (fun i ->
        {
          Store.Wire.ts = 1_000 + i;
          req = None;
          decision = None;
          writes = [ { Store.Wire.table = 0; key = key i; value = Some "new" } ];
        })
  in
  let ok = ref false in
  let _p =
    Sim.Engine.spawn eng (fun () ->
        let img = Rolis.Checkpoint.write db () in
        let fresh = Silo.Db.create eng cpu ~physical_deletes:false () in
        Rolis.Checkpoint.recover ~into:fresh img;
        let applied =
          replay_entries ~dst:fresh
            [ Store.Wire.make_entry ~epoch:1 log ]
        in
        check_int "all log writes won" 50 applied;
        let ft = Silo.Db.table fresh "data" in
        let value i =
          (Option.get (Store.Table.get_live ft (key i))).Store.Record.value
        in
        check_bool "updated prefix" true (value 0 = "new" && value 49 = "new");
        check_bool "untouched tail" true (value 50 = "old" && value 99 = "old");
        ok := true)
  in
  Sim.Engine.run eng;
  check_bool "ran" true !ok

(* Full-state dump including tombstones and stamps: the multiset a replica
   image must preserve exactly. *)
let stamp_dump db =
  Silo.Db.tables db
  |> List.concat_map (fun t ->
         let acc = ref [] in
         Store.Table.iter t (fun k r ->
             acc :=
               ( Store.Table.name t,
                 k,
                 r.Store.Record.value,
                 Store.Record.epoch r,
                 Store.Record.ts r,
                 Store.Record.is_deleted r )
               :: !acc);
         !acc)
  |> List.sort compare

let checkpoint_image_multiset_qcheck =
  QCheck.Test.make ~name:"replica image round-trips the full state multiset"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let eng = Sim.Engine.create () in
      let cpu = Sim.Cpu.create eng ~cores:4 () in
      let db = Silo.Db.create eng cpu ~physical_deletes:false () in
      let ntables = 1 + Random.State.int st 3 in
      for tn = 0 to ntables - 1 do
        let t = Silo.Db.create_table db (Printf.sprintf "t%d" tn) in
        for _ = 0 to Random.State.int st 150 do
          let key =
            Store.Keycodec.encode [ Store.Keycodec.I (Random.State.int st 400) ]
          in
          if Store.Table.get t key = None then begin
            let epoch = 1 + Random.State.int st 3 in
            let ts = Random.State.int st 10_000 in
            let value =
              String.make
                (1 + Random.State.int st 12)
                (Char.chr (97 + Random.State.int st 26))
            in
            let r =
              if Random.State.int st 5 = 0 then Store.Record.tombstone ~epoch ~ts ()
              else Store.Record.make ~epoch ~ts value
            in
            Store.Table.insert t key r
          end
        done
      done;
      let ok = ref false in
      ignore
        (Sim.Engine.spawn eng (fun () ->
             (* live_only:false is the replica-image mode: tombstones must
                survive, or below-frontier deletes of setup-seeded keys would
                resurrect on a rebuild. *)
             let img = Rolis.Checkpoint.write db ~live_only:false () in
             let fresh = Silo.Db.create eng cpu ~physical_deletes:false () in
             let installed = Rolis.Checkpoint.install ~into:fresh img in
             ok :=
               installed = Rolis.Checkpoint.row_count img
               && stamp_dump fresh = stamp_dump db));
      Sim.Engine.run eng;
      !ok)

let checkpoint_fuzzy_tail_qcheck =
  QCheck.Test.make
    ~name:"fuzzy checkpoint + journal tail equals crash-free execution"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let eng = Sim.Engine.create () in
      let cpu = Sim.Cpu.create eng ~cores:4 () in
      let key i = Store.Keycodec.encode [ Store.Keycodec.I i ] in
      let keys = 60 in
      let fresh_db () =
        let db = Silo.Db.create eng cpu ~physical_deletes:false () in
        let t = Silo.Db.create_table db "data" in
        for i = 0 to keys - 1 do
          Store.Table.insert t (key i) (Store.Record.make ~epoch:1 ~ts:i "init")
        done;
        db
      in
      (* One random history of writes and deletes, as a wire entry. *)
      let ntxn = 1 + Random.State.int st 120 in
      let log =
        List.init ntxn (fun i ->
            {
              Store.Wire.ts = 1_000 + i;
              req = None;
              decision = None;
              writes =
                [
                  {
                    Store.Wire.table = 0;
                    key = key (Random.State.int st keys);
                    value =
                      (if Random.State.int st 6 = 0 then None
                       else Some (Printf.sprintf "v%d" i));
                  };
                ];
            })
      in
      let entry l = Store.Wire.make_entry ~epoch:1 l in
      let cut = Random.State.int st (ntxn + 1) in
      let prefix = List.filteri (fun i _ -> i < cut) log in
      let ok = ref false in
      ignore
        (Sim.Engine.spawn eng (fun () ->
             (* The image is taken after some prefix of the history. *)
             let a = fresh_db () in
             if prefix <> [] then
               ignore (replay_entries ~dst:a [ entry prefix ]);
             let img = Rolis.Checkpoint.write a ~live_only:false () in
             (* Recovery: install, then replay the FULL history — the overlap
                with the image double-applies through the strictly-newer CAS
                and must be harmless. *)
             let b = Silo.Db.create eng cpu ~physical_deletes:false () in
             ignore (Rolis.Checkpoint.install ~into:b img);
             ignore (replay_entries ~dst:b [ entry log ]);
             (* Reference: crash-free execution of the same history. *)
             let c = fresh_db () in
             ignore (replay_entries ~dst:c [ entry log ]);
             ok := stamp_dump b = stamp_dump c));
      Sim.Engine.run eng;
      !ok)

(* End-to-end: a cluster with live checkpointing truncates its journals
   and still recovers a crashed follower — across the truncation frontier
   — to byte-identical state. *)
let test_checkpoint_truncation_restart () =
  let stopped = ref false in
  let accounts = 40 in
  let cfg =
    {
      (test_cfg ()) with
      Rolis.Config.archive_entries = true;
      checkpoint_interval = 100 * ms;
      checkpoint_retention = 300 * ms;
    }
  in
  let app = transfer_app ~accounts ~initial:300 ~stopped in
  let cluster = Rolis.Cluster.create cfg app in
  let eng = Rolis.Cluster.engine cluster in
  (* Long healthy history first, so checkpoints complete and truncation
     rounds fire; then a crash and a mid-load restart — recovery must go
     through checkpoint install + journal tail. *)
  Sim.Engine.schedule eng (1_200 * ms) (fun () -> Rolis.Cluster.crash_replica cluster 2);
  Sim.Engine.schedule eng (1_500 * ms) (fun () -> Rolis.Cluster.restart_replica cluster 2);
  Rolis.Cluster.run cluster ~duration:(2_500 * ms) ();
  stopped := true;
  Rolis.Cluster.run cluster ~duration:(1 * s) ();
  check_bool "checkpoints completed" true (Rolis.Cluster.checkpoints_taken cluster > 0);
  check_bool "truncation fired" true (Rolis.Cluster.truncation_rounds cluster > 0);
  check_bool "entries dropped" true (Rolis.Cluster.truncated_entries_total cluster > 0);
  let r2 = Rolis.Cluster.replica cluster 2 in
  check_bool "restarted replica alive" true (Rolis.Replica.is_alive r2);
  let viols = Rolis.Check.agreement cluster @ Rolis.Check.convergence cluster in
  if viols <> [] then
    Alcotest.failf "violations: %s"
      (String.concat "; " (List.map (fun v -> v.Rolis.Check.detail) viols));
  check_int "money conserved on restarted replica" (accounts * 300)
    (total_money (Rolis.Replica.db r2) ~accounts)

(* One deterministic chaos seed with checkpointing on: crashes land on a
   compacted history, restarts bootstrap from checkpoint + tail, and every
   invariant (including end-to-end exactly-once across truncated journal
   entries) must hold. *)
let test_chaos_checkpoint_seed () =
  let o =
    Rolis.Chaos.run_seed
      ~checkpoint_interval:(150 * ms)
      ~history_warmup:(1 * s)
      ~duration:(1_200 * ms) ~seed:7 ()
  in
  if not (Rolis.Chaos.ok o) then
    Alcotest.failf "chaos seed failed: %s"
      (Format.asprintf "%a" Rolis.Chaos.pp_outcome o);
  check_bool "checkpoints exercised" true (o.Rolis.Chaos.checkpoints > 0);
  check_bool "truncation exercised" true (o.Rolis.Chaos.truncations > 0)

(* ---------- live reconfiguration ---------- *)

(* A spare brought in *after* the cluster has truncated its journals can
   no longer be bootstrapped from the log alone: promotion must go
   through the newest checkpoint image plus the retained tail. With
   checkpoints off the same add seeds the learner from the union of the
   members' full journals instead. The property: for any seed, in both
   modes, the add completes, the new voter appears in a higher membership
   generation, and its database matches the deployment (money conserved,
   full convergence). *)
let learner_after_truncation_qcheck =
  QCheck.Test.make
    ~name:"learner added after truncation converges from image + tail" ~count:5
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let add ~checkpoints =
        let stopped = ref false in
        let accounts = 30 in
        let cfg =
          {
            (test_cfg ()) with
            Rolis.Config.archive_entries = true;
            checkpoint_interval = (if checkpoints then 100 * ms else 0);
            checkpoint_retention = 300 * ms;
            spare_replicas = 1;
            seed = Int64.of_int (0x5EED + seed);
          }
        in
        let cluster =
          Rolis.Cluster.create cfg (transfer_app ~accounts ~initial:500 ~stopped)
        in
        let eng = Rolis.Cluster.engine cluster in
        let added = ref false in
        (* Long healthy prefix so checkpoints land and truncation discards
           the journal head; only then bring the dark spare (slot 3) in. *)
        ignore
          (Sim.Engine.spawn eng ~name:"add-op" (fun () ->
               Sim.Engine.sleep (1_500 * ms);
               added := Rolis.Cluster.add_replica cluster 3));
        Rolis.Cluster.run cluster ~duration:(2_500 * ms) ();
        stopped := true;
        Rolis.Cluster.run cluster ~duration:(1 * s) ();
        let viols =
          Rolis.Check.agreement cluster
          @ Rolis.Check.membership_agreement cluster
          @ Rolis.Check.convergence cluster
        in
        (Rolis.Cluster.truncation_rounds cluster > 0) = checkpoints
        && !added
        && List.mem 3 (Rolis.Cluster.members cluster)
        && Rolis.Cluster.membership_gen cluster > 0
        && Rolis.Replica.is_alive (Rolis.Cluster.replica cluster 3)
        && total_money (Rolis.Replica.db (Rolis.Cluster.replica cluster 3)) ~accounts
           = accounts * 500
        && viols = []
      in
      add ~checkpoints:true && add ~checkpoints:false)

(* End-to-end rolling restart: clients keep committing while a planned
   handoff runs and then every voter is cycled (crash + restart) one at a
   time. Exactly-once must hold across all three generations of each
   node's life, and money must be conserved everywhere. *)
let test_rolling_restart_exactly_once () =
  let stopped = ref false in
  let accounts = 24 in
  let cfg =
    {
      (test_cfg ()) with
      Rolis.Config.clients = 4;
      archive_entries = true;
      checkpoint_interval = 200 * ms;
      checkpoint_retention = 300 * ms;
      min_members = 2;
    }
  in
  let cluster =
    Rolis.Cluster.create cfg (transfer_app ~accounts ~initial:1_000 ~stopped)
  in
  let eng = Rolis.Cluster.engine cluster and net = Rolis.Cluster.network cluster in
  let sessions =
    Array.init cfg.Rolis.Config.clients (fun cid ->
        let crng = Sim.Rng.split (Sim.Engine.rng eng) in
        Rolis.Client.spawn net ~cfg ~cid ~stopped
          ~stats:(Rolis.Cluster.client_stats cluster)
          ~gen:(fun () -> Rolis.Chaos.bank_payload crng ~accounts)
          ())
  in
  let cycled = ref [] in
  ignore
    (Sim.Engine.spawn eng ~name:"rolling-op" (fun () ->
         Sim.Engine.sleep (600 * ms);
         ignore (Rolis.Cluster.handoff cluster ~target:1);
         List.iter
           (fun i ->
             Rolis.Cluster.crash_replica cluster i;
             Sim.Engine.sleep (400 * ms);
             Rolis.Cluster.restart_replica cluster i;
             Sim.Engine.sleep (500 * ms);
             cycled := i :: !cycled)
           (Rolis.Cluster.members cluster)));
  Rolis.Cluster.run cluster ~duration:(5 * s) ();
  stopped := true;
  Rolis.Cluster.run cluster ~duration:(2_500 * ms) ();
  check_int "all three voters were cycled" 3 (List.length !cycled);
  let sum f = Array.fold_left (fun a c -> a + f c) 0 sessions in
  check_bool "clients committed through the operations" true
    (sum Rolis.Client.acked_count > 0);
  check_bool "leader churn was visible to clients as redirects" true
    (sum Rolis.Client.redirects > 0);
  Array.iter
    (fun r ->
      if Rolis.Replica.is_alive r then
        check_int
          (Printf.sprintf "money conserved on replica %d" (Rolis.Replica.id r))
          (accounts * 1_000)
          (total_money (Rolis.Replica.db r) ~accounts))
    (Rolis.Cluster.replicas cluster);
  let acked = Array.to_list sessions |> List.concat_map Rolis.Client.acked_seqs in
  check_bool "sanity: something was acked" true (acked <> []);
  let viols =
    Rolis.Check.membership_agreement cluster
    @ Rolis.Check.exactly_once cluster ~acked
  in
  if viols <> [] then
    Alcotest.failf "rolling restart violated invariants: %s"
      (String.concat "; " (List.map (fun v -> v.Rolis.Check.detail) viols))

(* One deterministic rolling-operations chaos seed: the nemesis schedules
   add / remove / handoff / rolling-restart operations against a pool with
   spares while clients run, and every invariant (agreement across
   membership generations, exactly-once with evidence harvested from
   removed nodes) must hold. *)
let test_chaos_ops_seed () =
  let o =
    Rolis.Chaos.run_seed ~ops:true ~history_warmup:(1 * s)
      ~duration:(3 * s) ~seed:11 ()
  in
  if not (Rolis.Chaos.ok o) then
    Alcotest.failf "ops chaos seed failed: %s"
      (Format.asprintf "%a" Rolis.Chaos.pp_outcome o);
  check_bool "management-plane operations ran" true
    (o.Rolis.Chaos.adds + o.Rolis.Chaos.removes + o.Rolis.Chaos.handoffs > 0)

(* ---------- Sharding ---------- *)

(* Router sanity: TPC-C warehouse partitioning and YCSB key ranges must
   tile the keyspace — every warehouse/key maps to exactly the shard
   whose range contains it. *)
let test_router_partitioning () =
  let warehouses = 13 and shards = 4 in
  let r = Rolis.Router.tpcc ~warehouses ~shards in
  check_int "router shard count" shards (Rolis.Router.shards r);
  for s = 0 to shards - 1 do
    let lo, hi = Rolis.Router.tpcc_warehouse_range r ~warehouses s in
    check_bool (Printf.sprintf "shard %d range non-empty" s) true (lo <= hi);
    for w = lo to hi do
      check_int
        (Printf.sprintf "warehouse %d maps to shard %d" w s)
        s
        (Rolis.Router.tpcc_shard_of_warehouse r w)
    done
  done;
  (* Ranges tile [1..warehouses] without gap or overlap. *)
  let covered = ref 0 in
  for s = 0 to shards - 1 do
    let lo, hi = Rolis.Router.tpcc_warehouse_range r ~warehouses s in
    covered := !covered + (hi - lo + 1)
  done;
  check_int "warehouse ranges tile the space" warehouses !covered;
  let keys = 1000 and yshards = 3 in
  let yr = Rolis.Router.ycsb ~keys ~shards:yshards in
  let ycovered = ref 0 in
  for s = 0 to yshards - 1 do
    let lo, hi = Rolis.Router.ycsb_key_range yr ~keys s in
    (* Each range starts where the previous one ended. *)
    check_int (Printf.sprintf "ycsb lo of shard %d follows its predecessor" s) !ycovered lo;
    ycovered := !ycovered + (hi - lo + 1)
  done;
  check_int "ycsb ranges tile the space" keys !ycovered

(* A two-shard bank where every logical transaction is cross-shard: a
   withdraw on one shard (the coordinator's sub) paired with a credit on
   the other. [abort_sub] makes the base op abort on matching payloads:
   a coordinator sub then aborts its folded "!c", a remote sub its
   "!x". *)
let cross_bank_shards = 2
let cross_bank_accounts = 32

let cross_bank ?on_durable ?veto ?(abort_sub = fun _ -> false) ~seed () =
  let shards = cross_bank_shards and accounts = cross_bank_accounts in
  let router = Rolis.Router.ycsb ~keys:accounts ~shards in
  let cfg =
    {
      Rolis.Config.default with
      Rolis.Config.replicas = 3;
      workers = 2;
      cores = 4;
      batch_size = 50;
      physical_serialization = true;
      archive_entries = true;
      heartbeat_interval = 50 * ms;
      election_timeout = 300 * ms;
      clients = 4;
      seed;
      shards;
      cross_pct = 1.0;
    }
  in
  Rolis.Shard.create ?on_durable ?veto cfg router
    (fun ~shard ->
      let app =
        Rolis.Chaos.bank_app
          ~range:(Rolis.Router.ycsb_key_range router ~keys:accounts shard)
          ~accounts ()
      in
      let op = Option.get app.Rolis.App.client_op in
      {
        app with
        Rolis.App.client_op =
          Some
            (fun db ~payload txn ->
              if abort_sub payload then Silo.Txn.abort ();
              op db ~payload txn);
      })
    ~gen:(fun ~rng ~driver:_ () ->
      let sa = Sim.Rng.int rng shards in
      let sb = (sa + 1) mod shards in
      let alo, ahi = Rolis.Router.ycsb_key_range router ~keys:accounts sa in
      let blo, bhi = Rolis.Router.ycsb_key_range router ~keys:accounts sb in
      let a = alo + Sim.Rng.int rng (ahi - alo + 1) in
      let b = blo + Sim.Rng.int rng (bhi - blo + 1) in
      let amount = 1 + Sim.Rng.int rng 10 in
      Rolis.Shard.Multi
        [
          (sa, Printf.sprintf "w %d %d" a amount);
          (sb, Printf.sprintf "c %d %d" b amount);
        ])

(* Every decision mark, keyed by xid, as [(shard, phase, parts)], from
   the first durable report of each (shard, stream, idx) — sound for a
   run without faults, where no slot is ever reused. *)
let mark_collector () =
  let seen = Hashtbl.create 1024 and marks = Hashtbl.create 256 in
  let on_durable ~shard ~replica:_ ~stream ~idx (e : Store.Wire.entry) =
    if not (Hashtbl.mem seen (shard, stream, idx)) then begin
      Hashtbl.replace seen (shard, stream, idx) ();
      List.iter
        (fun (t : Store.Wire.txn_log) ->
          match t.Store.Wire.decision with
          | Some d ->
              let xid = d.Store.Wire.d_xid in
              let cur = Option.value ~default:[] (Hashtbl.find_opt marks xid) in
              Hashtbl.replace marks xid
                ((shard, d.Store.Wire.d_phase, d.Store.Wire.d_parts) :: cur)
          | None -> ())
        e.Store.Wire.txns
    end
  in
  (on_durable, marks)

(* Live intent rows left in the control table of every alive replica. *)
let intent_rows dep =
  Array.fold_left
    (fun acc c ->
      Array.fold_left
        (fun acc r ->
          if not (Rolis.Replica.is_alive r) then acc
          else begin
            let n = ref 0 in
            Store.Table.iter
              (Silo.Db.table (Rolis.Replica.db r) "__2pc")
              (fun k rec_ ->
                if not (Store.Record.is_deleted rec_) then
                  match Store.Keycodec.decode k with
                  | Store.Keycodec.S "i" :: _ -> incr n
                  | _ -> ());
            acc + !n
          end)
        acc (Rolis.Cluster.replicas c))
    0 (Rolis.Shard.clusters dep)

let sharded_bank_violations dep =
  let clusters = Rolis.Shard.clusters dep in
  (Array.to_list clusters
  |> List.concat_map (fun c ->
         Rolis.Check.agreement c @ Rolis.Check.convergence c))
  @ (List.init cross_bank_shards (fun sh ->
         Rolis.Check.exactly_once clusters.(sh)
           ~acked:(Rolis.Shard.acked_seqs dep sh))
    |> List.concat)
  @ Rolis.Check.cross_shard clusters
  (* [Chaos.bank_app] opens every account in table "accounts" with 1000. *)
  @ Rolis.Check.money_sharded clusters ~table:"accounts"
      ~expected:(cross_bank_accounts * 1_000)

let fail_on_violations what = function
  | [] -> ()
  | viols ->
      Alcotest.failf "%s violated invariants: %s" what
        (String.concat "; "
           (List.map
              (fun v ->
                Printf.sprintf "%s: %s" v.Rolis.Check.check
                  v.Rolis.Check.detail)
              viols))

(* The folded commit's journal shape: the coordinator stages nothing and
   applies inside its decision, so a committed transaction leaves exactly
   three marks — Prepared and Applied on the remote, and one Committed on
   the coordinator whose parts name only the remote. *)
let test_shard_folded_commit_marks () =
  let on_durable, marks = mark_collector () in
  let dep = cross_bank ~on_durable ~seed:11L () in
  Rolis.Shard.run dep ~duration:(1 * s) ();
  check_bool "drivers quiesced" true (Rolis.Shard.quiesce dep);
  Rolis.Shard.run dep ~duration:(200 * ms) ();
  let committed = ref 0 in
  Hashtbl.iter
    (fun xid got ->
      match
        List.find_opt (fun (_, ph, _) -> ph = Store.Wire.Committed) got
      with
      | None -> ()
      | Some (coord, _, _) ->
          incr committed;
          let remote = 1 - coord in
          let expect =
            [
              (coord, Store.Wire.Committed, [ remote ]);
              (remote, Store.Wire.Prepared, []);
              (remote, Store.Wire.Applied, []);
            ]
          in
          if List.sort compare got <> List.sort compare expect then
            Alcotest.failf "xid %d: unexpected marks (%d of them)" xid
              (List.length got))
    marks;
  check_bool "cross-shard transactions committed" true (!committed > 0);
  check_int "one Committed mark per committed transaction"
    (Rolis.Shard.cross_committed dep) !committed;
  check_int "prepares count remote votes only" !committed
    (Rolis.Shard.prepares dep);
  check_int "no intent rows left on any shard" 0 (intent_rows dep);
  fail_on_violations "folded commit" (sharded_bank_violations dep)

(* Both abort paths of the folded commit: a coordinator sub the veto
   rejects aborts before any remote prepares (one "!a" round), and one
   that aborts inside the folded "!c" — after the remote staged its
   intent — is cancelled there by "!a" + "!r". *)
let test_shard_veto_aborts_cleanly () =
  let amount payload =
    match String.split_on_char ' ' payload with
    | [ "w"; _; amt ] -> Some (int_of_string amt)
    | _ -> None
  in
  let on_durable, marks = mark_collector () in
  let dep =
    cross_bank ~on_durable ~seed:13L
      ~veto:(fun ~payload ->
        match amount payload with Some a -> a mod 3 = 0 | None -> false)
      ~abort_sub:(fun payload -> amount payload = Some 7)
      ()
  in
  Rolis.Shard.run dep ~duration:(1 * s) ();
  check_bool "drivers quiesced" true (Rolis.Shard.quiesce dep);
  Rolis.Shard.run dep ~duration:(200 * ms) ();
  check_bool "some cross-shard transactions aborted" true
    (Rolis.Shard.cross_aborted dep > 0);
  check_bool "the rest committed" true (Rolis.Shard.cross_committed dep > 0);
  let has ph got = List.exists (fun (_, p, _) -> p = ph) got in
  let early = ref 0 and canceled = ref 0 in
  Hashtbl.iter
    (fun _ got ->
      if has Store.Wire.Aborted got then
        if has Store.Wire.Canceled got then incr canceled
        else if not (has Store.Wire.Prepared got) then incr early)
    marks;
  check_bool "vetoed subs aborted before any remote prepare" true (!early > 0);
  check_bool "a folded decision that aborted cancelled the remote intent" true
    (!canceled > 0);
  check_int "no intent rows left on any shard" 0 (intent_rows dep);
  fail_on_violations "veto aborts" (sharded_bank_violations dep)

(* A committed transaction whose remote apply aborts has lost part of
   its effect: the driver must fail loudly, naming the xid and shard,
   rather than leave it to an end-of-run audit. *)
let test_shard_failed_apply_is_loud () =
  let dep =
    cross_bank ~seed:17L
      ~abort_sub:(fun payload -> String.starts_with ~prefix:"c " payload)
      ()
  in
  match Rolis.Shard.run dep ~duration:(1 * s) () with
  | () -> Alcotest.fail "an aborted apply went unnoticed"
  | exception Sim.Engine.Process_failure (_, Failure msg) -> (
      match
        Scanf.sscanf_opt msg
          "2pc: committed xid %d lost its apply on shard %d%!"
          (fun _ shard -> shard)
      with
      | Some shard ->
          check_bool "names a participant shard" true (shard = 0 || shard = 1)
      | None -> Alcotest.failf "unexpected failure: %s" msg)

(* End to end: crash the coordinator shard's leader between the
   remote's vote and the folded decision — the classic 2PC in-doubt
   window. Every transaction is cross-shard (cross_pct = 1), so the crash
   interrupts live 2PC rounds; the freshly elected leader must recover
   the session table and any already-replicated decision from its
   journal, and the drivers' retries must drive every round to one
   atomic outcome. Afterwards: cross-shard atomicity, per-shard
   exactly-once, and global money conservation. *)
let test_shard_coordinator_crash_recovers_decision () =
  let dep_ref = ref None in
  let crashed = ref false in
  (* The first durable Prepared mark on shard 1 is a vote for a
     transaction shard 0 coordinates: crash shard 0's leader 1 ms later,
     while that round's folded decision is in flight. *)
  let on_durable ~shard ~replica:_ ~stream:_ ~idx:_ (e : Store.Wire.entry) =
    if shard = 1 && not !crashed then
      let has_prepare =
        List.exists
          (fun (t : Store.Wire.txn_log) ->
            match t.Store.Wire.decision with
            | Some d -> d.Store.Wire.d_phase = Store.Wire.Prepared
            | None -> false)
          e.Store.Wire.txns
      in
      if has_prepare then begin
        crashed := true;
        match !dep_ref with
        | None -> ()
        | Some dep ->
            let cluster = (Rolis.Shard.clusters dep).(0) in
            let eng = Rolis.Shard.engine dep in
            Sim.Engine.schedule eng
              (Sim.Engine.now eng + (1 * ms))
              (fun () ->
                match Rolis.Cluster.leader cluster with
                | Some r ->
                    Rolis.Cluster.crash_replica cluster (Rolis.Replica.id r)
                | None -> ())
      end
  in
  let dep = cross_bank ~on_durable ~seed:7L () in
  dep_ref := Some dep;
  Rolis.Shard.run dep ~duration:(2 * s) ();
  check_bool "a remote vote was observed and the coordinator leader crashed"
    true !crashed;
  check_bool "the crash interrupted in-flight requests" true
    (Rolis.Shard.client_retries dep > 0);
  (* Quiesce, restart the dead replica, drain replay, then audit. *)
  check_bool "drivers quiesced" true (Rolis.Shard.quiesce dep);
  Array.iter
    (fun cluster ->
      Array.iter
        (fun r ->
          if not (Rolis.Replica.is_alive r) then
            Rolis.Cluster.restart_replica cluster (Rolis.Replica.id r))
        (Rolis.Cluster.replicas cluster))
    (Rolis.Shard.clusters dep);
  Rolis.Shard.run dep ~duration:(2 * s) ();
  check_bool "cross-shard transactions committed through the crash" true
    (Rolis.Shard.cross_committed dep > 0);
  fail_on_violations "coordinator crash" (sharded_bank_violations dep)

(* One deterministic sharded chaos seed end-to-end through the harness:
   independent per-shard nemeses, cross-shard 2PC under fire, and the
   full final audit (including the cross-shard oracle and global
   conservation). *)
let test_sharded_chaos_seed () =
  let o = Rolis.Chaos.run_seed ~shards:2 ~duration:(2 * s) ~seed:3 () in
  if not (Rolis.Chaos.ok o) then
    Alcotest.failf "sharded chaos seed failed: %s"
      (Format.asprintf "%a" Rolis.Chaos.pp_outcome o);
  check_int "outcome records the shard count" 2 o.Rolis.Chaos.shards;
  check_bool "cross-shard transactions committed under chaos" true
    (o.Rolis.Chaos.cross_committed > 0);
  check_bool "faults actually fired" true (o.Rolis.Chaos.crashes > 0)

(* Follower reads inside a sharded deployment: per-shard read sessions
   race lease grants and elections on both shards while cross-shard 2PC
   runs, and the snapshot-read oracle holds on every cluster. *)
let test_sharded_follower_reads_chaos_seed () =
  let o =
    Rolis.Chaos.run_seed ~shards:2 ~follower_reads:true ~duration:(2 * s)
      ~seed:5 ()
  in
  if not (Rolis.Chaos.ok o) then
    Alcotest.failf "sharded follower-reads chaos seed failed: %s"
      (Format.asprintf "%a" Rolis.Chaos.pp_outcome o);
  check_bool "reads answered" true (o.Rolis.Chaos.reads_acked > 0);
  check_bool "cross-shard transactions committed" true
    (o.Rolis.Chaos.cross_committed > 0)

(* Checkpoint truncation would drop the decision marks the cross-shard
   oracle audits, so the combination is refused up front. *)
let test_sharded_chaos_rejects_checkpoints () =
  List.iter
    (fun (what, run) ->
      match run () with
      | _ -> Alcotest.failf "expected Invalid_argument for shards > 1 with %s" what
      | exception Invalid_argument _ -> ())
    [
      ( "checkpoints",
        fun () ->
          Rolis.Chaos.run_seed ~shards:2 ~checkpoint_interval:(150 * ms) ~seed:1 () );
      ("ops", fun () -> Rolis.Chaos.run_seed ~shards:2 ~ops:true ~seed:1 ());
    ]

(* ---------- Trace ---------- *)

(* Every released sampled transaction emits 6 spans; with [capacity = 8]
   and [sample_interval = 1], ten transactions overflow the worker ring
   and only the newest 8 spans survive. *)
let test_trace_ring_wraparound () =
  let eng = Sim.Engine.create () in
  let st = Rolis.Stats.create eng in
  let tr =
    Rolis.Trace.create eng ~stats:st ~workers:1 ~sample_interval:1 ~capacity:8
  in
  check_bool "enabled at interval 1" true (Rolis.Trace.enabled tr);
  (* Stamps use [Sim.Engine.now], so drive the pipeline from scheduled
     events at t > 0 as the replica does (0 means "stage not reached"). *)
  for i = 1 to 10 do
    Sim.Engine.schedule eng (i * ms) (fun () ->
        match Rolis.Trace.sample tr ~worker:0 ~ts:i ~exec_start:((i * ms) - 100) with
        | None -> Alcotest.fail "interval 1 must sample every transaction"
        | Some tok ->
            Rolis.Trace.note_serialized tr tok;
            Rolis.Trace.note_flushed tr ~ts:i;
            Rolis.Trace.note_durable tr ~ts:i;
            Rolis.Trace.note_released tr tok)
  done;
  Sim.Engine.run eng;
  let spans = Rolis.Trace.spans tr in
  check_int "ring bounded at capacity" 8 (List.length spans);
  (* 6 spans per transaction: the survivors all belong to the last two. *)
  List.iter
    (fun sp -> check_bool "only newest spans survive" true (sp.Rolis.Trace.sp_ts >= 9))
    spans;
  check_int "no tokens left pending" 0 (Rolis.Trace.pending_count tr);
  (* The histograms saw every released transaction, wrapped or not. *)
  check_int "stage histogram kept all samples" 10
    (Sim.Metrics.Hist.count
       (Rolis.Stats.stage_hist st (Rolis.Trace.stage_index Rolis.Trace.Execute)))

let run_traced_cluster ~interval =
  let cfg =
    { (test_cfg ()) with Rolis.Config.trace_sample_interval = interval }
  in
  let cluster = Rolis.Cluster.create cfg (Fixtures.counter_app ~keys:100) in
  Rolis.Cluster.run cluster ~warmup:(200 * ms) ~duration:(1 * s) ();
  cluster

let leader_spans cluster =
  Rolis.Trace.spans (Rolis.Replica.trace (Rolis.Cluster.replica cluster 0))

let test_trace_sampling_deterministic () =
  let c1 = run_traced_cluster ~interval:16 in
  let c2 = run_traced_cluster ~interval:16 in
  let s1 = leader_spans c1 and s2 = leader_spans c2 in
  check_bool "spans recorded" true (s1 <> []);
  check_bool "same seed, same interval -> identical spans" true (s1 = s2);
  check_bool "pipeline stages present" true
    (List.exists (fun sp -> sp.Rolis.Trace.sp_stage = Rolis.Trace.Execute) s1
    && List.exists (fun sp -> sp.Rolis.Trace.sp_stage = Rolis.Trace.Release) s1);
  (* Follower rings hold replay spans. *)
  let follower =
    Rolis.Trace.spans (Rolis.Replica.trace (Rolis.Cluster.replica c1 1))
  in
  check_bool "followers record replay spans" true
    (List.exists (fun sp -> sp.Rolis.Trace.sp_stage = Rolis.Trace.Replay) follower);
  let breakdown = Rolis.Cluster.stage_breakdown c1 in
  check_bool "stage breakdown covers the pipeline" true
    (List.exists (fun (name, n, _, _, _) -> name = "execute" && n > 0) breakdown)

let all_counters =
  Rolis.Stats.
    [
      Executed; User_aborts; Released; Serialized_bytes; Entries_flushed;
      Deadline_flushes; Event_releases; Replayed_txns; Reads_served; Reads_parked;
      Reads_redirected; Read_misses; Busy_replies; Redirects; Parked_requests;
      Parked_ns;
    ]

(* Write and read-only sessions against a cluster whose admission queue
   holds one request and whose leader crashes mid-run: busy replies,
   redirects, parked requests and read redirects all fire. *)
let run_client_cluster ~interval =
  let accounts = 20 in
  let cfg =
    {
      (test_cfg ~workers:2 ()) with
      Rolis.Config.clients = 6;
      client_timeout = 50 * ms;
      client_retry_limit = 3;
      admission_max_pending = 1;
      follower_reads = true;
      read_lease = 150 * ms;
      trace_sample_interval = interval;
    }
  in
  let stopped = ref false in
  let c = Rolis.Cluster.create cfg (transfer_app ~accounts ~initial:1_000 ~stopped) in
  let eng = Rolis.Cluster.engine c and net = Rolis.Cluster.network c in
  for cid = 0 to cfg.Rolis.Config.clients - 1 do
    let crng = Sim.Rng.split (Sim.Engine.rng eng) in
    (* cids 0-3 write transfers; cids 4-5 read balances. *)
    ignore
      (if cid < 4 then
         Rolis.Client.spawn net ~cfg ~cid ~stopped
           ~stats:(Rolis.Cluster.client_stats c)
           ~gen:(fun () -> Rolis.Chaos.bank_payload crng ~accounts)
           ()
       else
         Rolis.Client.spawn net ~cfg ~cid ~stopped ~ro:true
           ~stats:(Rolis.Cluster.client_read_stats c)
           ~gen:(fun () -> string_of_int (Sim.Rng.int crng accounts))
           ())
  done;
  Sim.Engine.schedule eng (600 * ms) (fun () -> Rolis.Cluster.crash_replica c 0);
  Rolis.Cluster.run c ~warmup:(200 * ms) ~duration:(2 * s) ();
  c

let test_trace_zero_overhead () =
  (* Tracing performs no virtual-time operations, so simulated results
     are bit-identical whether sampling is off or on — the "< 3%
     throughput change" acceptance criterion is exactly 0 in this
     deterministic setting. *)
  let on = run_traced_cluster ~interval:64 in
  let off = run_traced_cluster ~interval:0 in
  check_int "released identical with tracing off" (cluster_released on)
    (cluster_released off);
  check_bool "latency histogram identical with tracing off" true
    (Sim.Metrics.Hist.values (Rolis.Cluster.latency on)
    = Sim.Metrics.Hist.values (Rolis.Cluster.latency off));
  check_int "tracing off records nothing" 0 (List.length (leader_spans off));
  (* Replay lag is telemetry, not tracing: it feeds the bench-diff lag
     gate, so it records with sampling off. Every pipeline stage stays
     silent. *)
  check_bool "tracing off reports no pipeline stages" true
    (List.for_all
       (fun (name, _, _, _, _) -> name = "replay_lag")
       (Rolis.Cluster.stage_breakdown off));
  check_bool "lag telemetry survives tracing off" true
    (Rolis.Cluster.stage_summary off Rolis.Trace.Replay_lag <> None);
  (* Counters are not tracing either: with client sessions, follower
     reads, a starved admission queue and a leader crash, every counter
     of every replica and of both client-side stats reads the same with
     sampling off. A count that moved into a trace-gated path would
     differ here. *)
  let on = run_client_cluster ~interval:4 in
  let off = run_client_cluster ~interval:0 in
  let all_stats c =
    Rolis.Cluster.client_stats c :: Rolis.Cluster.client_read_stats c
    :: List.map Rolis.Replica.stats (Array.to_list (Rolis.Cluster.replicas c))
  in
  List.iter2
    (fun st_on st_off ->
      List.iter
        (fun c ->
          check_int "counter identical with tracing off" (Rolis.Stats.get st_on c)
            (Rolis.Stats.get st_off c))
        all_counters)
    (all_stats on) (all_stats off);
  (* The scenario must reach the dispositions it is meant to cover. *)
  let total c =
    List.fold_left (fun a st -> a + Rolis.Stats.get st c) 0 (all_stats off)
  in
  List.iter
    (fun (name, c) ->
      check_bool ("scenario exercises " ^ name) true (total c > 0))
    Rolis.Stats.
      [
        ("busy replies", Busy_replies);
        ("redirects", Redirects);
        ("parks", Parked_requests);
        ("served reads", Reads_served);
        ("read redirects", Reads_redirected);
      ]

(* The Fig. 3 scenario through the tracing lens: partition the leader so
   it steps down and abandons its speculative pipeline. Every pending
   sampled transaction must come out as a dropped span — none may leak
   in the pending table, and none may feed the stage histograms. *)
let test_trace_dropped_not_leaked_on_stepdown () =
  let cfg = { (test_cfg ()) with Rolis.Config.trace_sample_interval = 4 } in
  let cluster = Rolis.Cluster.create cfg (Fixtures.counter_app ~keys:100) in
  let eng = Rolis.Cluster.engine cluster in
  Sim.Engine.schedule eng (500 * ms) (fun () ->
      let net = Rolis.Cluster.network cluster in
      Sim.Net.partition net 0 1;
      Sim.Net.partition net 0 2);
  Rolis.Cluster.run cluster ~duration:(2 * s) ();
  let old_leader = Rolis.Cluster.replica cluster 0 in
  check_bool "old leader stepped down" false (Rolis.Replica.is_serving old_leader);
  let tr = Rolis.Replica.trace old_leader in
  check_int "no sampled tokens leak across step-down" 0
    (Rolis.Trace.pending_count tr);
  let spans = Rolis.Trace.spans tr in
  check_bool "abandoned transactions emitted as dropped spans" true
    (List.exists (fun sp -> sp.Rolis.Trace.sp_dropped) spans);
  List.iter
    (fun sp ->
      check_bool "span widths never negative" true
        (sp.Rolis.Trace.sp_end >= sp.Rolis.Trace.sp_start))
    spans;
  (* The new leader's pipeline keeps tracing cleanly after the failover. *)
  match Rolis.Cluster.leader cluster with
  | None -> Alcotest.fail "no leader after partition"
  | Some r ->
      check_bool "new leader records released (non-dropped) spans" true
        (List.exists
           (fun sp ->
             sp.Rolis.Trace.sp_stage = Rolis.Trace.Release
             && not sp.Rolis.Trace.sp_dropped)
           (Rolis.Trace.spans (Rolis.Replica.trace r)))

let test_trace_create_validation () =
  let eng = Sim.Engine.create () in
  let st = Rolis.Stats.create eng in
  let bad f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "accepted invalid trace configuration"
  in
  bad (fun () ->
      Rolis.Trace.create eng ~stats:st ~workers:1 ~sample_interval:(-1) ~capacity:8);
  bad (fun () ->
      Rolis.Trace.create eng ~stats:st ~workers:1 ~sample_interval:1 ~capacity:0);
  bad (fun () ->
      Rolis.Trace.create eng ~stats:st ~workers:0 ~sample_interval:1 ~capacity:8)

(* ---------- Stats window ---------- *)

let test_stats_window_excludes_prewarmup () =
  let eng = Sim.Engine.create () in
  let st = Rolis.Stats.create eng in
  (* A release whose transaction began before the window reset must not
     pollute the latency histogram — but it still counts as a release
     for throughput. *)
  Sim.Engine.schedule eng (100 * ms) (fun () -> Rolis.Stats.reset_window st);
  Sim.Engine.schedule eng (150 * ms) (fun () ->
      Rolis.Stats.note_released st ~start:(50 * ms) ~latency:(100 * ms) ~bytes:8;
      Rolis.Stats.note_released st ~start:(120 * ms) ~latency:(30 * ms) ~bytes:8);
  Sim.Engine.run eng;
  check_int "both releases counted" 2 (Rolis.Stats.get st Rolis.Stats.Released);
  check_int "pre-window latency sample excluded" 1
    (Sim.Metrics.Hist.count (Rolis.Stats.latency st));
  check_int "surviving sample is the post-window one" (30 * ms)
    (Sim.Metrics.Hist.percentile (Rolis.Stats.latency st) 50.0)

(* Which counters the end-of-warm-up reset zeroes: everything the
   pipeline and the read path count is per window; the client-facing
   admission, redirect and park totals span the whole run. *)
let test_stats_reset_window_counters () =
  let eng = Sim.Engine.create () in
  let st = Rolis.Stats.create eng in
  List.iter (fun c -> Rolis.Stats.add st c 3) all_counters;
  Rolis.Stats.reset_window st;
  let cumulative = Rolis.Stats.[ Busy_replies; Redirects; Parked_requests; Parked_ns ] in
  List.iter
    (fun c ->
      check_int "counter after reset_window"
        (if List.mem c cumulative then 3 else 0)
        (Rolis.Stats.get st c))
    all_counters

let () =
  Alcotest.run "rolis"
    [
      ( "watermark",
        [
          Alcotest.test_case "min law" `Quick test_watermark_min_law;
          Alcotest.test_case "monotone" `Quick test_watermark_monotone;
          Alcotest.test_case "epoch sealing (Fig 8)" `Quick test_watermark_epoch_sealing;
          Alcotest.test_case "skipped epoch" `Quick test_watermark_skipped_epoch;
          QCheck_alcotest.to_alcotest watermark_qcheck;
          QCheck_alcotest.to_alcotest watermark_sealing_qcheck;
          QCheck_alcotest.to_alcotest watermark_incremental_qcheck;
          Alcotest.test_case "scan count amortized" `Quick
            test_watermark_scan_amortized;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "basic release" `Quick test_basic_release;
          Alcotest.test_case "convergence after drain" `Quick test_convergence_after_drain;
          Alcotest.test_case "single-stream strawman" `Quick test_single_stream_mode;
          Alcotest.test_case "sharded streams" `Quick test_sharded_stream_mode;
          Alcotest.test_case "networked clients" `Quick test_networked_clients_mode;
          Alcotest.test_case "replay disabled" `Quick test_disable_replay_mode;
          Alcotest.test_case "bulk replay convergence" `Quick
            test_bulk_replay_convergence;
          Alcotest.test_case "parallel replay over hash index" `Quick
            test_parallel_hash_replay_convergence;
          Alcotest.test_case "replicas born equal and disjoint" `Quick
            test_replicas_born_equal;
          Alcotest.test_case "setup that attaches refused" `Quick
            test_setup_attach_refused;
        ] );
      ( "failover",
        [
          Alcotest.test_case "money conservation (Fig 3)" `Quick
            test_failover_money_conservation;
          Alcotest.test_case "straddler backlog drains on promotion" `Quick
            test_failover_straddler_backlog;
          Alcotest.test_case "gap then recovery" `Quick test_failover_gap_then_recovery;
          Alcotest.test_case "released results survive crash" `Quick
            test_released_results_survive_crash;
          Alcotest.test_case "old leader tainted" `Quick
            test_old_leader_tainted_on_partition;
        ] );
      ( "batching",
        [
          QCheck_alcotest.to_alcotest batcher_adaptive_qcheck;
          Alcotest.test_case "deadline flush of a lone batch" `Quick
            test_batcher_deadline_flush;
          QCheck_alcotest.to_alcotest batcher_static_qcheck;
          Alcotest.test_case "golden (counter)" `Quick test_golden_counter;
          Alcotest.test_case "golden (tpcc)" `Quick test_golden_tpcc;
          Alcotest.test_case "adaptive p50 at least 2x below fixed" `Quick
            test_budget_p50_win;
          Alcotest.test_case "adaptive failover conservation" `Quick
            test_adaptive_failover_conservation;
        ] );
      ( "config",
        [
          Alcotest.test_case "timing constraints" `Quick test_config_validate_timing;
          Alcotest.test_case "client/admission constraints" `Quick
            test_config_validate_clients;
          Alcotest.test_case "batching constraints" `Quick
            test_config_validate_batching;
          Alcotest.test_case "checkpoint constraints" `Quick
            test_config_validate_checkpoint;
          Alcotest.test_case "replay fan-out and hash-table constraints" `Quick
            test_config_validate_replay;
          Alcotest.test_case "reconfiguration constraints" `Quick
            test_config_validate_reconfig;
        ] );
      ( "clients",
        [
          Alcotest.test_case "release visibility across crash" `Quick
            test_release_visibility_across_crash;
          Alcotest.test_case "admission backpressure" `Quick test_admission_backpressure;
          Alcotest.test_case "announcement ends a nap" `Quick test_announcement_ends_nap;
          Alcotest.test_case "tpcc failover serves within 2 s" `Quick
            test_tpcc_failover_serves;
        ] );
      ( "reads",
        [
          Alcotest.test_case "follower reads e2e" `Quick test_follower_reads_e2e;
          Alcotest.test_case "lease partition parks" `Quick
            test_lease_partition_parks;
          Alcotest.test_case "chaos with follower reads" `Quick
            test_follower_reads_chaos;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "new replica sync" `Quick test_bootstrap_new_replica;
          Alcotest.test_case "restart rejoin convergence" `Quick
            test_restart_rejoin_convergence;
          Alcotest.test_case "voluntary restart keeps accepted tail" `Quick
            test_voluntary_restart_keeps_accepted;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "checkpoint + log replay" `Quick
            test_checkpoint_plus_log_replay;
          QCheck_alcotest.to_alcotest checkpoint_image_multiset_qcheck;
          QCheck_alcotest.to_alcotest checkpoint_fuzzy_tail_qcheck;
          Alcotest.test_case "truncation + restart convergence" `Quick
            test_checkpoint_truncation_restart;
          Alcotest.test_case "chaos seed with checkpointing" `Quick
            test_chaos_checkpoint_seed;
        ] );
      ( "reconfig",
        [
          QCheck_alcotest.to_alcotest learner_after_truncation_qcheck;
          Alcotest.test_case "rolling restart exactly-once" `Quick
            test_rolling_restart_exactly_once;
          Alcotest.test_case "ops chaos seed" `Quick test_chaos_ops_seed;
        ] );
      ( "shard",
        [
          Alcotest.test_case "router partitioning" `Quick test_router_partitioning;
          Alcotest.test_case "coordinator crash recovers decision" `Quick
            test_shard_coordinator_crash_recovers_decision;
          Alcotest.test_case "folded commit marks" `Quick
            test_shard_folded_commit_marks;
          Alcotest.test_case "veto aborts cleanly" `Quick
            test_shard_veto_aborts_cleanly;
          Alcotest.test_case "failed apply is loud" `Quick
            test_shard_failed_apply_is_loud;
          Alcotest.test_case "sharded chaos seed" `Quick test_sharded_chaos_seed;
          Alcotest.test_case "sharded follower-reads chaos seed" `Quick
            test_sharded_follower_reads_chaos_seed;
          Alcotest.test_case "sharded chaos rejects checkpoints" `Quick
            test_sharded_chaos_rejects_checkpoints;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_trace_ring_wraparound;
          Alcotest.test_case "deterministic sampling" `Quick
            test_trace_sampling_deterministic;
          Alcotest.test_case "zero virtual-time overhead" `Quick
            test_trace_zero_overhead;
          Alcotest.test_case "dropped not leaked on step-down" `Quick
            test_trace_dropped_not_leaked_on_stepdown;
          Alcotest.test_case "create validation" `Quick test_trace_create_validation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "window excludes pre-warm-up latency" `Quick
            test_stats_window_excludes_prewarmup;
          Alcotest.test_case "reset_window zeroes the windowed counters" `Quick
            test_stats_reset_window_counters;
        ] );
    ]
