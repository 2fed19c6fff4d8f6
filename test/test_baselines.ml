(* Tests for the baseline systems: Silo-only, replay-only, 2PL, Calvin,
   Meerkat. Shape checks only — full curves are the bench harness's job. *)

let check_bool = Alcotest.(check bool)
let ms = Sim.Engine.ms

let small_tpcc =
  {
    Workload.Tpcc.default with
    Workload.Tpcc.warehouses = 4;
    items = 1_000;
    customers_per_district = 50;
    init_orders_per_district = 50;
  }

let test_silo_only_scales () =
  (* Scale warehouses with workers (the paper's affinity setup) so the
     scaling measurement is not confounded by contention. *)
  let run workers =
    let p = { small_tpcc with Workload.Tpcc.warehouses = workers } in
    (Baselines.Silo_only.run ~cores:16 ~workers ~duration:(200 * ms)
       ~app:(Workload.Tpcc.app p) ())
      .Baselines.Silo_only.tps
  in
  let t2 = run 2 and t8 = run 8 in
  check_bool "throughput positive" true (t2 > 0.0);
  check_bool "more workers help" true (t8 > 2.0 *. t2)

let test_silo_only_utilization () =
  let r =
    Baselines.Silo_only.run ~cores:4 ~workers:4 ~duration:(200 * ms)
      ~app:(Fixtures.counter_app ~keys:1000) ()
  in
  check_bool "CPU saturated with workers = cores" true
    (r.Baselines.Silo_only.cpu_utilization > 0.9)

let test_replay_faster_than_execute () =
  (* The Fig. 15 claim: replay-only beats Silo's execute path because it
     touches only the write-set. *)
  let r =
    Baselines.Replay_only.run ~cores:16 ~threads:8 ~generate_duration:(300 * ms)
      ~app:(Workload.Tpcc.app small_tpcc) ()
  in
  check_bool "generated transactions" true (r.Baselines.Replay_only.replayed > 1_000);
  check_bool "replay faster than execute" true
    (r.Baselines.Replay_only.replay_tps > r.Baselines.Replay_only.silo_tps)

let test_twopl_runs () =
  let r = Baselines.Twopl.run ~partitions:2 ~clients_per_partition:32 ~duration:(200 * ms) () in
  check_bool "2PL commits" true (r.Baselines.Twopl.committed > 100);
  (* Interactive execution with many closed-loop clients: latency is in
     the milliseconds, far above a bare network round trip. *)
  check_bool "latency in ms range" true
    (r.Baselines.Twopl.p50_latency > ms && r.Baselines.Twopl.p50_latency < 200 * ms)

let test_twopl_scales_with_partitions () =
  let run partitions =
    (Baselines.Twopl.run ~partitions ~clients_per_partition:32 ~duration:(200 * ms) ())
      .Baselines.Twopl.tps
  in
  check_bool "perfect partitioning scales" true (run 8 > 3.0 *. run 2)

let test_calvin_runs_and_latency () =
  let r = Baselines.Calvin.run ~partitions:4 ~replication:true ~duration:(300 * ms) () in
  check_bool "Calvin commits" true (r.Baselines.Calvin.committed > 1_000);
  (* Epoch batching + agreement dominates latency: tens of ms. *)
  check_bool "latency tens of ms" true
    (r.Baselines.Calvin.p50_latency > 20 * ms && r.Baselines.Calvin.p50_latency < 300 * ms)

let test_calvin_sequencer_ceiling () =
  let run partitions =
    (Baselines.Calvin.run ~partitions ~duration:(250 * ms) ()).Baselines.Calvin.tps
  in
  let t4 = run 4 and t8 = run 8 and t28 = run 28 in
  check_bool "scales at small partition counts" true (t8 > 1.5 *. t4);
  (* The central sequencer flattens the curve well below linear. *)
  check_bool "central sequencer caps scaling" true (t28 < 4.0 *. t8)

let test_meerkat_runs () =
  let r = Baselines.Meerkat.run ~threads:4 ~duration:(200 * ms) () in
  check_bool "Meerkat commits" true (r.Baselines.Meerkat.committed > 1_000);
  check_bool "low abort rate (constant contention)" true
    (r.Baselines.Meerkat.aborted * 50 < r.Baselines.Meerkat.committed);
  (* DPDK-class latency: well under a millisecond. *)
  check_bool "sub-ms latency" true (r.Baselines.Meerkat.p50_latency < ms)

let test_meerkat_ycsbpp_slower_than_ycsbt () =
  let t =
    (Baselines.Meerkat.run ~threads:8 ~duration:(200 * ms) ()).Baselines.Meerkat.tps
  in
  let pp =
    (Baselines.Meerkat.run ~threads:8 ~params:Workload.Ycsb.default
       ~duration:(200 * ms) ())
      .Baselines.Meerkat.tps
  in
  check_bool "YCSB-T faster than YCSB++" true (t > 1.5 *. pp)

let () =
  Alcotest.run "baselines"
    [
      ( "silo-only",
        [
          Alcotest.test_case "scales" `Quick test_silo_only_scales;
          Alcotest.test_case "utilization" `Quick test_silo_only_utilization;
        ] );
      ( "replay-only",
        [ Alcotest.test_case "faster than execute" `Quick test_replay_faster_than_execute ]
      );
      ( "2pl",
        [
          Alcotest.test_case "runs" `Quick test_twopl_runs;
          Alcotest.test_case "scales with partitions" `Quick
            test_twopl_scales_with_partitions;
        ] );
      ( "calvin",
        [
          Alcotest.test_case "runs + latency" `Quick test_calvin_runs_and_latency;
          Alcotest.test_case "sequencer ceiling" `Quick test_calvin_sequencer_ceiling;
        ] );
      ( "meerkat",
        [
          Alcotest.test_case "runs" `Quick test_meerkat_runs;
          Alcotest.test_case "workload sensitivity" `Quick
            test_meerkat_ycsbpp_slower_than_ycsbt;
        ] );
    ]
