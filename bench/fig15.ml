(* Figure 15: Silo execute-path vs replay-only throughput over threads
   (TPC-C). Replay touches only the write-set, so it outruns execution
   (~1.5x at 32 threads in the paper) — evidence that followers keep pace
   with the leader.

   Extended with the bulk-replay fast path: the same captured logs
   applied entry-at-a-time through the sorted B-tree cursor sweep
   ([Silo.Db.apply_replay_entry], what cluster followers run), plus a
   cluster-level run with the lag telemetry (how far the replayed
   frontier trails the durable frontier). *)

open Common

let run ~quick =
  header "Figure 15: Silo vs replay-only (TPC-C)"
    "Paper: replay-only 2.25M @32 = 1.51x Silo's execute path.\n\
     'Bulk' re-applies the same logs through the sorted cursor sweep.";
  Printf.printf "  %-8s %12s %12s %8s %12s %8s\n" "threads" "Silo" "Replay"
    "ratio" "Bulk" "bulk/pt";
  let sweep = points quick [ 2; 8; 16; 24; 30 ] [ 2; 14; 30 ] in
  let pts =
    List.concat_map
      (fun threads ->
        let gen_dur = dur quick (200 * ms) in
        let app = Workload.Tpcc.app (tpcc_params ~workers:threads) in
        let r =
          Baselines.Replay_only.run ~threads ~generate_duration:gen_dur ~app ()
        in
        Gc.compact ();
        let rb =
          Baselines.Replay_only.run ~bulk:true ~threads
            ~generate_duration:gen_dur ~app ()
        in
        let speedup =
          rb.Baselines.Replay_only.replay_tps
          /. r.Baselines.Replay_only.replay_tps
        in
        Printf.printf "  %-8d %12s %12s %7.2fx %12s %7.2fx\n%!" threads
          (fmt_tps r.Baselines.Replay_only.silo_tps)
          (fmt_tps r.Baselines.Replay_only.replay_tps)
          (r.Baselines.Replay_only.replay_tps /. r.Baselines.Replay_only.silo_tps)
          (fmt_tps rb.Baselines.Replay_only.replay_tps)
          speedup;
        Gc.compact ();
        let x = float_of_int threads in
        [
          point ~series:"silo" ~x [ ("tput", r.Baselines.Replay_only.silo_tps) ];
          point ~series:"replay" ~x
            [
              ("tput", r.Baselines.Replay_only.replay_tps);
              ( "ratio",
                r.Baselines.Replay_only.replay_tps
                /. r.Baselines.Replay_only.silo_tps );
            ];
          point ~series:"replay_bulk" ~x
            [
              ("tput", rb.Baselines.Replay_only.replay_tps);
              ( "ratio",
                rb.Baselines.Replay_only.replay_tps
                /. rb.Baselines.Replay_only.silo_tps );
              ("speedup", speedup);
            ];
        ])
      sweep
  in
  (* Intra-entry parallel replay: the same captured logs, bulk path, but
     each entry's sorted run cut into [ways] key-disjoint slices applied
     by concurrent processes. Few streams, many spare cores — the regime
     where a follower would otherwise idle most of its machine — so
     replay throughput should scale with [ways] until the slices stop
     amortizing. *)
  Printf.printf "\n  %-8s %12s %9s   (parallel bulk replay, %d streams)\n"
    "ways" "Replay" "speedup" 4;
  let par_threads = 4 in
  let par_gen_dur = dur quick (200 * ms) in
  let par_app = Workload.Tpcc.app (tpcc_params ~workers:par_threads) in
  let par_base = ref nan in
  let par_pts =
    List.map
      (fun ways ->
        let r =
          Baselines.Replay_only.run ~bulk:true ~replay_parallel:ways ~threads:par_threads
            ~generate_duration:par_gen_dur ~app:par_app ()
        in
        Gc.compact ();
        if ways = 1 then par_base := r.Baselines.Replay_only.replay_tps;
        let speedup = r.Baselines.Replay_only.replay_tps /. !par_base in
        Printf.printf "  %-8d %12s %8.2fx\n%!" ways
          (fmt_tps r.Baselines.Replay_only.replay_tps)
          speedup;
        point ~series:"replay_par" ~x:(float_of_int ways)
          [
            ("tput", r.Baselines.Replay_only.replay_tps);
            ("speedup", speedup);
          ])
      (points quick [ 1; 2; 4; 8 ] [ 1; 4 ])
  in
  (* Cluster-level follower replay with the replay-lag telemetry (durable
     frontier minus replayed frontier, sampled on the controller tick);
     the lag percentiles gate via the _ms metric suffix. *)
  Printf.printf "\n  %-10s %-8s %12s %12s %12s %10s\n" "cluster" "workers"
    "tput" "lag p50" "lag p95" "replayed";
  let cl_sweep = points quick [ 8; 16; 24 ] [ 8 ] in
  let cluster_pts =
    List.map
      (fun workers ->
        let app = Workload.Tpcc.app (tpcc_params ~workers) in
        let series = "cluster_bulk" in
        let c = run_rolis ~workers ~duration:(dur quick (400 * ms)) ~app () in
        let lag = Rolis.Cluster.replay_lag c in
        let lag_ms p = float_of_int p /. 1e6 in
        Printf.printf "  %-10s %-8d %12s %9.2f ms %9.2f ms %10d\n%!" series
          workers
          (fmt_tps (Rolis.Cluster.throughput c))
          (match lag with Some (_, p50, _) -> lag_ms p50 | None -> nan)
          (match lag with Some (_, _, p95) -> lag_ms p95 | None -> nan)
          (Rolis.Cluster.replayed_txns c);
        let extra =
          match lag with
          | Some (_, p50, p95) ->
              [ ("lag_p50_ms", lag_ms p50); ("lag_p95_ms", lag_ms p95) ]
          | None -> []
        in
        let p = cluster_point ~extra ~series ~x:(float_of_int workers) c in
        Gc.compact ();
        p)
      cl_sweep
  in
  emit ~fig:"fig15" ~title:"Silo vs replay-only (TPC-C)" ~x_label:"threads"
    ~knobs:[ ("workload", "tpcc") ]
    (pts @ par_pts @ cluster_pts)
