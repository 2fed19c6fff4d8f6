(* Latency budget vs the static point (TPC-C): the batch_submit latency
   gap. The paper's static sweep (Fig. 16) exposes the tension — batch 50
   keeps p50 near 2 ms but gives up throughput, batch 3200 peaks
   throughput at >100 ms p50. A 2 ms budget targets latency instead of a
   size: at low and medium load it flushes on the deadline (small entries,
   proposal coalescing repays the per-entry overhead), at saturation the
   rate-derived target grows back into large batches. The static series
   is the same batcher with a budget and byte cap that never bind.
   Expected: p50 cut >= 2x vs the static default batch at low/medium
   load, throughput within noise at saturation. *)

open Common

let run ~quick =
  header "Batching: 2 ms budget vs the static point (TPC-C)"
    "Closed-loop latency budget (2 ms) vs the static default batch.\n\
     Expect: p50 >= 2x lower at low/medium load, comparable saturated tput.";
  Printf.printf "  %-10s %-8s %12s %8s %8s %10s %10s\n" "budget" "workers"
    "tput" "p50" "p95" "deadline" "coalesced";
  let sweep = points quick [ 2; 4; 8; 16 ] [ 2; 8; 16 ] in
  let series ?target_delay name =
    List.map
      (fun workers ->
        let cluster =
          run_rolis ?target_delay ~workers
            ~warmup:(dur quick (350 * ms))
            ~duration:(dur quick (300 * ms))
            ~app:(Workload.Tpcc.app (tpcc_params ~workers))
            ()
        in
        let lat = Rolis.Cluster.latency cluster in
        Printf.printf "  %-10s %-8d %12s %8s %8s %10d %10d\n%!" name workers
          (fmt_tps (Rolis.Cluster.throughput cluster))
          (fmt_ms (Sim.Metrics.Hist.quantile lat 0.50))
          (fmt_ms (Sim.Metrics.Hist.quantile lat 0.95))
          (Rolis.Cluster.count cluster Rolis.Stats.Deadline_flushes)
          (Rolis.Cluster.coalesced_proposals cluster);
        let p =
          cluster_point ~series:name ~x:(float_of_int workers)
            ~extra:
              [
                ( "avg_batch",
                  float_of_int (Rolis.Cluster.count cluster Rolis.Stats.Released)
                  /. float_of_int
                       (max 1 (Rolis.Cluster.count cluster Rolis.Stats.Entries_flushed))
                );
              ]
            cluster
        in
        Gc.compact ();
        p)
      sweep
  in
  let static = series "static" in
  let budget = series ~target_delay:(2 * ms) "2ms" in
  emit ~fig:"adaptive" ~title:"2 ms budget vs static batching (TPC-C)"
    ~x_label:"workers"
    ~knobs:[ ("workload", "tpcc"); ("target_delay_ms", "2") ]
    (static @ budget)
