(* Ablations of the design choices DESIGN.md calls out — not figures from
   the paper, but direct tests of its claims:

   A1 stream count:       the design space between the strawman (1 stream)
                          and Rolis (1 per worker); validates §2.3.
   A2 watermark interval: the paper claims the 0.5 ms periodic calculation
                          has "a frequency that does not affect
                          performance" (§2.3); sweep it.
   A3 network latency:    Rolis's thesis is that pipelining masks
                          replication latency; throughput should be nearly
                          flat as RTT grows, with only latency rising.
   A4 replica count:      2f+1 replicas for f failures; more replicas cost
                          only follower resources, not leader throughput. *)

open Common

let tpcc_app workers = Workload.Tpcc.app (tpcc_params ~workers)

let measure cfg app =
  let cluster = Rolis.Cluster.create cfg app in
  Rolis.Cluster.run cluster ~warmup:(350 * ms) ~duration:(250 * ms) ();
  let p50 = Sim.Metrics.Hist.quantile (Rolis.Cluster.latency cluster) 0.5 in
  let tput = Rolis.Cluster.throughput cluster in
  let stages = stage_summaries cluster in
  Gc.compact ();
  (tput, p50, stages)

let measured_point ~x (tput, p50, stages) =
  point ~series:"rolis" ~x ~stages
    [ ("tput", tput); ("p50_ms", float_of_int p50 /. 1e6) ]

let base_cfg workers =
  static_batching { Rolis.Config.default with Rolis.Config.workers; cores = 32 }

let run ~quick =
  header "Ablation A1: number of Paxos streams (16 workers, TPC-C)"
    "From the strawman (1 shared stream) to Rolis (one per worker).";
  let workers = 16 in
  Printf.printf "  %-10s %12s %10s\n" "streams" "tput" "p50(ms)";
  let a1 =
    List.map
      (fun n ->
        let mode =
          if n >= workers then Rolis.Config.Per_worker
          else if n = 1 then Rolis.Config.Single
          else Rolis.Config.Sharded n
        in
        let cfg = { (base_cfg workers) with Rolis.Config.stream_mode = mode } in
        let ((tput, p50, _) as m) = measure cfg (tpcc_app workers) in
        Printf.printf "  %-10d %12s %10s\n%!" n (fmt_tps tput) (fmt_ms p50);
        measured_point ~x:(float_of_int n) m)
      (points quick [ 1; 2; 4; 16 ] [ 1; 4; 16 ])
  in
  emit ~fig:"ablation_a1" ~title:"number of Paxos streams (16 workers, TPC-C)"
    ~x_label:"streams" a1;

  header "Ablation A2: watermark interval (16 workers, TPC-C)"
    "Paper claim: the periodic watermark calculation is not a bottleneck.";
  Printf.printf "  %-12s %12s %10s\n" "interval" "tput" "p50(ms)";
  let a2 =
    List.map
      (fun us_iv ->
        let cfg =
          { (base_cfg 16) with Rolis.Config.watermark_interval = us_iv * Sim.Engine.us }
        in
        let ((tput, p50, _) as m) = measure cfg (tpcc_app 16) in
        Printf.printf "  %-12s %12s %10s\n%!"
          (Printf.sprintf "%gms" (float_of_int us_iv /. 1000.0))
          (fmt_tps tput) (fmt_ms p50);
        measured_point ~x:(float_of_int us_iv /. 1000.0) m)
      (points quick [ 100; 500; 10_000 ] [ 100; 10_000 ])
  in
  emit ~fig:"ablation_a2" ~title:"watermark interval (16 workers, TPC-C)"
    ~x_label:"interval_ms" a2;

  header "Ablation A3: network one-way latency (16 workers, TPC-C)"
    "Pipelining should mask replication latency: flat throughput,\n\
     latency growing with the network.";
  Printf.printf "  %-12s %12s %10s\n" "one-way" "tput" "p50(ms)";
  let a3 =
    List.map
      (fun us_lat ->
        let cfg =
          {
            (base_cfg 16) with
            Rolis.Config.net_latency =
              Sim.Net.Exp_jitter
                { base = us_lat * Sim.Engine.us; jitter_mean = us_lat * Sim.Engine.us / 4 };
          }
        in
        let ((tput, p50, _) as m) = measure cfg (tpcc_app 16) in
        Printf.printf "  %-12s %12s %10s\n%!"
          (Printf.sprintf "%dus" us_lat)
          (fmt_tps tput) (fmt_ms p50);
        measured_point ~x:(float_of_int us_lat) m)
      (points quick [ 10; 1_000; 10_000 ] [ 10; 10_000 ])
  in
  emit ~fig:"ablation_a3" ~title:"network one-way latency (16 workers, TPC-C)"
    ~x_label:"one_way_us" a3;

  header "Ablation A4: replica count (16 workers, TPC-C)"
    "Throughput should be nearly independent of the replication factor.";
  Printf.printf "  %-10s %12s %10s\n" "replicas" "tput" "p50(ms)";
  let a4 =
    List.map
      (fun replicas ->
        let cfg = { (base_cfg 16) with Rolis.Config.replicas } in
        let ((tput, p50, _) as m) = measure cfg (tpcc_app 16) in
        Printf.printf "  %-10d %12s %10s\n%!" replicas (fmt_tps tput) (fmt_ms p50);
        measured_point ~x:(float_of_int replicas) m)
      (points quick [ 3; 5; 7 ] [ 3; 7 ])
  in
  emit ~fig:"ablation_a4" ~title:"replica count (16 workers, TPC-C)"
    ~x_label:"replicas" a4
