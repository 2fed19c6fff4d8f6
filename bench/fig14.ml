(* Figure 14: failover timeline. Kill the leader at t = 10 s; the system
   blocks for roughly the 1 s heartbeat timeout plus election and
   old-epoch replay (~1.5-2 s in the paper), then spikes while queued
   transactions drain and settles slightly above the pre-crash level (two
   replicas cost less networking than three).

   Memory note: 30 virtual seconds of paper-rate TPC-C would allocate tens
   of GB of simulated rows, so this experiment scales every CPU cost up
   50x — recovery timing (timeout, election, replay) is unchanged, and the
   timeline is reported both in absolute TPS and relative to the pre-crash
   average. *)

open Common

let cost_scale = 50.0

let run ~quick =
  header "Figure 14: failover timeline (TPC-C, leader killed at t=10s)"
    "Paper: ~1.5-2s outage (1s heartbeat timeout), recovery spike, then\n\
     steady state slightly above pre-crash. Costs scaled 50x (see note).";
  let threads = points quick [ 4; 8; 16 ] [ 8 ] in
  let pts = ref [] in
  List.iter
    (fun workers ->
      let cfg =
        static_batching
          {
            Rolis.Config.default with
            Rolis.Config.workers;
            cores = 32;
            batch_size = 50;
            costs = Silo.Costs.scale cost_scale Silo.Costs.default;
            election_timeout = 1 * s;
          }
      in
      let cluster =
        Rolis.Cluster.create cfg (Workload.Tpcc.app (tpcc_params ~workers))
      in
      let eng = Rolis.Cluster.engine cluster in
      Sim.Engine.schedule eng (10 * s) (fun () -> Rolis.Cluster.crash_replica cluster 0);
      let horizon = if quick then 16 * s else 25 * s in
      Rolis.Cluster.run cluster ~duration:horizon ();
      let series = Rolis.Cluster.release_rate cluster in
      let pre =
        let xs = List.filter (fun (t, _) -> t > 2.0 && t < 9.5) series in
        List.fold_left (fun a (_, r) -> a +. r) 0.0 xs /. float_of_int (max 1 (List.length xs))
      in
      Printf.printf "\n  -- %d threads (pre-crash avg %s TPS) --\n" workers (fmt_tps pre);
      (* Buckets in which nothing was released are absent from the
         series; walk a complete 100 ms grid so the outage shows up. *)
      let rate_at t =
        match List.find_opt (fun (x, _) -> abs_float (x -. t) < 0.001) series with
        | Some (_, r) -> r
        | None -> 0.0
      in
      let gap_start = ref None and gap_end = ref None in
      let t = ref 9.9 in
      while !t < float_of_int horizon /. 1e9 -. 0.2 do
        let r = rate_at !t in
        if r = 0.0 && !gap_start = None then gap_start := Some !t;
        if !gap_start <> None && !gap_end = None && !t > 10.2 && r > 0.0 then
          gap_end := Some !t;
        t := !t +. 0.1
      done;
      (match (!gap_start, !gap_end) with
      | Some a, Some b -> Printf.printf "  outage: %.1fs -> %.1fs (%.1fs)\n" a b (b -. a)
      | _ -> Printf.printf "  outage: not detected\n");
      let outage =
        match (!gap_start, !gap_end) with
        | Some a, Some b -> [ ("outage_ms", (b -. a) *. 1000.0) ]
        | _ -> []
      in
      pts :=
        point ~series:"rolis" ~x:(float_of_int workers) (("tput", pre) :: outage)
        :: !pts;
      List.iter
        (fun (t, r) ->
          if t >= 8.0 && t <= 16.0 then begin
            let rel = if pre > 0.0 then r /. pre else 0.0 in
            let bar = String.make (min 60 (int_of_float (rel *. 30.0))) '#' in
            Printf.printf "  %5.1fs %10s (%4.0f%%) %s\n" t (fmt_tps r) (100.0 *. rel) bar
          end)
        series;
      Printf.printf "%!";
      Gc.compact ())
    threads;
  (* [tput] is the pre-crash average; [outage_ms] the detected gap in the
     release-rate timeline after the leader is killed. *)
  emit ~fig:"fig14" ~title:"failover timeline" ~x_label:"threads"
    ~knobs:[ ("cost_scale", "50"); ("election_timeout_ms", "1000") ]
    (List.rev !pts)
