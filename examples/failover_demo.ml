(* Failover: kill the leader mid-run and watch the cluster recover
   (paper §6.5, Fig. 14). Prints a 100 ms-bucketed throughput timeline
   around the crash.

   Run with: dune exec examples/failover_demo.exe *)

let s = Sim.Engine.s

let () =
  let params = Workload.Tpcc.with_warehouses Workload.Tpcc.default 8 in
  let cfg =
    {
      Rolis.Config.default with
      Rolis.Config.workers = 8;
      cores = 16;
      election_timeout = 1 * s; (* the paper's setting *)
      (* Slow the cost model down so 8 virtual seconds of TPC-C stays
         laptop-sized; recovery timing is cost-independent. *)
      costs = Silo.Costs.scale 25.0 Silo.Costs.default;
      batch_size = 50;
    }
  in
  let cluster = Rolis.Cluster.create cfg (Workload.Tpcc.app params) in
  let eng = Rolis.Cluster.engine cluster in
  let crash_at = 3 * s in
  Printf.printf "Running TPC-C; killing the leader at t = %ds...\n%!" (crash_at / s);
  Sim.Engine.schedule eng crash_at (fun () ->
      Printf.printf "  [t=%.1fs] leader (replica 0) crashed\n%!"
        (float_of_int (Sim.Engine.now eng) /. 1e9);
      Rolis.Cluster.crash_replica cluster 0);
  Rolis.Cluster.run cluster ~duration:(8 * s) ();
  (match Rolis.Cluster.leader cluster with
  | Some r ->
      Printf.printf "new leader: replica %d (epoch %d)\n" (Rolis.Replica.id r)
        (Paxos.Election.epoch (Rolis.Replica.election r))
  | None -> print_endline "no leader elected!");
  print_endline "\nthroughput timeline (100 ms buckets):";
  List.iter
    (fun (t, rate) ->
      let bar = String.make (min 60 (int_of_float (rate /. 500.0))) '#' in
      Printf.printf "  %5.1fs %9.0f tps %s\n" t rate bar)
    (List.filter (fun (t, _) -> t > 2.0 && t < 7.0) (Rolis.Cluster.release_rate cluster));
  match Rolis.Cluster.leader cluster with
  | Some r ->
      let errors = Workload.Tpcc.consistency_errors params (Rolis.Replica.db r) in
      Printf.printf "\nTPC-C consistency on the new leader: %s\n"
        (if errors = [] then "OK" else String.concat "; " errors)
  | None -> ()
