(* TPC-C on a 3-replica Rolis cluster: runs the full five-transaction mix
   for one virtual second, prints throughput/latency, the per-type
   read/write profile (cf. paper Fig. 9), and verifies the TPC-C
   consistency conditions on the leader afterwards.

   Run with: dune exec examples/tpcc_demo.exe *)

let ms = Sim.Engine.ms

let () =
  let params = Workload.Tpcc.with_warehouses Workload.Tpcc.default 8 in
  let cfg = { Rolis.Config.default with Rolis.Config.workers = 8; cores = 16 } in
  Printf.printf "Loading %d warehouses on 3 replicas...\n%!" params.Workload.Tpcc.warehouses;
  let cluster = Rolis.Cluster.create cfg (Workload.Tpcc.app params) in
  Printf.printf "Running the official mix (45/43/4/4/4) for 1 virtual second...\n%!";
  Rolis.Cluster.run cluster ~warmup:(300 * ms) ~duration:Sim.Engine.s ();
  Printf.printf "throughput: %.0f TPS (release-committed)\n" (Rolis.Cluster.throughput cluster);
  let lat = Rolis.Cluster.latency cluster in
  Printf.printf "latency: p50 = %.1f ms, p95 = %.1f ms\n"
    (float_of_int (Sim.Metrics.Hist.quantile lat 0.5) /. 1e6)
    (float_of_int (Sim.Metrics.Hist.quantile lat 0.95) /. 1e6);
  (* Per-transaction-type profile, measured on a scratch database. *)
  Printf.printf "\nper-type access profile (measured):\n";
  Printf.printf "  %-12s %8s %8s\n" "type" "reads" "writes";
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:4 () in
  let db = Silo.Db.create eng cpu () in
  Workload.Tpcc.setup params db;
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  let profile = Hashtbl.create 8 in
  let _p =
    Sim.Engine.spawn eng (fun () ->
        List.iter
          (fun kind ->
            let reads = ref 0 and writes = ref 0 and n = ref 0 in
            for _ = 1 to 50 do
              let payload = Workload.Tpcc.payload rng ~w:1 kind in
              let r = Silo.Db.run db ~worker:0 (Workload.Tpcc.op params db ~payload) in
              if r.Silo.Db.tid <> None then begin
                reads := !reads + r.Silo.Db.reads;
                writes := !writes + r.Silo.Db.writes;
                incr n
              end
            done;
            if !n > 0 then
              Hashtbl.replace profile kind
                (float_of_int !reads /. float_of_int !n, float_of_int !writes /. float_of_int !n))
          Workload.Tpcc.all_kinds)
  in
  Sim.Engine.run eng;
  List.iter
    (fun kind ->
      match Hashtbl.find_opt profile kind with
      | Some (r, w) ->
          Printf.printf "  %-12s %8.1f %8.1f\n" (Workload.Tpcc.kind_name kind) r w
      | None -> ())
    Workload.Tpcc.all_kinds;
  (* Consistency conditions on the serving leader. *)
  match Rolis.Cluster.leader cluster with
  | None -> print_endline "\nno leader?!"
  | Some r ->
      let errors = Workload.Tpcc.consistency_errors params (Rolis.Replica.db r) in
      if errors = [] then print_endline "\nTPC-C consistency checks: OK"
      else begin
        print_endline "\nTPC-C consistency VIOLATIONS:";
        List.iter print_endline errors
      end
