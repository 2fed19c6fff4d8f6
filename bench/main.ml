(* Benchmark harness entry point: regenerates every table and figure from
   the paper's evaluation (§6). Each experiment prints the paper's
   landmark numbers next to the measured ones; EXPERIMENTS.md records a
   full comparison.

   Usage:
     dune exec bench/main.exe                 # everything, standard sizes
     dune exec bench/main.exe -- --quick      # reduced sweeps (CI-sized)
     dune exec bench/main.exe -- fig10a fig14 # selected experiments
     dune exec bench/main.exe -- --quick --json  # + write BENCH_rolis.json

   With --json every experiment's structured datapoints (Report.Schema)
   are collected into BENCH_rolis.json in the working directory. Forked
   experiment children hand their results to the parent through
   per-experiment part files, merged (and deleted) after the last child
   exits. *)

let experiments : (string * string * (quick:bool -> unit)) list =
  [
    ("fig02", "strawman: single Paxos stream (TPC-C)", Fig02.run);
    ("fig09", "workload op-count table", Fig09.run);
    ("fig10a", "Rolis vs Silo, TPC-C (+ per-core fig11a)", Fig10.run_tpcc);
    ("fig10b", "Rolis vs Silo, YCSB++ (+ per-core fig11b)", Fig10.run_ycsb);
    ("fig12", "2PL + Calvin vs Rolis (YCSB++)", Fig12.run);
    ("fig13", "Meerkat vs Rolis (YCSB-T / YCSB++)", Fig13.run);
    ("fig14", "failover timeline", Fig14.run);
    ("fig15", "Silo vs replay-only", Fig15.run);
    ("fig16", "batch size vs throughput/latency", Fig16.run);
    ("adaptive", "2 ms budget vs static batching (TPC-C)", Adaptive.run);
    ("fig17", "skewed workload", Fig17.run);
    ("fig18", "factor analysis", Fig18.run);
    ("lat68", "median latency: 2PL / Rolis / Calvin", Lat68.run);
    ("mem5", "delayed-commit memory & log size", Mem5.run);
    ("ablation", "design-choice ablations (streams/watermark/net/replicas)", Ablation.run);
    ("recovery", "failover vs checkpoint recovery (paper s7)", Recovery.run);
    ("avail", "availability through planned operations (reconfiguration)", Avail.run);
    ("alloc", "words allocated per txn / encode (deterministic Gc counters)", Alloc.run);
    ("hashidx", "hash-index vs B-tree point lookups (YCSB-C / TPC-C item)", Hashidx.run);
    ("reads", "follower-read capacity: serving replicas sweep + WAN routing", Reads.run);
    ("shards", "sharded scale-out: aggregate throughput + cross-shard 2PC penalty", Shards.run);
    ("micro", "Bechamel micro-benchmarks", Micro.run);
  ]

let () =
  (* Simulated TPC-C allocates at ~GB/s of virtual rows on a small host:
     trade GC time for memory. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 60 };
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let named = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  let selected =
    if named = [] then experiments
    else
      List.filter_map
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) experiments with
          | Some e -> Some e
          | None ->
              Printf.eprintf "unknown experiment %S; known: %s\n%!" name
                (String.concat " " (List.map (fun (n, _, _) -> n) experiments));
              exit 2)
        named
  in
  Printf.printf "Rolis reproduction benchmark harness%s\n"
    (if quick then " (quick mode)" else "");
  Printf.printf "%d experiment(s): %s\n%!" (List.length selected)
    (String.concat ", " (List.map (fun (n, _, _) -> n) selected));
  let no_fork = List.mem "--no-fork" args in
  let json = List.mem "--json" args in
  let mode = if quick then "quick" else "full" in
  let write_report path results =
    let oc = open_out path in
    output_string oc (Report.Schema.to_string (Report.Schema.make_report ~mode results));
    close_out oc
  in
  let parts_dir =
    if json && not no_fork then begin
      let d = Printf.sprintf ".bench-parts.%d" (Unix.getpid ()) in
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Some d
    end
    else None
  in
  let part_path d name = Filename.concat d (name ^ ".json") in
  (* Run one experiment where it is, and report its wall time and the
     simulator's event rate over it (host cost, not gated). *)
  let timed name run =
    let t = Unix.gettimeofday () and e0 = Sim.Engine.events_fired () in
    run ~quick;
    let dt = Unix.gettimeofday () -. t and events = Sim.Engine.events_fired () - e0 in
    Printf.printf "  [%s done in %.1fs, %d events, %.0f events/s]\n%!" name dt events
      (if dt > 0. then float_of_int events /. dt else 0.)
  in
  let t0 = Unix.gettimeofday () in
  (* Each experiment runs in its own forked child: simulated TPC-C
     allocates GBs of rows and the OCaml major heap does not shrink back
     between experiments, so process isolation is what keeps a long
     multi-experiment run inside host memory. *)
  let run_isolated name run =
    if no_fork then timed name run
    else begin
      flush stdout;
      match Unix.fork () with
      | 0 -> (
          try
            timed name run;
            (match parts_dir with
            | Some d -> write_report (part_path d name) !Common.results
            | None -> ());
            exit 0
          with e ->
            Printf.eprintf "  [%s crashed: %s]\n%!" name (Printexc.to_string e);
            exit 1)
      | pid -> (
          match snd (Unix.waitpid [] pid) with
          | Unix.WEXITED 0 -> ()
          | Unix.WEXITED n -> Printf.printf "  [%s exited with %d]\n%!" name n
          | Unix.WSIGNALED s -> Printf.printf "  [%s killed by signal %d]\n%!" name s
          | Unix.WSTOPPED _ -> Printf.printf "  [%s stopped]\n%!" name)
    end
  in
  List.iter (fun (name, _desc, run) -> run_isolated name run) selected;
  if json then begin
    let results =
      match parts_dir with
      | None -> !Common.results
      | Some d ->
          let merged =
            List.concat_map
              (fun (name, _, _) ->
                let path = part_path d name in
                if not (Sys.file_exists path) then []
                else begin
                  let ic = open_in_bin path in
                  let s = really_input_string ic (in_channel_length ic) in
                  close_in ic;
                  Sys.remove path;
                  match Report.Schema.of_string s with
                  | Ok r -> r.Report.Schema.results
                  | Error e ->
                      Printf.eprintf "  [bad result part %s: %s]\n%!" name e;
                      []
                end)
              selected
          in
          (try Unix.rmdir d with Unix.Unix_error (_, _, _) -> ());
          merged
    in
    write_report "BENCH_rolis.json" results;
    Printf.printf "\nwrote BENCH_rolis.json (%d results)\n%!" (List.length results)
  end;
  Printf.printf "\nAll done in %.1fs.\n%!" (Unix.gettimeofday () -. t0)
