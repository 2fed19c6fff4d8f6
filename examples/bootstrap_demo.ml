(* Adding a brand-new replica without snapshots (paper §4.3): pull a live
   copy from a working follower, then catch up by replaying its retained
   log — idempotent compare-and-swap makes the race harmless.

   Run with: dune exec examples/bootstrap_demo.exe *)

let ms = Sim.Engine.ms

let () =
  let stopped = ref false in
  let app =
    let base = Rolis.App.counter_app ~keys:500 in
    {
      base with
      Rolis.App.make_worker =
        (fun db ~rng ~worker ->
          let body = base.Rolis.App.make_worker db ~rng ~worker in
          fun txn -> if not !stopped then body txn);
    }
  in
  let cfg =
    {
      Rolis.Config.default with
      Rolis.Config.workers = 4;
      cores = 8;
      batch_size = 100;
      archive_entries = true;
      costs = { Silo.Costs.default with Silo.Costs.txn_begin_ns = 20_000 };
    }
  in
  let cluster = Rolis.Cluster.create cfg app in
  let eng = Rolis.Cluster.engine cluster in
  (* The empty machine that wants to join. *)
  let new_cpu = Sim.Cpu.create eng ~cores:8 () in
  let new_db = Silo.Db.create eng new_cpu ~physical_deletes:false () in
  Printf.printf "Running the cluster; starting a bootstrap pull at t = 0.5s...\n%!";
  Sim.Engine.schedule eng (500 * ms) (fun () ->
      ignore
        (Sim.Engine.spawn eng ~name:"bootstrap" (fun () ->
             let src = Rolis.Cluster.replica cluster 1 in
             let rows, applies = Rolis.Bootstrap.sync_new_replica ~src ~dst:new_db () in
             Printf.printf "  [t=%.2fs] snapshot pulled: %d rows, %d log applies won\n%!"
               (float_of_int (Sim.Engine.now eng) /. 1e9)
               rows applies)));
  Rolis.Cluster.run cluster ~duration:Sim.Engine.s ();
  (* Freeze the workload, drain, then top up the new replica with the
     entries that raced with the pull. *)
  stopped := true;
  Rolis.Cluster.run cluster ~duration:Sim.Engine.s ();
  let done_ = ref false in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         let src = Rolis.Cluster.replica cluster 1 in
         let n =
           Rolis.Bootstrap.replay_entries ~dst:new_db (Rolis.Replica.archived_entries src)
         in
         Printf.printf "top-up replay: %d applies won (idempotent re-replay)\n%!" n;
         done_ := true));
  Rolis.Cluster.run cluster ~duration:(100 * ms) ();
  assert !done_;
  (* Compare the new replica against its source. *)
  let dump db =
    let t = Silo.Db.table db "counters" in
    let acc = ref [] in
    Store.Table.iter t (fun k r ->
        if not r.Store.Record.deleted then acc := (k, r.Store.Record.value) :: !acc);
    List.rev !acc
  in
  let src_state = dump (Rolis.Replica.db (Rolis.Cluster.replica cluster 1)) in
  let new_state = dump new_db in
  Printf.printf "new replica matches its sync source: %b (%d keys)\n"
    (src_state = new_state) (List.length new_state)
