type result = { replay_tps : float; silo_tps : float; replayed : int }

(* Chunk a worker's captured log (forward order) into entries of
   [batch_size] transactions, mirroring what the batcher would have
   proposed. *)
let chunk ~epoch ~batch_size txns =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else Store.Wire.make_entry ~epoch (List.rev cur) :: acc)
    | txn :: rest ->
        if n + 1 >= batch_size then
          go (Store.Wire.make_entry ~epoch (List.rev (txn :: cur)) :: acc) [] 0 rest
        else go acc (txn :: cur) (n + 1) rest
  in
  go [] [] 0 txns

let run ?(seed = 42L) ?(cores = 32) ?costs ?(bulk = false)
    ?(batch_size = 1000) ?(replay_parallel = 1) ?(hash_tables = []) ~threads
    ~generate_duration ~app () =
  (* Phase 1: generate logs with a plain Silo run. *)
  let eng = Sim.Engine.create ~seed () in
  let cpu = Sim.Cpu.create eng ~cores () in
  let db = Silo.Db.create eng cpu ?costs ~hash_tables () in
  app.Rolis.App.setup db;
  let logs = Array.make threads [] in
  (* per worker, reverse order *)
  for w = 0 to threads - 1 do
    let body =
      app.Rolis.App.make_worker db ~rng:(Sim.Rng.split (Sim.Engine.rng eng)) ~worker:w
    in
    let _p =
      Sim.Engine.spawn eng (fun () ->
          Sim.Cpu.register cpu;
          while true do
            let r = Silo.Db.run db ~worker:w body in
            match r.Silo.Db.tid with
            | Some tid ->
                logs.(w) <-
                  { Store.Wire.ts = tid.Silo.Tid.ts; req = None; decision = None; writes = r.Silo.Db.log } :: logs.(w)
            | None -> ()
          done)
    in
    ()
  done;
  Sim.Engine.run ~until:generate_duration eng;
  let generated = Array.fold_left (fun acc l -> acc + List.length l) 0 logs in
  let silo_tps = float_of_int generated *. 1e9 /. float_of_int generate_duration in
  (* Phase 2: fresh engine + database with the same initial load; replay
     the captured logs with [threads] workers — per transaction (the
     paper's loop) or through the sorted bulk-apply fast path, entry by
     entry. *)
  let eng2 = Sim.Engine.create ~seed () in
  let cpu2 = Sim.Cpu.create eng2 ~cores () in
  let db2 = Silo.Db.create eng2 cpu2 ?costs ~physical_deletes:false ~hash_tables () in
  app.Rolis.App.setup db2;
  let replayed = ref 0 in
  let t_done = ref 0 in
  for w = 0 to threads - 1 do
    let mine = List.rev logs.(w) in
    let _p =
      Sim.Engine.spawn eng2 (fun () ->
          Sim.Cpu.register cpu2;
          (if bulk then
             List.iter
               (fun entry ->
                 let res =
                   Silo.Db.apply_replay_entry db2 entry ~ways:replay_parallel
                     ~upto:max_int ()
                 in
                 replayed := !replayed + res.Silo.Db.re_txns)
               (chunk ~epoch:1 ~batch_size mine)
           else
             let applied = ref 0 in
             List.iter
               (fun (txn : Store.Wire.txn_log) ->
                 Silo.Db.apply_replay db2 txn ~epoch:1
                   ~writes:(List.length txn.Store.Wire.writes)
                   ~applied;
                 incr replayed)
               mine);
          Sim.Cpu.unregister cpu2;
          if Sim.Engine.time () > !t_done then t_done := Sim.Engine.time ())
    in
    ()
  done;
  Sim.Engine.run eng2;
  let elapsed = max 1 !t_done in
  {
    replay_tps = float_of_int !replayed *. 1e9 /. float_of_int elapsed;
    silo_tps;
    replayed = !replayed;
  }
