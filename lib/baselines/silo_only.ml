type result = {
  tps : float;
  commits : int;
  user_aborts : int;
  conflict_aborts : int;
  cpu_utilization : float;
}

let run ?(seed = 42L) ?(cores = 32) ?costs ?(warmup = 0)
    ?(extra_cost_per_txn = fun _ -> 0) ?(hash_tables = []) ~workers ~duration
    ~app () =
  let eng = Sim.Engine.create ~seed () in
  let cpu = Sim.Cpu.create eng ~cores () in
  let db = Silo.Db.create eng cpu ?costs ~hash_tables () in
  app.Rolis.App.setup db;
  for w = 0 to workers - 1 do
    let body =
      app.Rolis.App.make_worker db ~rng:(Sim.Rng.split (Sim.Engine.rng eng)) ~worker:w
    in
    let _p =
      Sim.Engine.spawn eng ~name:(Printf.sprintf "silo-worker%d" w) (fun () ->
          Sim.Cpu.register cpu;
          while true do
            let r = Silo.Db.run db ~worker:w body in
            match r.Silo.Db.tid with
            | Some tid ->
                let extra =
                  extra_cost_per_txn
                    { Store.Wire.ts = tid.Silo.Tid.ts; req = None; decision = None; writes = r.Silo.Db.log }
                in
                if extra > 0 then Sim.Cpu.consume cpu extra
            | None -> ()
          done)
    in
    ()
  done;
  if warmup > 0 then begin
    Sim.Engine.run ~until:warmup eng;
    Silo.Db.reset_stats db;
    Sim.Cpu.reset_busy cpu
  end;
  let start = Sim.Engine.now eng in
  Sim.Engine.run ~until:(start + duration) eng;
  let stats = Silo.Db.stats db in
  {
    tps = float_of_int stats.Silo.Db.commits *. 1e9 /. float_of_int duration;
    commits = stats.Silo.Db.commits;
    user_aborts = stats.Silo.Db.user_aborts;
    conflict_aborts = stats.Silo.Db.conflict_aborts;
    cpu_utilization = Sim.Cpu.utilization cpu ~since:start;
  }
