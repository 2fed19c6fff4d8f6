let src = Logs.Src.create "rolis.chaos" ~doc:"Chaos harness events"

module Log = (val Logs.src_log src : Logs.LOG)

let ms = Sim.Engine.ms

let bank_table = "accounts"
let initial_balance = 1_000

(* The paper's Fig. 3 workload: move a random amount between two random
   accounts in one transaction. Total money is the conserved quantity the
   final check asserts on every replica. [stopped] freezes generation so
   the cluster can quiesce: the embedded generator then emits the empty
   payload, a no-op body (as does a drawn self-transfer). [range] loads
   only an inclusive slice of the account space — how a sharded
   deployment gives each shard its own partition (conservation then only
   holds *globally*, which is exactly what {!Check.money_sharded}
   asserts). The op additionally understands the one-sided halves a
   cross-shard transfer splits into: ["w a amt"] withdraws, ["c a amt"]
   credits. *)
let bank_app ?range ~accounts ~stopped () =
  let key i = Store.Keycodec.encode [ Store.Keycodec.I i ] in
  let lo, hi = match range with Some r -> r | None -> (0, accounts - 1) in
  App.make ~name:"chaos-bank"
    ~setup:(fun db ->
      let t = Silo.Db.create_table db bank_table in
      for i = lo to hi do
        Store.Table.insert t (key i)
          (Store.Record.make (string_of_int initial_balance))
      done)
    ~payloads:(fun ~rng ~worker:_ () ->
      if !stopped then ""
      else
        let a = Sim.Rng.int rng accounts and b = Sim.Rng.int rng accounts in
        if a = b then "" else Printf.sprintf "%d %d %d" a b (1 + Sim.Rng.int rng 10))
    ~op:(fun db ~payload txn ->
      let t = Silo.Db.table db bank_table in
      let bal k =
        match Silo.Txn.get txn t (key k) with
        | Some v -> int_of_string v
        | None -> failwith (Printf.sprintf "chaos: account %d missing" k)
      in
      match String.split_on_char ' ' payload with
      | [ "" ] -> ()
      | [ "w"; a; amt ] ->
          let a = int_of_string a and amount = int_of_string amt in
          Silo.Txn.put txn t (key a) (string_of_int (bal a - amount))
      | [ "c"; a; amt ] ->
          let a = int_of_string a and amount = int_of_string amt in
          Silo.Txn.put txn t (key a) (string_of_int (bal a + amount))
      | [ a; b; amt ] ->
          let a = int_of_string a and b = int_of_string b in
          let amount = int_of_string amt in
          let va = bal a and vb = bal b in
          Silo.Txn.put txn t (key a) (string_of_int (va - amount));
          Silo.Txn.put txn t (key b) (string_of_int (vb + amount))
      | _ -> failwith "chaos: bad transfer payload")
    ~read_op:(fun db ~payload snap ->
      let t = Silo.Db.table db bank_table in
      match Silo.Db.snap_get snap t (key (int_of_string payload)) with
      | Some v -> v
      | None -> string_of_int initial_balance)
    ()

(* Client-side request generator: "a b amount" with a <> b. *)
let bank_payload rng ~accounts =
  let a = Sim.Rng.int rng accounts in
  let b = (a + 1 + Sim.Rng.int rng (accounts - 1)) mod accounts in
  Printf.sprintf "%d %d %d" a b (1 + Sim.Rng.int rng 10)

(* Read-session payload: one account id, answered with its balance. *)
let bank_read_payload rng ~accounts = string_of_int (Sim.Rng.int rng accounts)

type outcome = {
  seed : int;
  violations : Check.violation list;
  released : int;
  executed : int;
  crashes : int;
  restarts : int;
  epochs : int;
  entries_checked : int;
  acked : int;
  client_retries : int;
  busy_replies : int;
  parked : int;
  checkpoints : int;
  truncations : int;
  rebuilds : int;
  adds : int;
  removes : int;
  handoffs : int;
  ops_skipped : int;
  reads_acked : int;
  reads_served : int;
  reads_parked : int;
  reads_redirected : int;
  read_misses : int;
  shards : int; (* 1 for a classic single-group run *)
  cross_committed : int;
  cross_aborted : int;
}

let ok o = o.violations = []

let pp_outcome fmt o =
  Format.fprintf fmt
    "seed %d: %s (released=%d executed=%d crashes=%d restarts=%d epochs=%d \
     entries=%d acked=%d retries=%d busy=%d parked=%d ckpts=%d truncs=%d \
     rebuilds=%d adds=%d removes=%d handoffs=%d skipped=%d)"
    o.seed
    (if ok o then "ok" else Printf.sprintf "%d VIOLATIONS" (List.length o.violations))
    o.released o.executed o.crashes o.restarts o.epochs o.entries_checked o.acked
    o.client_retries o.busy_replies o.parked o.checkpoints o.truncations
    o.rebuilds o.adds o.removes o.handoffs o.ops_skipped;
  if o.reads_acked + o.reads_served + o.reads_parked + o.reads_redirected > 0 then
    Format.fprintf fmt
      " (reads: acked=%d served=%d parked=%d redirected=%d misses=%d)"
      o.reads_acked o.reads_served o.reads_parked o.reads_redirected
      o.read_misses;
  if o.shards > 1 then
    Format.fprintf fmt " (shards=%d cross: committed=%d aborted=%d)" o.shards
      o.cross_committed o.cross_aborted;
  List.iter (fun v -> Format.fprintf fmt "@.  %a" Check.pp_violation v) o.violations

let chaos_costs =
  { Silo.Costs.default with Silo.Costs.txn_begin_ns = 50_000; abort_ns = 5_000 }

let run_seed ?(replicas = 3) ?(workers = 4) ?(clients = 8) ?(accounts = 48)
    ?(duration = 3 * Sim.Engine.s) ?(checkpoint_interval = 0)
    ?(history_warmup = 0) ?(ops = false) ?(spares = 2)
    ?(follower_reads = false) ?(read_clients = 4) ?(read_lease = 150 * ms)
    ?(wan_profile = "") ~seed () =
  let stopped = ref false in
  let read_clients = if follower_reads then read_clients else 0 in
  (* Rolling-operations mode keeps checkpointing on: joining learners
     bootstrap from the newest image + journal tail (the PR-6 path) and
     the truncation retention gate must prove it holds log for them. *)
  let checkpoint_interval =
    if ops && checkpoint_interval = 0 then 500 * ms else checkpoint_interval
  in
  let spares = if ops then spares else 0 in
  let cfg =
    {
      Config.default with
      Config.replicas;
      workers;
      cores = 2 * workers;
      batch_size = 50;
      costs = chaos_costs;
      physical_serialization = true;
      archive_entries = true;
      heartbeat_interval = 50 * ms;
      election_timeout = 300 * ms;
      clients = clients + read_clients;
      seed = Int64.of_int seed;
      follower_reads;
      read_lease;
      wan_profile;
      (* Checkpoint chaos: short retention (the floor is the election
         timeout) so truncation rounds actually fire inside a few virtual
         seconds, making crashes race in-progress checkpoints and
         recoveries race truncation. *)
      checkpoint_interval;
      checkpoint_retention = 300 * ms;
      spare_replicas = spares;
      min_members = (if ops then 2 else Config.default.Config.min_members);
    }
  in
  let oracle = Check.Oracle.create () in
  let crashes = ref 0 and restarts = ref 0 in
  let cluster =
    Cluster.create ~on_durable:(Check.Oracle.observe oracle) cfg
      (bank_app ~accounts ~stopped ())
  in
  let eng = Cluster.engine cluster in
  let net = Cluster.network cluster in
  (* Real client sessions drive the bank when [clients > 0]: they retry
     across crashes, partitions and elections, and the exactly-once check
     below audits their acks against the union durable log. *)
  let sessions =
    Array.init clients (fun cid ->
        let crng = Sim.Rng.split (Sim.Engine.rng eng) in
        Client.spawn net ~cfg ~cid ~stopped
          ~stats:(Cluster.client_stats cluster)
          ~gen:(fun () -> bank_payload crng ~accounts)
          ())
  in
  (* Read-only sessions ride the same network on the client ids above the
     write sessions. Their acks are balance reads — they must NOT feed
     the exactly-once audit (reads are idempotent by construction); the
     snapshot-read oracle audits them instead. *)
  let read_sessions =
    Array.init read_clients (fun j ->
        let crng = Sim.Rng.split (Sim.Engine.rng eng) in
        Client.spawn net ~cfg ~cid:(clients + j) ~stopped ~ro:true
          ~stats:(Cluster.client_read_stats cluster)
          ~gen:(fun () -> bank_read_payload crng ~accounts)
          ())
  in
  (* Continuous light checking: sealed watermarks must agree while faults
     are active (the oracle checks agreement on every commit already). *)
  let periodic_viols = ref [] in
  ignore
    (Sim.Engine.spawn eng ~name:"chaos-checker" (fun () ->
         while true do
           Sim.Engine.sleep (100 * ms);
           if !periodic_viols = [] then
             periodic_viols := Check.watermark_agreement cluster
         done));
  let violations =
    try
      (* Steady state first, then unleash the nemesis. The plan and the
         cluster share nothing but the seed, yet both are deterministic
         functions of it — a failing seed replays exactly. *)
      Cluster.run cluster ~duration:(300 * ms) ();
      (* Long-history scenarios: keep the cluster healthy for an extra
         warm-up so journals grow, checkpoints complete and truncation
         rounds fire *before* the first fault — the nemesis then crashes
         into a cluster whose logs are already compacted. *)
      if history_warmup > 0 then Cluster.run cluster ~duration:history_warmup ();
      let nrng = Sim.Rng.split (Sim.Engine.rng eng) in
      let plan =
        if ops then
          Sim.Fault.ops_plan nrng ~base:replicas ~spares
            ~min_members:cfg.Config.min_members ()
        else Sim.Fault.random_plan nrng ~nodes:replicas ()
      in
      Log.debug (fun m -> m "seed %d plan:@.%a" seed Sim.Fault.pp_plan plan);
      ignore
        (Sim.Fault.spawn net
           ~on_crash:(fun i ->
             incr crashes;
             Cluster.crash_replica cluster i)
           ~on_restart:(fun i ->
             incr restarts;
             Cluster.restart_replica cluster i)
           ~on_add:(fun i -> ignore (Cluster.add_replica cluster i))
           ~on_remove:(fun i -> ignore (Cluster.remove_replica cluster i))
           ~on_handoff:(fun i -> ignore (Cluster.handoff cluster ~target:i))
           ~on_step:(fun a -> Log.debug (fun m -> m "nemesis: %a" Sim.Fault.pp_action a))
           plan);
      Cluster.run cluster ~duration ();
      (* Quiesce: stop the workload, heal everything, revive stragglers the
         plan's own quiesce tail may have missed — but only nodes that are
         still part of the deployment: decommissioned voters and dark
         spare slots must stay down. *)
      stopped := true;
      Sim.Net.heal_all net;
      Sim.Net.clear_faults net;
      let in_deployment i =
        List.mem i (Cluster.members cluster)
        || List.mem i (Cluster.learners cluster)
      in
      Array.iter
        (fun r ->
          if in_deployment (Replica.id r) && not (Replica.is_alive r) then begin
            incr restarts;
            Cluster.restart_replica cluster (Replica.id r)
          end)
        (Cluster.replicas cluster);
      Cluster.run cluster ~duration:(500 * ms) ();
      (* Tainted ex-leaders hold speculative writes that were never
         released; rebuild them so the convergence check covers every
         replica. *)
      Array.iter
        (fun r ->
          if in_deployment (Replica.id r) && Replica.is_tainted r then begin
            incr restarts;
            Cluster.restart_replica cluster (Replica.id r)
          end)
        (Cluster.replicas cluster);
      (* Drain: heartbeat no-ops push the watermark past the last real
         transaction; followers finish replay. *)
      Cluster.run cluster ~duration:(2_500 * ms) ();
      let acked =
        Array.to_list sessions |> List.concat_map Client.acked_seqs
      in
      Check.Oracle.violations oracle
      @ !periodic_viols
      @ Check.agreement cluster
      @ Check.watermark_agreement cluster
      @ Check.membership_agreement cluster
      @ Check.convergence cluster
      @ Check.money cluster ~table:bank_table
          ~expected:(accounts * initial_balance)
      @ (if clients > 0 then Check.exactly_once cluster ~acked else [])
      @ (if follower_reads then Check.snapshot_reads cluster else [])
    with exn ->
      [
        {
          Check.check = "exception";
          detail = Printexc.to_string exn;
        };
      ]
  in
  let epochs =
    Array.fold_left
      (fun m r ->
        if Replica.is_alive r then max m (Paxos.Election.epoch (Replica.election r))
        else m)
      0 (Cluster.replicas cluster)
  in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 sessions in
  let rsum f = Array.fold_left (fun acc c -> acc + f c) 0 read_sessions in
  {
    seed;
    violations;
    released = Cluster.released cluster;
    executed = Cluster.executed cluster;
    crashes = !crashes;
    restarts = !restarts;
    epochs;
    entries_checked = Check.Oracle.entries_checked oracle;
    acked = sum Client.acked_count;
    client_retries = sum Client.retries;
    busy_replies = sum Client.busy_replies;
    parked = sum Client.parked;
    checkpoints = Cluster.checkpoints_taken cluster;
    truncations = Cluster.truncation_rounds cluster;
    rebuilds = Cluster.auto_rebuilds cluster;
    adds = Cluster.adds cluster;
    removes = Cluster.removes cluster;
    handoffs = Cluster.handoffs cluster;
    ops_skipped = Cluster.ops_skipped cluster;
    reads_acked = rsum Client.acked_count;
    reads_served = Cluster.reads_served cluster;
    reads_parked = Cluster.reads_parked cluster;
    reads_redirected = Cluster.reads_redirected cluster;
    read_misses = Cluster.read_misses cluster;
    shards = 1;
    cross_committed = 0;
    cross_aborted = 0;
  }

(* ---- sharded chaos: crash coordinators and participants mid-2PC ----

   Each shard is a full cluster over its own partition of the account
   space; drivers run cross-shard transfers (one-sided halves committed
   through 2PC) at [cross_pct]. Every shard gets its own independent
   nemesis plan, so coordinator and participant shards crash, partition
   and fail over at uncorrelated moments — including between a prepare
   and its decision, and between a decision and its applies. The final
   audit layers the cross-shard oracle and *global* conservation on top
   of every per-shard check. Checkpointing stays off: truncation could
   drop decision-carrying slots the cross-shard oracle needs. *)
let run_sharded_seed ?(shards = 2) ?(cross_pct = 0.2) ?(replicas = 3)
    ?(workers = 4) ?(drivers = 6) ?(accounts_per_shard = 24)
    ?(duration = 2 * Sim.Engine.s) ~seed () =
  let accounts = shards * accounts_per_shard in
  let router = Router.ycsb ~keys:accounts ~shards in
  let cfg =
    {
      Config.default with
      Config.replicas;
      workers;
      cores = 2 * workers;
      batch_size = 50;
      costs = chaos_costs;
      physical_serialization = true;
      archive_entries = true;
      heartbeat_interval = 50 * ms;
      election_timeout = 300 * ms;
      clients = drivers;
      seed = Int64.of_int seed;
      shards;
      cross_pct;
    }
  in
  let oracles = Array.init shards (fun _ -> Check.Oracle.create ()) in
  let crashes = ref 0 and restarts = ref 0 in
  let dep =
    Shard.create
      ~on_durable:(fun ~shard -> Check.Oracle.observe oracles.(shard))
      cfg router
      (fun ~shard ->
        bank_app
          ~range:(Router.ycsb_key_range router ~keys:accounts shard)
          ~accounts ~stopped:(ref false) ())
      ~gen:(fun ~rng ~driver:_ () ->
        let sa = Sim.Rng.int rng shards in
        let lo, hi = Router.ycsb_key_range router ~keys:accounts sa in
        let a = lo + Sim.Rng.int rng (hi - lo + 1) in
        let amount = 1 + Sim.Rng.int rng 10 in
        if shards > 1 && Sim.Rng.float rng 1.0 < cross_pct then begin
          let sb =
            let x = Sim.Rng.int rng (shards - 1) in
            if x >= sa then x + 1 else x
          in
          let blo, bhi = Router.ycsb_key_range router ~keys:accounts sb in
          let b = blo + Sim.Rng.int rng (bhi - blo + 1) in
          Shard.Multi
            [
              (sa, Printf.sprintf "w %d %d" a amount);
              (sb, Printf.sprintf "c %d %d" b amount);
            ]
        end
        else
          let b =
            let x = lo + Sim.Rng.int rng (hi - lo) in
            if x >= a then x + 1 else x
          in
          Shard.Single (sa, Printf.sprintf "%d %d %d" a b amount))
  in
  let eng = Shard.engine dep in
  let clusters = Shard.clusters dep in
  let violations =
    try
      Shard.run dep ~duration:(300 * ms) ();
      (* One independent nemesis per shard, each a deterministic function
         of the run seed via engine-RNG splits. *)
      Array.iter
        (fun cluster ->
          let nrng = Sim.Rng.split (Sim.Engine.rng eng) in
          let plan = Sim.Fault.random_plan nrng ~nodes:replicas () in
          Log.debug (fun m -> m "seed %d plan:@.%a" seed Sim.Fault.pp_plan plan);
          ignore
            (Sim.Fault.spawn (Cluster.network cluster)
               ~on_crash:(fun i ->
                 incr crashes;
                 Cluster.crash_replica cluster i)
               ~on_restart:(fun i ->
                 incr restarts;
                 Cluster.restart_replica cluster i)
               ~on_step:(fun a ->
                 Log.debug (fun m -> m "nemesis: %a" Sim.Fault.pp_action a))
               plan))
        clusters;
      Shard.run dep ~duration ();
      (* Quiesce: freeze the drivers (each finishes its in-flight 2PC),
         heal every shard's network, revive stragglers and tainted
         ex-leaders, then drain replay everywhere. *)
      let drivers_idled = Shard.quiesce dep in
      Array.iter
        (fun cluster ->
          let net = Cluster.network cluster in
          Sim.Net.heal_all net;
          Sim.Net.clear_faults net;
          Array.iter
            (fun r ->
              if not (Replica.is_alive r) then begin
                incr restarts;
                Cluster.restart_replica cluster (Replica.id r)
              end)
            (Cluster.replicas cluster))
        clusters;
      Shard.run dep ~duration:(500 * ms) ();
      Array.iter
        (fun cluster ->
          Array.iter
            (fun r ->
              if Replica.is_tainted r then begin
                incr restarts;
                Cluster.restart_replica cluster (Replica.id r)
              end)
            (Cluster.replicas cluster))
        clusters;
      Shard.run dep ~duration:(2_500 * ms) ();
      let stuck =
        if Shard.quiesce ~timeout:(5 * Sim.Engine.s) dep then []
        else
          [
            Check.
              {
                check = "quiesce";
                detail = "a driver never finished its in-flight 2PC";
              };
          ]
      in
      ignore drivers_idled;
      let per_shard =
        Array.to_list
          (Array.mapi
             (fun s cluster ->
               Check.Oracle.violations oracles.(s)
               @ Check.agreement cluster
               @ Check.watermark_agreement cluster
               @ Check.convergence cluster
               @ Check.exactly_once cluster ~acked:(Shard.acked_seqs dep s))
             clusters)
        |> List.concat
      in
      stuck @ per_shard
      @ Check.cross_shard clusters
      @ Check.money_sharded clusters ~table:bank_table
          ~expected:(accounts * initial_balance)
    with exn ->
      [ { Check.check = "exception"; detail = Printexc.to_string exn } ]
  in
  let epochs =
    Array.fold_left
      (fun m cluster ->
        Array.fold_left
          (fun m r ->
            if Replica.is_alive r then
              max m (Paxos.Election.epoch (Replica.election r))
            else m)
          m (Cluster.replicas cluster))
      0 clusters
  in
  {
    seed;
    violations;
    released = Shard.released dep;
    executed =
      Array.fold_left (fun acc c -> acc + Cluster.executed c) 0 clusters;
    crashes = !crashes;
    restarts = !restarts;
    epochs;
    entries_checked =
      Array.fold_left
        (fun acc o -> acc + Check.Oracle.entries_checked o)
        0 oracles;
    acked =
      List.init shards (fun s -> List.length (Shard.acked_seqs dep s))
      |> List.fold_left ( + ) 0;
    client_retries = Shard.client_retries dep;
    busy_replies = 0;
    parked = 0;
    checkpoints = 0;
    truncations = 0;
    rebuilds = 0;
    adds = 0;
    removes = 0;
    handoffs = 0;
    ops_skipped = 0;
    reads_acked = 0;
    reads_served = 0;
    reads_parked = 0;
    reads_redirected = 0;
    read_misses = 0;
    shards;
    cross_committed = Shard.cross_committed dep;
    cross_aborted = Shard.cross_aborted dep;
  }

let run_sharded_seeds ?shards ?cross_pct ?replicas ?workers ?drivers
    ?accounts_per_shard ?duration ?(seed0 = 1) ?on_outcome ~seeds () =
  let outcomes = ref [] in
  for i = 0 to seeds - 1 do
    let o =
      run_sharded_seed ?shards ?cross_pct ?replicas ?workers ?drivers
        ?accounts_per_shard ?duration ~seed:(seed0 + i) ()
    in
    (match on_outcome with Some f -> f o | None -> ());
    outcomes := o :: !outcomes
  done;
  let outcomes = List.rev !outcomes in
  (outcomes, List.find_opt (fun o -> not (ok o)) outcomes)

let run_seeds ?replicas ?workers ?clients ?accounts ?duration ?checkpoint_interval
    ?history_warmup ?ops ?spares ?follower_reads ?read_clients ?read_lease
    ?wan_profile ?(seed0 = 1) ?on_outcome ~seeds () =
  let outcomes = ref [] in
  for i = 0 to seeds - 1 do
    let o =
      run_seed ?replicas ?workers ?clients ?accounts ?duration
        ?checkpoint_interval ?history_warmup ?ops ?spares ?follower_reads
        ?read_clients ?read_lease ?wan_profile ~seed:(seed0 + i) ()
    in
    (match on_outcome with Some f -> f o | None -> ());
    outcomes := o :: !outcomes
  done;
  let outcomes = List.rev !outcomes in
  (outcomes, List.find_opt (fun o -> not (ok o)) outcomes)
