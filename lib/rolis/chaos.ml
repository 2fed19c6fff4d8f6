let src = Logs.Src.create "rolis.chaos" ~doc:"Chaos harness events"

module Log = (val Logs.src_log src : Logs.LOG)

let ms = Sim.Engine.ms

let bank_table = "accounts"
let initial_balance = 1_000

(* The paper's Fig. 3 workload: move a random amount between two random
   accounts in one transaction. Total money is the conserved quantity the
   final check asserts on every replica (a drawn self-transfer is the
   empty payload, a no-op body). [range] loads only an inclusive slice of
   the account space — how a sharded deployment gives each shard its own
   partition (conservation then only holds *globally*, which is exactly
   what {!Check.money_sharded} asserts). The op additionally understands
   the one-sided halves a cross-shard transfer splits into: ["w a amt"]
   withdraws, ["c a amt"] credits. *)
let bank_app ?range ~accounts () =
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

(* One runner for every chaos mode: a {!Shard} deployment of [shards]
   bank clusters, each loading its own partition of the account space
   ([shards = 1] is the classic single group). Drivers are real client
   sessions riding each cluster's network: they time out, back off, chase
   leader redirects and retry across failover — precisely what exercises
   the replicated session-dedup path on freshly promoted leaders — and
   run cross-shard transfers (one-sided halves) through 2PC at
   [cross_pct]. Every per-cluster piece below (nemesis, quiesce, oracles)
   runs once per shard, so the features compose. *)
let run_seed ?(replicas = 3) ?(workers = 4) ?(clients = 8) ?(accounts = 48)
    ?(duration = 3 * Sim.Engine.s) ?(checkpoint_interval = 0)
    ?(history_warmup = 0) ?(ops = false) ?(spares = 2)
    ?(follower_reads = false) ?(read_clients = 4) ?(read_lease = 150 * ms)
    ?(wan_profile = "") ?(shards = 1) ?(cross_pct = 0.2) ~seed () =
  (* Rolling-operations mode keeps checkpointing on: joining learners
     bootstrap from the newest image + journal tail, and the truncation
     retention gate must prove it holds log for them. *)
  let checkpoint_interval =
    if ops && checkpoint_interval = 0 then 500 * ms else checkpoint_interval
  in
  if shards > 1 && checkpoint_interval > 0 then
    invalid_arg
      "Chaos.run_seed: shards > 1 cannot run with checkpoints (or ops, \
       which turns them on) — truncation drops the decision marks \
       Check.cross_shard audits, and nothing harvests that evidence first";
  if accounts < 2 * shards then
    invalid_arg "Chaos.run_seed: every shard needs at least two accounts";
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
      clients;
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
      shards;
      cross_pct = (if shards > 1 then cross_pct else 0.0);
    }
  in
  let router = Router.ycsb ~keys:accounts ~shards in
  let range s = Router.ycsb_key_range router ~keys:accounts s in
  let pick rng (lo, hi) = lo + Sim.Rng.int rng (hi - lo + 1) in
  let oracles = Array.init shards (fun _ -> Check.Oracle.create ()) in
  let crashes = ref 0 and restarts = ref 0 in
  let dep =
    Shard.create
      ~on_durable:(fun ~shard -> Check.Oracle.observe oracles.(shard))
      (* Read-only sessions sit above the drivers. Their acks are balance
         reads — they never feed the exactly-once audit (reads are
         idempotent by construction); the snapshot-read oracle audits
         them instead. *)
      ?readers:
        (if follower_reads then
           Some (read_clients, fun ~shard rng -> string_of_int (pick rng (range shard)))
         else None)
      cfg router
      (fun ~shard -> bank_app ~range:(range shard) ~accounts ())
      ~gen:(fun ~rng ~driver:_ () ->
        let sa = Sim.Rng.int rng shards in
        let lo, hi = range sa in
        let a = pick rng (lo, hi) in
        let amount = 1 + Sim.Rng.int rng 10 in
        if shards > 1 && Sim.Rng.float rng 1.0 < cross_pct then begin
          let sb =
            let x = Sim.Rng.int rng (shards - 1) in
            if x >= sa then x + 1 else x
          in
          Shard.Multi
            [
              (sa, Printf.sprintf "w %d %d" a amount);
              (sb, Printf.sprintf "c %d %d" (pick rng (range sb)) amount);
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
  let each f = Array.iteri f clusters in
  (* Continuous light checking: sealed watermarks must agree while faults
     are active (the oracle checks agreement on every commit already). *)
  let periodic_viols = ref [] in
  ignore
    (Sim.Engine.spawn eng ~name:"chaos-checker" (fun () ->
         while true do
           Sim.Engine.sleep (100 * ms);
           if !periodic_viols = [] then
             periodic_viols :=
               List.concat_map Check.watermark_agreement (Array.to_list clusters)
         done));
  let violations =
    try
      (* Steady state first, then unleash the nemesis. The plans and the
         deployment share nothing but the seed, yet both are deterministic
         functions of it — a failing seed replays exactly. *)
      Shard.run dep ~duration:(300 * ms) ();
      (* Long-history scenarios: keep the deployment healthy for an extra
         warm-up so journals grow, checkpoints complete and truncation
         rounds fire *before* the first fault — the nemesis then crashes
         into clusters whose logs are already compacted. *)
      if history_warmup > 0 then Shard.run dep ~duration:history_warmup ();
      (* One independent nemesis per shard, each a deterministic function
         of the run seed via engine-RNG splits: coordinator and
         participant shards crash, partition and fail over at uncorrelated
         moments — including between a prepare and its decision. *)
      each (fun s cluster ->
          let nrng = Sim.Rng.split (Sim.Engine.rng eng) in
          let plan =
            if ops then
              Sim.Fault.ops_plan nrng ~base:replicas ~spares
                ~min_members:cfg.Config.min_members ()
            else Sim.Fault.random_plan nrng ~nodes:replicas ()
          in
          Log.debug (fun m ->
              m "seed %d shard %d plan:@.%a" seed s Sim.Fault.pp_plan plan);
          ignore
            (Sim.Fault.spawn (Cluster.network cluster)
               ~on_crash:(fun i ->
                 incr crashes;
                 Cluster.crash_replica cluster i)
               ~on_restart:(fun i ->
                 incr restarts;
                 Cluster.restart_replica cluster i)
               ~on_add:(fun i -> ignore (Cluster.add_replica cluster i))
               ~on_remove:(fun i -> ignore (Cluster.remove_replica cluster i))
               ~on_handoff:(fun i -> ignore (Cluster.handoff cluster ~target:i))
               ~on_step:(fun a ->
                 Log.debug (fun m -> m "nemesis %d: %a" s Sim.Fault.pp_action a))
               plan));
      Shard.run dep ~duration ();
      (* Quiesce: stop the workload, heal everything, revive stragglers the
         plans' own quiesce tails may have missed — but only nodes that
         are still part of the deployment: decommissioned voters and dark
         spare slots must stay down. [pred] picks which live-deployment
         replicas to (re)start. *)
      Shard.stop dep;
      let revive pred =
        each (fun _ cluster ->
            let in_deployment i =
              List.mem i (Cluster.members cluster)
              || List.mem i (Cluster.learners cluster)
            in
            Array.iter
              (fun r ->
                if in_deployment (Replica.id r) && pred r then begin
                  incr restarts;
                  Cluster.restart_replica cluster (Replica.id r)
                end)
              (Cluster.replicas cluster))
      in
      each (fun _ cluster ->
          let net = Cluster.network cluster in
          Sim.Net.heal_all net;
          Sim.Net.clear_faults net);
      revive (fun r -> not (Replica.is_alive r));
      Shard.run dep ~duration:(500 * ms) ();
      (* Tainted ex-leaders hold speculative writes that were never
         released; rebuild them so the convergence check covers every
         replica. *)
      revive Replica.is_tainted;
      (* Each driver finishes its in-flight logical transaction — a
         decided 2PC must reach every participant before the deployment
         is a quiescent point. *)
      let idle = Shard.quiesce ~timeout:(5 * Sim.Engine.s) dep in
      (* Drain: heartbeat no-ops push the watermark past the last real
         transaction; followers finish replay. *)
      Shard.run dep ~duration:(2_500 * ms) ();
      let per_cluster s cluster =
        Check.Oracle.violations oracles.(s)
        @ Check.agreement cluster
        @ Check.watermark_agreement cluster
        @ Check.membership_agreement cluster
        @ Check.convergence cluster
        @ Check.exactly_once cluster ~acked:(Shard.acked_seqs dep s)
        @ (if follower_reads then Check.snapshot_reads cluster else [])
        @
        if shards = 1 then
          Check.money cluster ~table:bank_table
            ~expected:(accounts * initial_balance)
        else []
      in
      (if idle then []
       else
         [
           {
             Check.check = "quiesce";
             detail = "a driver never finished its in-flight transaction";
           };
         ])
      @ !periodic_viols
      @ List.concat (Array.to_list (Array.mapi per_cluster clusters))
      @ Check.cross_shard clusters
      @ Check.money_sharded clusters ~table:bank_table
          ~expected:(accounts * initial_balance)
    with exn ->
      [ { Check.check = "exception"; detail = Printexc.to_string exn } ]
  in
  let total f = Array.fold_left (fun acc c -> acc + f c) 0 clusters in
  let reads, writes = List.partition Client.is_ro (Shard.sessions dep) in
  let sum f l = List.fold_left (fun acc c -> acc + f c) 0 l in
  {
    seed;
    violations;
    released = Shard.released dep;
    executed = total Cluster.executed;
    crashes = !crashes;
    restarts = !restarts;
    epochs =
      Array.fold_left
        (fun m cluster ->
          Array.fold_left
            (fun m r ->
              if Replica.is_alive r then
                max m (Paxos.Election.epoch (Replica.election r))
              else m)
            m (Cluster.replicas cluster))
        0 clusters;
    entries_checked =
      Array.fold_left (fun acc o -> acc + Check.Oracle.entries_checked o) 0 oracles;
    acked = sum Client.acked_count writes;
    client_retries = sum Client.retries writes;
    busy_replies = sum Client.busy_replies writes;
    parked = sum Client.parked writes;
    checkpoints = total Cluster.checkpoints_taken;
    truncations = total Cluster.truncation_rounds;
    rebuilds = total Cluster.auto_rebuilds;
    adds = total Cluster.adds;
    removes = total Cluster.removes;
    handoffs = total Cluster.handoffs;
    ops_skipped = total Cluster.ops_skipped;
    reads_acked = sum Client.acked_count reads;
    reads_served = total Cluster.reads_served;
    reads_parked = total Cluster.reads_parked;
    reads_redirected = total Cluster.reads_redirected;
    read_misses = total Cluster.read_misses;
    shards;
    cross_committed = Shard.cross_committed dep;
    cross_aborted = Shard.cross_aborted dep;
  }
