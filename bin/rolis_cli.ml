(* Command-line driver: run a Rolis cluster or a baseline system with
   custom parameters and print a measurement summary.

   Examples:
     rolis-cli run --workload tpcc --workers 16 --duration-ms 500
     rolis-cli run --workload ycsb --workers 8 --batch 10000 --crash-at-ms 800
     rolis-cli baseline --system 2pl --partitions 16
     rolis-cli baseline --system meerkat --threads 28 --workload ycsb
     rolis-cli trace --workload tpcc --workers 8 -o spans.jsonl
     rolis-cli bench-diff bench/baseline_quick.json BENCH_rolis.json *)

open Cmdliner

let ms = Sim.Engine.ms

let fmt_tps v =
  if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.0fK" (v /. 1e3)
  else Printf.sprintf "%.0f" v

(* ---- run: a Rolis cluster ---- *)

(* Sharded deployment: each shard is a full cluster; drivers route
   single-shard transactions directly and commit cross-shard ones with
   the replicated-2PC protocol (see Rolis.Shard). *)
let run_sharded workload workers cores batch target_delay_us shards cross_pct
    drivers duration_ms warmup_ms seed =
  let cfg =
    {
      Rolis.Config.default with
      Rolis.Config.workers;
      cores;
      batch_size = batch;
      target_batch_delay_ns = target_delay_us * Sim.Engine.us;
      clients = drivers;
      seed = Int64.of_int seed;
      shards;
      cross_pct;
    }
  in
  let router, app, veto, gen =
    match workload with
    | "tpcc" ->
        let warehouses = workers * shards in
        let p = Workload.Tpcc.with_warehouses Workload.Tpcc.default warehouses in
        let router = Rolis.Router.tpcc ~warehouses ~shards in
        ( router,
          Workload.Tpcc.client_app p,
          Some (Workload.Tpcc.veto p),
          fun ~rng ~driver:_ -> Workload.Tpcc.shard_gen p router ~cross_pct ~rng )
    | "ycsb" ->
        let p = { Workload.Ycsb.default with Workload.Ycsb.keys = 200_000 } in
        let router = Rolis.Router.ycsb ~keys:p.Workload.Ycsb.keys ~shards in
        ( router,
          Workload.Ycsb.client_app p,
          None,
          fun ~rng ~driver:_ -> Workload.Ycsb.shard_gen p router ~cross_pct ~rng )
    | other ->
        Printf.eprintf "unknown workload %S (tpcc|ycsb)\n" other;
        exit 2
  in
  let dep =
    try Rolis.Shard.create ?veto cfg router (fun ~shard:_ -> app) ~gen
    with Invalid_argument msg ->
      Printf.eprintf "sharded run: %s\n" msg;
      exit 2
  in
  Rolis.Shard.run dep ~warmup:(warmup_ms * ms) ~duration:(duration_ms * ms) ();
  let lat = Rolis.Shard.latency dep in
  Printf.printf "workload:        %s, %d shards x %d workers, %.0f%% cross-shard, %d drivers\n"
    workload shards workers (100.0 *. cross_pct) drivers;
  Printf.printf "throughput:      %s TPS aggregate (logical transactions)\n"
    (fmt_tps (Rolis.Shard.throughput dep));
  Printf.printf "committed:       %d (aborted %d); cross-shard %d committed / %d aborted, %d remote prepares\n"
    (Rolis.Shard.committed dep) (Rolis.Shard.aborted dep)
    (Rolis.Shard.cross_committed dep) (Rolis.Shard.cross_aborted dep)
    (Rolis.Shard.prepares dep);
  Printf.printf "latency:         p50 %.1f ms, p95 %.1f ms\n"
    (float_of_int (Sim.Metrics.Hist.quantile lat 0.5) /. 1e6)
    (float_of_int (Sim.Metrics.Hist.quantile lat 0.95) /. 1e6);
  if Rolis.Shard.cross_committed dep > 0 then begin
    let xlat = Rolis.Shard.cross_latency dep in
    Printf.printf "cross latency:   p50 %.1f ms, p95 %.1f ms\n"
      (float_of_int (Sim.Metrics.Hist.quantile xlat 0.5) /. 1e6)
      (float_of_int (Sim.Metrics.Hist.quantile xlat 0.95) /. 1e6)
  end;
  Printf.printf "released:        %d sub-transactions across %d shards; retries %d\n"
    (Rolis.Shard.released dep) shards
    (Rolis.Shard.client_retries dep);
  Array.iteri
    (fun s cluster ->
      match Rolis.Cluster.leader cluster with
      | Some r ->
          Printf.printf "shard %d leader:  replica %d (epoch %d)\n" s
            (Rolis.Replica.id r)
            (Paxos.Election.epoch (Rolis.Replica.election r))
      | None -> Printf.printf "shard %d leader:  none!\n" s)
    (Rolis.Shard.clusters dep)

let run_cluster workload workers cores batch replay_parallel
    hash_tables target_delay_us duration_ms warmup_ms networked single_stream
    crash_at_ms ckpt_interval_ms no_truncate follower_reads
    read_lease_us wan_profile shards cross_pct drivers seed =
  if shards > 1 then
    run_sharded workload workers cores batch target_delay_us shards cross_pct
      drivers duration_ms warmup_ms seed
  else begin
  let ycsb_params = { Workload.Ycsb.default with Workload.Ycsb.keys = 200_000 } in
  let app, is_tpcc =
    match workload with
    | "tpcc" ->
        (Workload.Tpcc.app (Workload.Tpcc.with_warehouses Workload.Tpcc.default workers), true)
    | "ycsb" -> (Workload.Ycsb.app ycsb_params, false)
    | other ->
        Printf.eprintf "unknown workload %S (tpcc|ycsb)\n" other;
        exit 2
  in
  if follower_reads && is_tpcc then begin
    Printf.eprintf "--follower-reads needs a workload with a read_op (use --workload ycsb)\n";
    exit 2
  end;
  let cfg =
    {
      Rolis.Config.default with
      Rolis.Config.workers;
      cores;
      batch_size = batch;
      replay_parallel;
      hash_tables;
      target_batch_delay_ns = target_delay_us * Sim.Engine.us;
      networked_clients = networked;
      stream_mode = (if single_stream then Rolis.Config.Single else Rolis.Config.Per_worker);
      (* Checkpointing implies archived journals: recovery is checkpoint +
         journal tail, and truncation needs a journal to bound. *)
      checkpoint_interval = ckpt_interval_ms * ms;
      checkpoint_truncate = not no_truncate;
      archive_entries =
        Rolis.Config.default.Rolis.Config.archive_entries || ckpt_interval_ms > 0;
      seed = Int64.of_int seed;
      follower_reads;
      read_lease = read_lease_us * Sim.Engine.us;
      wan_profile;
      (* Read-only sessions ride client network slots; the write path
         stays on the embedded generator, whose payloads run through the
         same op a write session would use (Ycsb.app leaves client_op
         unset so the workers never wait on the client queue). *)
      clients = (if follower_reads then 4 else Rolis.Config.default.Rolis.Config.clients);
    }
  in
  let cluster = Rolis.Cluster.create cfg app in
  let read_sessions =
    if not follower_reads then [||]
    else
      Array.init cfg.Rolis.Config.clients (fun cid ->
          let rng = Sim.Rng.split (Sim.Engine.rng (Rolis.Cluster.engine cluster)) in
          Rolis.Client.spawn (Rolis.Cluster.network cluster) ~cfg ~cid ~ro:true
            ~stats:(Rolis.Cluster.client_read_stats cluster)
            ~gen:(Workload.Ycsb.read_payload_gen ycsb_params rng)
            ())
  in
  (match crash_at_ms with
  | Some at ->
      Sim.Engine.schedule (Rolis.Cluster.engine cluster) (at * ms) (fun () ->
          Printf.printf "[t=%dms] crashing leader (replica 0)\n%!" at;
          Rolis.Cluster.crash_replica cluster 0)
  | None -> ());
  Rolis.Cluster.run cluster ~warmup:(warmup_ms * ms) ~duration:(duration_ms * ms) ();
  let lat = Rolis.Cluster.latency cluster in
  Printf.printf "workload:        %s, %d workers, batch %d (%d us budget)%s%s\n"
    workload workers batch target_delay_us
    (if networked then ", networked clients" else "")
    (if single_stream then ", SINGLE shared stream (strawman)" else "");
  Printf.printf "throughput:      %s TPS (release-committed)\n"
    (fmt_tps (Rolis.Cluster.throughput cluster));
  Printf.printf "latency:         p50 %.1f ms, p95 %.1f ms\n"
    (float_of_int (Sim.Metrics.Hist.quantile lat 0.5) /. 1e6)
    (float_of_int (Sim.Metrics.Hist.quantile lat 0.95) /. 1e6);
  Printf.printf
    "batching:        %d deadline flushes, %d event releases, %d coalesced proposals\n"
    (Rolis.Cluster.deadline_flushes cluster)
    (Rolis.Cluster.event_releases cluster)
    (Rolis.Cluster.coalesced_proposals cluster);
  Printf.printf "replay:          %d txns replayed%s%s\n"
    (Rolis.Cluster.replayed_txns cluster)
    (if replay_parallel > 1 then Printf.sprintf " (x%d fan-out)" replay_parallel
     else "")
    (match Rolis.Cluster.replay_lag cluster with
    | Some (n, p50, p95) ->
        Printf.sprintf ", follower lag p50 %.2f ms / p95 %.2f ms (%d samples)"
          (float_of_int p50 /. 1e6)
          (float_of_int p95 /. 1e6)
          n
    | None -> "");
  Printf.printf "executed:        %d (user aborts: %d)\n" (Rolis.Cluster.executed cluster)
    (Rolis.Cluster.user_aborts cluster);
  if follower_reads then begin
    let acked =
      Array.fold_left (fun a c -> a + Rolis.Client.acked_count c) 0 read_sessions
    in
    Printf.printf
      "reads:           %d acked / %d served, parked %d, redirected %d, \
       misses %d%s%s\n"
      acked
      (Rolis.Cluster.reads_served cluster)
      (Rolis.Cluster.reads_parked cluster)
      (Rolis.Cluster.reads_redirected cluster)
      (Rolis.Cluster.read_misses cluster)
      (match Rolis.Cluster.read_staleness cluster with
      | Some (n, p50, p95) ->
          Printf.sprintf ", staleness p50 %.2f ms / p95 %.2f ms (%d samples)"
            (float_of_int p50 /. 1e6)
            (float_of_int p95 /. 1e6)
            n
      | None -> "")
      (if wan_profile <> "" then Printf.sprintf " [%s]" wan_profile else "")
  end;
  if ckpt_interval_ms > 0 then begin
    let newest =
      match Rolis.Cluster.newest_checkpoint cluster with
      | Some ck ->
          Printf.sprintf "newest %d rows / %.1f MB at t=%dms"
            (Rolis.Checkpoint.row_count ck.Rolis.Checkpoint.ri_image)
            (float_of_int (Rolis.Checkpoint.size_bytes ck.Rolis.Checkpoint.ri_image)
            /. 1e6)
            (ck.Rolis.Checkpoint.ri_taken_at / ms)
      | None -> "none completed"
    in
    Printf.printf
      "checkpoint:      %d taken (%s); journal %d entries / %.1f MB resident, \
       %d truncated in %d rounds%s\n"
      (Rolis.Cluster.checkpoints_taken cluster)
      newest
      (Rolis.Cluster.journal_entries_total cluster)
      (float_of_int (Rolis.Cluster.journal_bytes_total cluster) /. 1e6)
      (Rolis.Cluster.truncated_entries_total cluster)
      (Rolis.Cluster.truncation_rounds cluster)
      (if no_truncate then " (truncation disabled)" else "")
  end;
  (match Rolis.Cluster.leader cluster with
  | Some r ->
      Printf.printf "leader:          replica %d (epoch %d)\n" (Rolis.Replica.id r)
        (Paxos.Election.epoch (Rolis.Replica.election r));
      if is_tpcc then begin
        let errors =
          Workload.Tpcc.consistency_errors
            (Workload.Tpcc.with_warehouses Workload.Tpcc.default workers)
            (Rolis.Replica.db r)
        in
        Printf.printf "tpcc-consistency: %s\n"
          (if errors = [] then "OK" else String.concat "; " errors)
      end
  | None -> Printf.printf "leader:          none!\n")
  end

let workload_arg =
  Arg.(value & opt string "tpcc" & info [ "workload"; "w" ] ~doc:"Workload: tpcc or ycsb.")

let workers_arg = Arg.(value & opt int 8 & info [ "workers" ] ~doc:"Database worker threads.")
let cores_arg = Arg.(value & opt int 32 & info [ "cores" ] ~doc:"CPU cores per machine.")
let batch_arg = Arg.(value & opt int 1000 & info [ "batch" ] ~doc:"Transactions per log entry.")

let replay_parallel_arg =
  Arg.(
    value & opt int 1
    & info [ "replay-parallel" ]
        ~doc:
          "Follower replay fan-out: cut each released entry's sorted key \
           run into this many key-disjoint slices applied concurrently on \
           the follower. 1 = sequential sweep.")

let hash_tables_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "hash-tables" ]
        ~doc:
          "Comma-separated table names to back with the point-lookup hash \
           index instead of the B-tree (e.g. $(b,usertable) for YCSB, \
           $(b,item) for TPC-C). Listed tables must never be range-scanned.")

let target_delay_arg =
  Arg.(
    value
    & opt int (Rolis.Config.default.Rolis.Config.target_batch_delay_ns / Sim.Engine.us)
    & info [ "target-delay-us" ]
        ~doc:
          "Per-batch latency budget in microseconds: batches are sized from \
           the arrival rate to meet it and flushed by its deadline. A budget \
           above the fill time gives the paper's static batch-size point.")

let duration_arg =
  Arg.(value & opt int 500 & info [ "duration-ms" ] ~doc:"Measured virtual time (ms).")

let warmup_arg = Arg.(value & opt int 200 & info [ "warmup-ms" ] ~doc:"Warm-up (ms).")
let networked_arg = Arg.(value & flag & info [ "networked" ] ~doc:"Open-loop networked clients.")

let single_arg =
  Arg.(value & flag & info [ "single-stream" ] ~doc:"Strawman: one shared Paxos stream.")

let crash_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "crash-at-ms" ] ~doc:"Kill the leader at this virtual time (ms).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")

let ckpt_interval_arg =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-interval" ]
        ~doc:
          "Take a fuzzy checkpoint on each follower every this many virtual \
           milliseconds (0 disables). Implies journal archiving; once a \
           checkpoint frontier is quorum-stable and the retention window \
           has passed, journals are truncated up to it.")

let no_truncate_arg =
  Arg.(
    value & flag
    & info [ "no-truncate" ]
        ~doc:
          "Keep taking checkpoints but never truncate the journals — the \
           unbounded-memory comparison arm of the mem5 benchmark.")

let follower_reads_arg =
  Arg.(
    value & flag
    & info [ "follower-reads" ]
        ~doc:
          "Serve watermark-snapshot reads from every replica: read-only \
           client sessions hit lease-holding followers (and the leader) at \
           a pin no higher than the release watermark. Requires a workload \
           with a read_op ($(b,ycsb)).")

let read_lease_arg =
  Arg.(
    value
    & opt int (Rolis.Config.default.Rolis.Config.read_lease / Sim.Engine.us)
    & info [ "read-lease-us" ]
        ~doc:
          "Follower freshness-lease duration in microseconds (must be \
           smaller than the election timeout — that gap is the fencing \
           margin).")

let wan_profile_arg =
  Arg.(
    value & opt string ""
    & info [ "wan-profile" ]
        ~doc:
          "Named inter-region latency matrix applied to every link \
           (replicas and clients round-robin over the regions): \
           $(b,wan3) (3 regions, ~30 ms cross-region), $(b,metro3) \
           (~1 ms). Empty = uniform latency.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ]
        ~doc:
          "Deploy this many complete shard groups (each a full replicated \
           cluster) behind a key-range router, with cross-shard \
           transactions committed through replicated 2PC. 1 = the classic \
           single-group path, bit-identical to builds without the flag.")

let cross_pct_arg =
  Arg.(
    value & opt float 0.0
    & info [ "cross-pct" ]
        ~doc:
          "Fraction of transactions spanning two shards (0.0-1.0): remote \
           NewOrder/Payment for TPC-C, cross-range RMW pairs for YCSB. \
           Only meaningful with $(b,--shards) > 1.")

let drivers_arg =
  Arg.(
    value & opt int 16
    & info [ "drivers" ]
        ~doc:
          "Closed-loop driver processes issuing transactions to a sharded \
           deployment (each holds one session per shard).")

let run_cmd =
  let term =
    Term.(
      const run_cluster $ workload_arg $ workers_arg $ cores_arg $ batch_arg
      $ replay_parallel_arg
      $ hash_tables_arg $ target_delay_arg $ duration_arg $ warmup_arg
      $ networked_arg $ single_arg $ crash_arg $ ckpt_interval_arg
      $ no_truncate_arg $ follower_reads_arg $ read_lease_arg $ wan_profile_arg
      $ shards_arg $ cross_pct_arg $ drivers_arg $ seed_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a Rolis cluster in the simulator.") term

(* ---- chaos: seeded fault-injection runs ---- *)

(* Re-run one seed ([run ()]) with the nemesis debug log captured to
   [path], so a CI failure ships the exact fault schedule as an artifact.
   Determinism makes the re-run identical to the original failure. *)
let dump_nemesis_log ~path run =
  let oc = open_out path in
  let fmt = Format.formatter_of_out_channel oc in
  let reporter =
    {
      Logs.report =
        (fun _src level ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ f ->
              Format.kfprintf
                (fun fmt ->
                  Format.pp_print_newline fmt ();
                  over ();
                  k ())
                fmt
                ("[%a] " ^^ f)
                Logs.pp_level level));
    }
  in
  let saved_reporter = Logs.reporter () and saved_level = Logs.level () in
  Logs.set_reporter reporter;
  Logs.set_level (Some Logs.Debug);
  Format.fprintf fmt "%a@." Rolis.Chaos.pp_outcome (run ());
  Logs.set_reporter saved_reporter;
  Logs.set_level saved_level;
  close_out oc

let run_chaos seeds seed0 replicas workers clients accounts duration_ms
    ckpt_interval_ms history_warmup_ms ops spares follower_reads read_lease_us
    wan_profile shards cross_pct verbose nemesis_log =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  Printf.printf
    "chaos: %d seed(s) starting at %d — %d replicas, %d workers, %d clients, \
     %d accounts, %d ms of faults per seed%s%s%s\n\
     %!"
    seeds seed0 replicas workers clients accounts duration_ms
    (if shards > 1 then
       Printf.sprintf ", %d shards (%.0f%% cross)" shards (100.0 *. cross_pct)
     else "")
    (if ckpt_interval_ms > 0 then
       Printf.sprintf ", checkpoints every %d ms (+%d ms history warm-up)"
         ckpt_interval_ms history_warmup_ms
     else "")
    (if ops then
       Printf.sprintf ", rolling operations over %d spare slot(s)" spares
     else "");
  if follower_reads then
    Printf.printf "chaos: follower reads ON%s%s\n%!"
      (if read_lease_us > 0 then Printf.sprintf " (lease %d us)" read_lease_us
       else "")
      (if wan_profile <> "" then Printf.sprintf ", WAN profile %s" wan_profile
       else "");
  let duration = duration_ms * ms in
  let checkpoint_interval = ckpt_interval_ms * ms in
  let history_warmup = history_warmup_ms * ms in
  let read_lease =
    if read_lease_us > 0 then Some (read_lease_us * Sim.Engine.us) else None
  in
  let run ~seed =
    Rolis.Chaos.run_seed ~replicas ~workers ~clients ~accounts ~duration
      ~checkpoint_interval ~history_warmup ~ops ~spares ~follower_reads
      ?read_lease ~wan_profile ~shards ~cross_pct ~seed ()
  in
  let outcomes =
    try
      List.init seeds (fun i ->
          let o = run ~seed:(seed0 + i) in
          Format.printf "%a@." Rolis.Chaos.pp_outcome o;
          o)
    with Invalid_argument msg ->
      Printf.eprintf "chaos: invalid parameters: %s\n" msg;
      exit 2
  in
  match List.find_opt (fun o -> not (Rolis.Chaos.ok o)) outcomes with
  | None -> Printf.printf "chaos: all %d seed(s) passed\n" seeds
  | Some o ->
      let seed = o.Rolis.Chaos.seed in
      Printf.printf "chaos: FIRST FAILING SEED = %d (reproduce with --seeds 1 --seed0 %d)\n"
        seed seed;
      (match nemesis_log with
      | Some path ->
          dump_nemesis_log ~path (fun () -> run ~seed);
          Printf.printf "chaos: nemesis log for seed %d written to %s\n" seed path
      | None -> ());
      exit 1

let seeds_arg = Arg.(value & opt int 20 & info [ "seeds" ] ~doc:"Number of seeds to run.")
let seed0_arg = Arg.(value & opt int 1 & info [ "seed0" ] ~doc:"First seed.")

let replicas_arg =
  Arg.(value & opt int 3 & info [ "replicas" ] ~doc:"Replicas in the cluster.")

let chaos_workers_arg =
  Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Database worker threads.")

let clients_arg =
  Arg.(
    value & opt int 8
    & info [ "clients" ]
        ~doc:
          "Retrying client sessions (drivers) issuing bank transfers \
           end-to-end (timeouts, leader redirects, exactly-once dedup across \
           failover); each holds one session per shard and runs cross-shard \
           transfers through 2PC. Must be at least 1.")

let accounts_arg =
  Arg.(value & opt int 48 & info [ "accounts" ] ~doc:"Bank accounts in the workload.")

let chaos_duration_arg =
  Arg.(
    value & opt int 3000
    & info [ "duration-ms" ] ~doc:"Virtual time under fault injection (ms).")

let chaos_ckpt_interval_arg =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-interval" ]
        ~doc:
          "Follower fuzzy-checkpoint cadence in virtual ms (0 = checkpointing \
           off). Retention is pinned to the election timeout so truncation \
           rounds fire during the run.")

let history_warmup_arg =
  Arg.(
    value & opt int 0
    & info [ "history-warmup" ]
        ~doc:
          "Extra fault-free virtual ms before the nemesis starts — grows the \
           journals (and, with checkpointing on, lets truncation fire) so \
           crashes land on a long, already-compacted history.")

let ops_arg =
  Arg.(
    value & flag
    & info [ "ops" ]
        ~doc:
          "Rolling-operations nemesis instead of crash/partition chaos: \
           add-replica, remove-replica, planned leader handoff, and rolling \
           restarts while clients keep committing. Turns checkpointing on \
           (joining learners bootstrap from the newest image + tail) and \
           additionally checks membership agreement.")

let spares_arg =
  Arg.(
    value & opt int 2
    & info [ "spares" ]
        ~doc:
          "Dark spare pool slots add-replica may bring in as voters (ops \
           mode only).")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log every nemesis action.")

let nemesis_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "nemesis-log" ]
        ~doc:
          "On failure, re-run the first failing seed with debug logging and \
           write the full nemesis/fault schedule to this file (CI artifact).")

let chaos_follower_reads_arg =
  Arg.(
    value & flag
    & info [ "follower-reads" ]
        ~doc:
          "Add read-only client sessions driving watermark-snapshot balance \
           reads at the whole replica pool during the faults, and run the \
           snapshot-read oracle at the end (no read above its pin, none \
           torn, lease-lapsed followers never serve).")

let chaos_read_lease_arg =
  Arg.(
    value & opt int 0
    & info [ "read-lease-us" ]
        ~doc:
          "Follower freshness-lease duration in microseconds (0 = the \
           chaos default, 150 ms against the 300 ms election timeout).")

let chaos_wan_profile_arg =
  Arg.(
    value & opt string ""
    & info [ "wan-profile" ]
        ~doc:
          "Named inter-region latency matrix ($(b,wan3), $(b,metro3)); \
           empty = uniform.")

let chaos_shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ]
        ~doc:
          "Bank shard groups, each under its own independent nemesis plan, \
           with cross-shard transfers committed through replicated 2PC; \
           $(b,--accounts) is split across the shards. Composes with \
           $(b,--follower-reads) and $(b,--wan-profile) (read sessions per \
           shard); rejected together with $(b,--checkpoint-interval) or \
           $(b,--ops), because truncation would drop the decision marks the \
           cross-shard oracle audits.")

let chaos_cross_pct_arg =
  Arg.(
    value & opt float 0.2
    & info [ "cross-pct" ]
        ~doc:
          "Fraction of transfers spanning two shards (ignored with one shard).")

let chaos_cmd =
  let term =
    Term.(
      const run_chaos $ seeds_arg $ seed0_arg $ replicas_arg $ chaos_workers_arg
      $ clients_arg $ accounts_arg $ chaos_duration_arg $ chaos_ckpt_interval_arg
      $ history_warmup_arg $ ops_arg $ spares_arg $ chaos_follower_reads_arg
      $ chaos_read_lease_arg $ chaos_wan_profile_arg $ chaos_shards_arg
      $ chaos_cross_pct_arg $ verbose_arg $ nemesis_log_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run seeded fault-injection (crash/restart/partition/loss) against \
          retrying client sessions and check invariants, including end-to-end \
          exactly-once; exits 1 with the first failing seed.")
    term

(* ---- trace: stage-span dump (JSONL) ---- *)

let run_trace workload workers cores batch duration_ms warmup_ms
    sample_interval capacity seed out =
  let app =
    match workload with
    | "tpcc" ->
        Workload.Tpcc.app (Workload.Tpcc.with_warehouses Workload.Tpcc.default workers)
    | "ycsb" ->
        Workload.Ycsb.app { Workload.Ycsb.default with Workload.Ycsb.keys = 200_000 }
    | other ->
        Printf.eprintf "unknown workload %S (tpcc|ycsb)\n" other;
        exit 2
  in
  let cfg =
    {
      Rolis.Config.default with
      Rolis.Config.workers;
      cores;
      batch_size = batch;
      trace_sample_interval = sample_interval;
      trace_buffer_capacity = capacity;
      seed = Int64.of_int seed;
    }
  in
  let cluster = Rolis.Cluster.create cfg app in
  Rolis.Cluster.run cluster ~warmup:(warmup_ms * ms) ~duration:(duration_ms * ms) ();
  let oc = match out with Some path -> open_out path | None -> stdout in
  let count = ref 0 in
  Array.iter
    (fun r ->
      let rid = Rolis.Replica.id r in
      List.iter
        (fun (sp : Rolis.Trace.span) ->
          let line =
            Report.Json.Obj
              [
                ("replica", Report.Json.Int rid);
                ("worker", Report.Json.Int sp.Rolis.Trace.sp_worker);
                ( "stage",
                  Report.Json.String (Rolis.Trace.stage_name sp.Rolis.Trace.sp_stage) );
                ("ts", Report.Json.Int sp.Rolis.Trace.sp_ts);
                ("start_ns", Report.Json.Int sp.Rolis.Trace.sp_start);
                ("end_ns", Report.Json.Int sp.Rolis.Trace.sp_end);
                ("dropped", Report.Json.Bool sp.Rolis.Trace.sp_dropped);
              ]
          in
          output_string oc (Report.Json.to_string line);
          output_char oc '\n';
          incr count)
        (Rolis.Trace.spans (Rolis.Replica.trace r)))
    (Rolis.Cluster.replicas cluster);
  if out <> None then close_out oc else flush stdout;
  (* The summary goes to stderr so `rolis-cli trace | jq` stays clean. *)
  Printf.eprintf "%d spans (1-in-%d sampling, %d workers); stage breakdown:\n" !count
    sample_interval workers;
  List.iter
    (fun (stage, n, p50, p95, p99) ->
      Printf.eprintf "  %-18s %7d spans  p50 %9.3f ms  p95 %9.3f ms  p99 %9.3f ms\n"
        stage n
        (float_of_int p50 /. 1e6)
        (float_of_int p95 /. 1e6)
        (float_of_int p99 /. 1e6))
    (Rolis.Cluster.stage_breakdown cluster)

let sample_interval_arg =
  Arg.(
    value
    & opt int Rolis.Config.default.Rolis.Config.trace_sample_interval
    & info [ "sample-interval" ]
        ~doc:"Record spans for every N-th committed transaction per worker.")

let capacity_arg =
  Arg.(
    value
    & opt int Rolis.Config.default.Rolis.Config.trace_buffer_capacity
    & info [ "capacity" ] ~doc:"Spans retained per ring buffer.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write JSONL here instead of stdout.")

let trace_cmd =
  let term =
    Term.(
      const run_trace $ workload_arg $ workers_arg $ cores_arg $ batch_arg
      $ duration_arg $ warmup_arg $ sample_interval_arg
      $ capacity_arg $ seed_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a Rolis cluster with stage-level pipeline tracing and dump the \
          sampled spans as JSONL (one object per span); a per-stage latency \
          summary goes to stderr.")
    term

(* ---- bench-diff: the CI perf-regression gate ---- *)

let run_bench_diff baseline_path current_path tolerance =
  let load path =
    let ic =
      try open_in_bin path
      with Sys_error e ->
        Printf.eprintf "bench-diff: %s\n" e;
        exit 2
    in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Report.Schema.of_string s with
    | Ok r -> r
    | Error e ->
        Printf.eprintf "bench-diff: %s: %s\n" path e;
        exit 2
  in
  if tolerance < 0.0 then begin
    Printf.eprintf "bench-diff: tolerance must be non-negative\n";
    exit 2
  end;
  let baseline = load baseline_path in
  let current = load current_path in
  let outcome = Report.Diff.compare_reports ~tolerance ~baseline ~current in
  Format.printf "%a@." Report.Diff.pp outcome;
  if not (Report.Diff.ok outcome) then exit 1

let baseline_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BASELINE" ~doc:"Baseline report (committed reference).")

let current_path_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"CURRENT" ~doc:"Freshly produced report to check.")

let tolerance_arg =
  Arg.(
    value & opt float 0.15
    & info [ "tolerance" ]
        ~doc:"Allowed relative slowdown before a metric counts as regressed.")

let bench_diff_cmd =
  let term =
    Term.(const run_bench_diff $ baseline_path_arg $ current_path_arg $ tolerance_arg)
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two BENCH_rolis.json reports and exit non-zero when any \
          gated metric regressed beyond the tolerance or baseline coverage \
          is missing.")
    term

(* ---- baseline ---- *)

let run_baseline system threads duration_ms workload =
  let duration = duration_ms * ms in
  match system with
  | "silo" ->
      let app =
        match workload with
        | "ycsb" -> Workload.Ycsb.app { Workload.Ycsb.default with Workload.Ycsb.keys = 200_000 }
        | _ -> Workload.Tpcc.app (Workload.Tpcc.with_warehouses Workload.Tpcc.default threads)
      in
      let r = Baselines.Silo_only.run ~workers:threads ~duration ~app () in
      Printf.printf "silo: %s TPS (aborts %d, cpu %.0f%%)\n"
        (fmt_tps r.Baselines.Silo_only.tps)
        r.Baselines.Silo_only.conflict_aborts
        (100.0 *. r.Baselines.Silo_only.cpu_utilization)
  | "2pl" ->
      let r = Baselines.Twopl.run ~partitions:threads ~duration () in
      Printf.printf "2pl: %s TPS, p50 %.1f ms (aborts %d)\n"
        (fmt_tps r.Baselines.Twopl.tps)
        (float_of_int r.Baselines.Twopl.p50_latency /. 1e6)
        r.Baselines.Twopl.aborted
  | "calvin" ->
      let r = Baselines.Calvin.run ~partitions:threads ~replication:true ~duration () in
      Printf.printf "calvin: %s TPS, p50 %.1f ms\n"
        (fmt_tps r.Baselines.Calvin.tps)
        (float_of_int r.Baselines.Calvin.p50_latency /. 1e6)
  | "meerkat" ->
      let params =
        if workload = "ycsb" then { Workload.Ycsb.default with Workload.Ycsb.keys = 200_000 }
        else Workload.Ycsb.ycsb_t
      in
      let r = Baselines.Meerkat.run ~threads ~params ~duration () in
      Printf.printf "meerkat: %s TPS, p50 %.3f ms (aborts %d)\n"
        (fmt_tps r.Baselines.Meerkat.tps)
        (float_of_int r.Baselines.Meerkat.p50_latency /. 1e6)
        r.Baselines.Meerkat.aborted
  | other ->
      Printf.eprintf "unknown system %S (silo|2pl|calvin|meerkat)\n" other;
      exit 2

let system_arg =
  Arg.(
    value & opt string "silo"
    & info [ "system"; "s" ] ~doc:"Baseline: silo, 2pl, calvin, or meerkat.")

let threads_arg =
  Arg.(value & opt int 8 & info [ "threads"; "partitions" ] ~doc:"Threads / partitions.")

let baseline_workload_arg =
  Arg.(value & opt string "tpcc" & info [ "workload"; "w" ] ~doc:"tpcc, ycsb, or ycsb-t.")

let baseline_cmd =
  let term =
    Term.(const run_baseline $ system_arg $ threads_arg $ duration_arg $ baseline_workload_arg)
  in
  Cmd.v (Cmd.info "baseline" ~doc:"Run a baseline system (Silo/2PL/Calvin/Meerkat).") term

let () =
  let doc = "Rolis (EuroSys 2022) reproduction - simulator CLI" in
  let info = Cmd.info "rolis-cli" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; chaos_cmd; baseline_cmd; trace_cmd; bench_diff_cmd ]))
