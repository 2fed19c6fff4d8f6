type stream_mode = Per_worker | Single | Sharded of int
(* One constructor: batching is always the latency-budget path. The type
   stays only because the perf/ harness still names it. *)
type batch_policy = Adaptive

(* Conservative upper bound on one TPC-C transaction's wire footprint: a
   Delivery touches ~130 rows; at ~120 wire bytes per write that is under
   16 KiB. [max_batch_bytes] below this could force a batch that cannot
   hold even one transaction. *)
let max_txn_bytes = 16 * 1024

type t = {
  replicas : int;
  spare_replicas : int;
  min_members : int;
  learner_lag_bound : int;
  handoff_drain_timeout : int;
  workers : int;
  cores : int;
  stream_mode : stream_mode;
  batch_policy : batch_policy;
  batch_size : int;
  target_batch_delay_ns : int;
  max_batch_bytes : int;
  watermark_interval : int;
  heartbeat_interval : int;
  election_timeout : int;
  net_latency : Sim.Net.latency_model;
  costs : Silo.Costs.t;
  physical_serialization : bool;
  networked_clients : bool;
  client_rpc_overhead : int;
  client_rtt : int;
  clients : int;
  client_timeout : int;
  client_retry_limit : int;
  client_backoff_base : int;
  client_backoff_max : int;
  client_park_interval : int;
  admission_max_pending : int;
  admission_max_release : int;
  admission_max_backlog : int;
  enqueue_cs_ns : int;
  entry_overhead_ns : int;
  replay_parallel : int;
  disable_replay : bool;
  hash_tables : string list;
  archive_entries : bool;
  checkpoint_interval : int;
  checkpoint_retention : int;
  checkpoint_truncate : bool;
  checkpoint_disk_mb_per_s : int;
  checkpoint_threads : int;
  follower_reads : bool;
  read_lease : int;
  read_workers : int;
  read_retry_limit : int;
  wan_profile : string;
  shards : int;
  cross_pct : float;
  trace_sample_interval : int;
  trace_buffer_capacity : int;
  seed : int64;
}

let default =
  {
    replicas = 3;
    spare_replicas = 0;
    min_members = 1;
    learner_lag_bound = 200 * Sim.Engine.ms;
    handoff_drain_timeout = 500 * Sim.Engine.ms;
    workers = 16;
    cores = 32;
    stream_mode = Per_worker;
    batch_policy = Adaptive;
    batch_size = 1000;
    target_batch_delay_ns = 2 * Sim.Engine.ms;
    max_batch_bytes = 1024 * 1024;
    watermark_interval = Sim.Engine.ms / 2;
    heartbeat_interval = 100 * Sim.Engine.ms;
    election_timeout = Sim.Engine.s;
    net_latency =
      Sim.Net.Exp_jitter { base = 25 * Sim.Engine.us; jitter_mean = 8 * Sim.Engine.us };
    costs = Silo.Costs.default;
    physical_serialization = false;
    networked_clients = false;
    client_rpc_overhead = 180;
    client_rtt = 60 * Sim.Engine.us;
    clients = 0;
    client_timeout = 100 * Sim.Engine.ms;
    client_retry_limit = 10;
    client_backoff_base = 10 * Sim.Engine.ms;
    client_backoff_max = 500 * Sim.Engine.ms;
    client_park_interval = 200 * Sim.Engine.ms;
    admission_max_pending = 512;
    admission_max_release = 8192;
    admission_max_backlog = 100_000;
    enqueue_cs_ns = 1_200;
    entry_overhead_ns = 200_000;
    replay_parallel = 1;
    disable_replay = false;
    hash_tables = [];
    archive_entries = false;
    checkpoint_interval = 0;
    checkpoint_retention = 3 * Sim.Engine.s;
    checkpoint_truncate = true;
    checkpoint_disk_mb_per_s = 500;
    checkpoint_threads = 4;
    follower_reads = false;
    read_lease = 400 * Sim.Engine.ms;
    read_workers = 2;
    read_retry_limit = 8;
    wan_profile = "";
    shards = 1;
    cross_pct = 0.0;
    trace_sample_interval = 64;
    trace_buffer_capacity = 4096;
    seed = 42L;
  }

let ycsb = { default with batch_size = 10_000 }

(* Node numbering: replica slots first (initial members, then spares kept
   dark for add-replica operations), clients after. With no spares this
   is exactly the historical numbering. *)
let pool t = t.replicas + t.spare_replicas

let nstreams t =
  match t.stream_mode with
  | Per_worker -> t.workers
  | Single -> 1
  | Sharded n -> min n t.workers

let validate t =
  if t.replicas < 1 then invalid_arg "Config: need at least one replica";
  if t.spare_replicas < 0 then
    invalid_arg "Config: spare_replicas must be non-negative";
  if t.min_members < 1 then
    invalid_arg
      "Config: min_members must be >= 1 — remove-replica operations may \
       never shrink the voting membership to nothing; a single-member group \
       is the smallest that can still commit";
  if t.min_members > t.replicas then
    invalid_arg
      (Printf.sprintf
         "Config: min_members (%d) cannot exceed the initial membership \
          (replicas = %d) — the cluster would be born below its own \
          reconfiguration floor and no remove-replica operation could ever \
          have been responsible for it"
         t.min_members t.replicas);
  if t.learner_lag_bound <= 0 then
    invalid_arg
      "Config: learner_lag_bound must be positive — it is the maximum \
       replay lag (ns) a catching-up learner may carry before being \
       promoted to voter; a zero or negative bound could promote a learner \
       that would immediately stall quorums (or never promote at all)";
  if t.handoff_drain_timeout <= 0 then
    invalid_arg
      "Config: handoff_drain_timeout must be positive — a planned leader \
       handoff waits this long (ns) for in-flight proposals to drain \
       before transferring; without a positive bound a wedged stream would \
       block the handoff forever";
  if t.workers < 1 then invalid_arg "Config: need at least one worker";
  if t.cores < 1 then invalid_arg "Config: need at least one core";
  if t.batch_size < 1 then invalid_arg "Config: batch_size must be >= 1";
  (match t.stream_mode with
  | Sharded n when n < 1 -> invalid_arg "Config: Sharded needs at least one stream"
  | Sharded _ | Per_worker | Single -> ());
  if t.watermark_interval <= 0 then invalid_arg "Config: watermark interval must be positive";
  if t.target_batch_delay_ns <= 0 then
    invalid_arg
      "Config: target_batch_delay_ns must be positive (the batcher sizes \
       batches to meet this latency budget and flushes every batch by \
       its deadline; raise it, with max_batch_bytes, for the paper's static \
       batch-size point)";
  if t.max_batch_bytes < max_txn_bytes then
    invalid_arg
      (Printf.sprintf
         "Config: max_batch_bytes (%d) must be at least %d so a batch can hold \
          one maximum-size TPC-C transaction; smaller caps would wedge the \
          batcher on the first large transaction"
         t.max_batch_bytes max_txn_bytes);
  if t.heartbeat_interval <= 0 then invalid_arg "Config: heartbeat_interval must be positive";
  if t.heartbeat_interval >= t.election_timeout then
    invalid_arg "Config: heartbeat_interval must be smaller than election_timeout";
  if t.client_rtt < 0 then invalid_arg "Config: client_rtt must be non-negative";
  if t.client_rpc_overhead < 0 then
    invalid_arg "Config: client_rpc_overhead must be non-negative";
  if t.clients < 0 then invalid_arg "Config: clients must be non-negative";
  if t.replay_parallel < 1 then
    invalid_arg "Config: replay_parallel must be >= 1";
  (let rec dup = function
     | [] -> None
     | x :: rest -> if List.mem x rest then Some x else dup rest
   in
   match dup t.hash_tables with
   | Some name ->
       invalid_arg
         (Printf.sprintf "Config: hash_tables lists %S twice" name)
   | None -> ());
  if t.checkpoint_interval < 0 then
    invalid_arg "Config: checkpoint_interval must be non-negative (0 disables)";
  if t.checkpoint_interval > 0 then begin
    if t.checkpoint_interval <= t.watermark_interval then
      invalid_arg
        "Config: checkpoint_interval must exceed watermark_interval — the \
         checkpoint duty is armed from the controller tick, so an interval at \
         or below the tick would demand a full fuzzy database scan per \
         watermark recomputation; raise checkpoint_interval (typically 100x \
         the tick) or lower watermark_interval";
    if not t.archive_entries then
      invalid_arg
        "Config: checkpoint_interval > 0 requires archive_entries — crash \
         recovery is checkpoint + journal tail, so without archived entries a \
         rebuilt replica would install the checkpoint image and then have no \
         tail to replay above its frontier (and truncation would have nothing \
         to bound); set archive_entries = true alongside checkpointing";
    if t.checkpoint_retention < t.election_timeout then
      invalid_arg
        (Printf.sprintf
           "Config: checkpoint_retention (%d ns) must be at least \
            election_timeout (%d ns) — the retention floor is the slowest \
            follower lag truncation tolerates: entries younger than the floor \
            are never dropped, and a follower that lags further than \
            election_timeout is treated as failed and rebuilds from a \
            checkpoint anyway; raise checkpoint_retention"
           t.checkpoint_retention t.election_timeout);
    if t.checkpoint_disk_mb_per_s < 1 then
      invalid_arg "Config: checkpoint_disk_mb_per_s must be >= 1";
    if t.checkpoint_threads < 1 then
      invalid_arg "Config: checkpoint_threads must be >= 1"
  end;
  if t.follower_reads then begin
    if t.read_lease <= 0 then
      invalid_arg "Config: read_lease must be positive with follower_reads";
    if t.read_lease >= t.election_timeout then
      invalid_arg
        (Printf.sprintf
           "Config: read_lease (%d ns) must be smaller than election_timeout \
            (%d ns) — a deposed leader's cohort may keep serving snapshot \
            reads until its last lease expires, and a new leader can be \
            elected (and commit writes) only after election_timeout of \
            silence; a lease outliving the timeout would let stale followers \
            serve past the point where the new leader considers their reads \
            fenced"
           t.read_lease t.election_timeout);
    if t.read_workers < 1 then
      invalid_arg "Config: read_workers must be >= 1 with follower_reads";
    if t.read_retry_limit < 1 then
      invalid_arg "Config: read_retry_limit must be >= 1 with follower_reads"
  end;
  if t.wan_profile <> "" && Sim.Net.wan_profile t.wan_profile = None then
    invalid_arg
      (Printf.sprintf "Config: unknown wan_profile %S (known: %s, or \"\")"
         t.wan_profile
         (String.concat ", " Sim.Net.wan_profile_names));
  if t.shards < 1 then invalid_arg "Config: shards must be >= 1";
  if t.cross_pct < 0.0 || t.cross_pct > 1.0 then
    invalid_arg "Config: cross_pct must be in [0, 1]";
  if t.cross_pct > 0.0 && t.shards < 2 then
    invalid_arg
      "Config: cross_pct > 0 needs shards >= 2 — a cross-shard mix with a \
       single shard would silently degrade to local transactions and the \
       measured penalty curve would be a lie";
  if t.shards > 1 && t.clients < 1 then
    invalid_arg
      "Config: shards > 1 requires clients >= 1 — a sharded deployment is \
       driven end-to-end by client sessions (the 2PC coordinator rides the \
       client path); the embedded per-worker generator cannot span shards";
  if t.trace_sample_interval < 0 then
    invalid_arg "Config: trace_sample_interval must be non-negative";
  if t.trace_buffer_capacity < 1 then
    invalid_arg "Config: trace_buffer_capacity must be >= 1";
  if t.clients > 0 then begin
    if t.client_timeout <= 0 then invalid_arg "Config: client_timeout must be positive";
    if t.client_retry_limit < 1 then invalid_arg "Config: client_retry_limit must be >= 1";
    if t.client_backoff_base <= 0 then
      invalid_arg "Config: client_backoff_base must be positive";
    if t.client_backoff_max < t.client_backoff_base then
      invalid_arg "Config: client_backoff_max must be >= client_backoff_base";
    if t.client_park_interval <= 0 then
      invalid_arg "Config: client_park_interval must be positive";
    if t.admission_max_pending < 1 then
      invalid_arg "Config: admission_max_pending must be >= 1";
    if t.admission_max_release < 1 then
      invalid_arg "Config: admission_max_release must be >= 1";
    if t.admission_max_backlog < 1 then
      invalid_arg "Config: admission_max_backlog must be >= 1"
  end
