(** Cluster configuration: every tunable in one place.

    Defaults follow the paper's evaluation setup (§6.1): 3 replicas,
    32-core machines with one core reserved for the watermark/election
    work, batch size 1000 (TPC-C) or 10000 (YCSB++), 0.5 ms watermark
    interval, 100 ms heartbeats, 1 s election timeout, datacenter-class
    network latency. *)

type stream_mode =
  | Per_worker  (** one Paxos stream per database worker (Rolis) *)
  | Single  (** one shared stream for all workers (the §2.2 strawman) *)
  | Sharded of int
      (** [n] streams shared by the workers (ablation: the design space
          between the strawman and Rolis) *)

type batch_policy =
  | Fixed
      (** the paper's static operating point: flush on [batch_size]-fill
          or the [batch_flush_interval] timer, release on the periodic
          watermark tick — bit-identical to the original pipeline *)
  | Adaptive
      (** closed-loop latency targeting: batches are sized from the
          stream's observed arrival rate to meet [target_batch_delay_ns],
          a per-batch deadline event flushes idle streams early, batches
          are additionally capped at [max_batch_bytes], and durability
          notifications drive the release pass directly instead of
          waiting for the watermark tick *)

val max_txn_bytes : int
(** Conservative wire-size bound on the largest TPC-C transaction;
    [max_batch_bytes] may not be configured below it. *)

type t = {
  replicas : int;  (** initial voting membership *)
  spare_replicas : int;
      (** extra replica slots provisioned dark (crashed at birth) so
          add-replica operations have nodes to bring in; node numbering is
          [0 .. replicas-1] members, [replicas .. pool-1] spares, then
          clients — with zero spares the historical numbering (and every
          simulated timing) is unchanged *)
  min_members : int;
      (** reconfiguration floor: remove-replica refuses to shrink the
          voting membership below this (>= 1) *)
  learner_lag_bound : int;
      (** ns; a joining node stays a non-voting learner until its replay
          frontier is within this bound of the leader's durable frontier —
          promoting a laggard would stall every quorum behind it *)
  handoff_drain_timeout : int;
      (** ns; planned leader handoff waits at most this long for in-flight
          proposals to drain before granting the target immediate
          candidacy *)
  workers : int;  (** database worker threads per replica *)
  cores : int;  (** CPU cores per machine *)
  stream_mode : stream_mode;
  batch_policy : batch_policy;  (** static vs load-adaptive batching *)
  batch_size : int;  (** transactions per log entry (Adaptive: hard cap) *)
  batch_flush_interval : int;  (** ns; flush partially filled batches *)
  target_batch_delay_ns : int;
      (** ns; Adaptive policy's latency budget for time spent waiting in
          a batch — the knob the paper leaves static in Fig. 16 *)
  max_batch_bytes : int;
      (** Adaptive policy: flush once the pending batch reaches this many
          wire bytes, whatever its transaction count *)
  watermark_interval : int;  (** ns; the 0.5 ms periodic calculation *)
  heartbeat_interval : int;
  election_timeout : int;
  net_latency : Sim.Net.latency_model;
  costs : Silo.Costs.t;
  physical_serialization : bool;
      (** actually encode/decode each entry through {!Store.Wire} instead
          of only charging its byte cost — slower, used by tests *)
  networked_clients : bool;
      (** issue transactions from an open-loop networked client instead of
          the embedded generator (§6.4) *)
  client_rpc_overhead : int;  (** ns of server-side RPC work per txn *)
  client_rtt : int;  (** ns added to client-observed latency *)
  clients : int;
      (** number of networked client {e sessions} ({!Client}); when
          positive, workers serve queued client requests instead of
          running the embedded generator, and the cluster's net carries
          [replicas + clients] nodes (clients are nodes
          [replicas .. replicas+clients-1]) *)
  client_timeout : int;  (** ns a client waits for a reply before retrying *)
  client_retry_limit : int;
      (** attempts before a request is parked (graceful degradation when
          the cluster is unreachable) *)
  client_backoff_base : int;  (** ns; first retry backoff (doubles, jittered) *)
  client_backoff_max : int;  (** ns; backoff ceiling *)
  client_park_interval : int;
      (** ns a parked request sleeps before being re-driven *)
  admission_max_pending : int;
      (** admission control: queued-but-unclaimed client requests beyond
          this bound are answered [Busy] *)
  admission_max_release : int;
      (** admission control: per-worker release-queue bound *)
  admission_max_backlog : int;
      (** admission control: replay-backlog bound *)
  enqueue_cs_ns : int;
      (** critical-section cost of appending to a {e shared} stream; the
          strawman's bottleneck (68.7%% CPU at 30 threads, §2.2) *)
  entry_overhead_ns : int;
      (** fixed replication-layer cost per log entry (message handling,
          interrupts), amortised over the batch — this is what makes
          small batches slow in the Fig. 16 sweep *)
  replay_parallel : int;
      (** follower-replay fan-out: each released entry's sorted key run
          is cut into this many key-disjoint slices applied by concurrent
          processes on the follower's CPU (default [1] = one sequential
          sweep per entry) *)
  disable_replay : bool;
      (** keep followers from applying durable entries (the paper's
          "+Replication" factor-analysis configuration, Fig. 18) *)
  hash_tables : string list;
      (** names of tables every replica backs with the point-lookup hash
          representation instead of the ordered B-tree (default []);
          tables listed here must never be range-scanned — see
          {!Store.Table.repr} *)
  archive_entries : bool;
      (** retain every durable entry in memory — consumed by
          {!Bootstrap} when seeding a brand-new replica (§4.3) *)
  checkpoint_interval : int;
      (** ns between periodic fuzzy checkpoints of below-watermark state;
          [0] disables checkpointing (and therefore journal truncation).
          When positive, [archive_entries] must also be set: recovery is
          checkpoint + journal tail *)
  checkpoint_retention : int;
      (** ns of journal history kept beyond a quorum-stable checkpoint
          frontier before truncation applies it — the slowest follower
          lag truncation tolerates; must be at least [election_timeout] *)
  checkpoint_truncate : bool;
      (** drive {!Paxos.Stream} journal truncation from quorum-stable
          checkpoints (the [--no-truncate] ablation keeps checkpoints but
          retains the full journal) *)
  checkpoint_disk_mb_per_s : int;
      (** modeled bandwidth of the shared checkpoint disk *)
  checkpoint_threads : int;
      (** checkpoint writer threads striping tables across the disk *)
  follower_reads : bool;
      (** serve read-only client sessions from watermark-pinned snapshots
          on every lease-holding replica (followers at their replayed
          frontier, the leader at its release watermark); default [false]
          — the write path and every simulated timing are bit-identical
          with it off *)
  read_lease : int;
      (** ns of read-serving authority one leader heartbeat grants; must
          stay below [election_timeout] so no stale lease outlives a
          leader change (see {!validate}) *)
  read_workers : int;
      (** snapshot-read worker processes per serving replica *)
  read_retry_limit : int;
      (** times a snapshot read retries at a fresher pin after a
          reclaimed-version miss before answering [Busy] *)
  wan_profile : string;
      (** named {!Sim.Net.wan_profile} applied to the cluster's links
          (replicas and clients assigned to regions round-robin);
          [""] (default) keeps the uniform [net_latency] model *)
  shards : int;
      (** number of independent Rolis groups a {!Shard} deployment splits
          the keyspace across; [1] (default) is the classic single-group
          deployment — {!Cluster} ignores this field entirely, so the
          single-group path stays bit-identical *)
  cross_pct : float;
      (** fraction of workload transactions made genuinely distributed
          (cross-shard 2PC) by a partition-aware generator; [0.0] default.
          Requires [shards >= 2] when positive *)
  trace_sample_interval : int;
      (** {!Trace} sampling: record stage spans for every [n]-th
          committed transaction per worker; [0] disables tracing. Purely
          host-side bookkeeping — any value yields bit-identical
          simulated results *)
  trace_buffer_capacity : int;
      (** spans retained per {!Trace} ring buffer (one ring per worker
          plus one for replay/disposition events) *)
  seed : int64;
}

val default : t
(** TPC-C-oriented defaults: 3 replicas, batch 1000. *)

val ycsb : t
(** Same but batch 10000 (paper §6.1). *)

val nstreams : t -> int

val pool : t -> int
(** Total replica slots ([replicas + spare_replicas]); clients are
    numbered after the pool. *)

val validate : t -> unit
(** @raise Invalid_argument on inconsistent settings. *)
