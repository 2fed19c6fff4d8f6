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
  | Adaptive
      (** the only batching path: batches are sized from the stream's
          observed arrival rate to meet [target_batch_delay_ns], a
          per-batch deadline event flushes them at that budget, batches
          are capped at [batch_size] transactions and [max_batch_bytes]
          wire bytes, durability notifications drive the release pass,
          and Paxos coalesces proposals made while a round is in flight.
          The paper's static batch-size point (Fig. 16) is this path with
          a budget and byte cap that never bind. One constructor: it is
          not a setting, the type stays for callers that still name it *)

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
  workers : int;  (** database worker threads per replica *)
  cores : int;  (** CPU cores per machine *)
  stream_mode : stream_mode;
  batch_policy : batch_policy;  (** always [Adaptive] *)
  batch_size : int;  (** hard cap on transactions per log entry *)
  target_batch_delay_ns : int;
      (** ns; latency budget for time spent waiting in a batch: sizes
          batches from the arrival rate and bounds every batch's age
          through its deadline flush — the knob the paper leaves static
          in Fig. 16 *)
  max_batch_bytes : int;
      (** flush once the pending batch reaches this many wire bytes,
          whatever its transaction count; also caps one coalesced Paxos
          proposal *)
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
  admission_max_pending : int;
      (** admission control: queued-but-unclaimed client requests beyond
          this bound are answered [Busy] *)
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
      (** retain every durable entry in memory — the journal
          {!Replica.rebuild} replays when seeding a restarted or added
          replica (§4.3) *)
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
