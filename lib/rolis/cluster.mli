(** A complete Rolis deployment inside one simulation engine: [replicas]
    machines, a network, and an application.

    Typical use (and what every benchmark does):

    {[
      let cluster = Cluster.create cfg app in
      Cluster.run cluster ~warmup:(200 * Sim.Engine.ms) ~duration:Sim.Engine.s ();
      let tps = Cluster.throughput cluster in
    ]}

    Throughput and latency cover {e release-committed} transactions only,
    summed over every replica that served during the measurement window
    (so a failover run counts the old leader's releases before the crash
    and the new leader's after).

    Every per-replica count is one {!Stats.counter}: {!count} sums it
    over the replicas, e.g. [Cluster.count c Stats.Replayed_txns].
    {!reset_window} (run by {!run} at the end of warm-up) zeroes the
    windowed counters, histograms and series of every replica and of both
    client-side stats; the cumulative counters ([Busy_replies],
    [Redirects], [Parked_*]) span the whole run. *)

type t

val create :
  ?initial_leader:int option ->
  ?on_durable:(replica:int -> stream:int -> idx:int -> Store.Wire.entry -> unit) ->
  ?eng:Sim.Engine.t ->
  Config.t ->
  App.t ->
  t
(** Build replicas, load the application on each, spawn all processes.
    [initial_leader] defaults to [Some 0] (skip the cold-start election);
    pass [None] to start leaderless. [on_durable] observes every
    durability commit on every replica (see {!Check.Oracle}). The network
    carries [pool + clients] nodes, where [pool = replicas +
    spare_replicas]: spare slots are created dark (crashed at birth) and
    only join through {!add_replica}; client sessions occupy
    [pool .. pool+clients-1] — spawn them with {!Client.spawn} on
    {!network}, passing {!client_stats}. [eng] hosts the cluster on an
    existing engine instead of creating one — how a {!Shard} deployment
    runs many groups on one virtual clock; omitted, behaviour (and every
    drawn random number) is exactly the historical single-cluster path. *)

val engine : t -> Sim.Engine.t
val network : t -> Paxos.Msg.t Sim.Net.t
val config : t -> Config.t
val replicas : t -> Replica.t array
val replica : t -> int -> Replica.t

val leader : t -> Replica.t option
(** The replica currently serving transactions, if any. *)

val members : t -> int list
(** Current voter set as the management plane tracks it (advanced when a
    reconfiguration completes; the replicated configuration log is ground
    truth). *)

val learners : t -> int list
(** Pool slots currently catching up as non-voting learners. *)

val membership_gen : t -> int
(** Generation of the last completed membership change. *)

val client_stats : t -> Stats.t
(** Shared client-side stats (parked time, redirect counts): pass to
    {!Client.spawn} via [?stats]; merged into {!stage_breakdown} as the
    [client_park] / [client_redirect] stages. *)

val client_read_stats : t -> Stats.t
(** Shared stats for {e read-only} client sessions: pass to
    {!Client.spawn} via [?stats] when spawning with [~ro:true], so the
    read dispositions (park / redirect) stay separate from the write
    path's. Merged into {!stage_breakdown} alongside {!client_stats}. *)

val adds : t -> int
val removes : t -> int
val handoffs : t -> int

val ops_skipped : t -> int
(** Membership operations refused (illegal at the time) or timed out;
    each leaves the cluster in a safe state. *)

val run : t -> ?warmup:int -> duration:int -> unit -> unit
(** Advance virtual time by [warmup] (then reset all windowed stats) plus
    [duration]. May be called repeatedly to extend a run. *)

(** {2 Window management for co-hosted clusters}

    A {!Shard} deployment hosts many clusters on one shared engine: it
    advances virtual time itself and brackets every cluster's measurement
    window with these. [run] is exactly
    [warmup-advance; reset_window; open_window; advance; close_window]. *)

val reset_window : t -> unit
(** Zero every windowed stat (replica, client and read-client side) —
    the end-of-warmup reset. *)

val open_window : t -> unit
(** Mark the measurement window's start at the current virtual time. *)

val close_window : t -> unit
(** Mark the measurement window's end at the current virtual time. *)

val crash_replica : t -> int -> unit
(** Crash-stop a machine: kill its processes and cut it from the network. *)

val restart_replica : ?learner:bool -> t -> int -> unit
(** Rebuild replica [i] from scratch (crashing it first if still alive):
    fresh database and streams, seeded by {!Replica.rebuild} from the
    newest persisted image plus the journal tail above its cover (when
    [checkpoint_interval > 0] and an image exists) or from the
    per-stream union of every alive peer's journal — with the old
    incarnation first among the donors when it was still alive, so its
    accepted-but-uncommitted slots survive; rejoin as follower, carrying
    the newest adopted membership view and — always — the vote the old
    incarnation granted (persistent votedFor; a node that forgot it could
    vote twice in one ballot). [learner] starts it non-voting (see
    {!add_replica}). The entries committed after the snapshot arrive
    through the hardened fetch path. *)

(** {2 Live reconfiguration}

    Blocking management-plane operations — call them from inside a
    spawned simulation process (a nemesis, a bench driver). Every
    operation is defensive: illegal or timed-out operations count in
    {!ops_skipped}, return [false] and leave the cluster in a safe
    state, so chaos plans may schedule them optimistically. *)

val add_replica : t -> int -> bool
(** Bring pool slot [i] in as a voter: restart it as a non-voting
    learner (seeded by {!Replica.rebuild}, from checkpoint + journal tail
    when available),
    register it with every replica's truncation gate, wait until its
    replay frontier trails the leader's durable frontier by at most
    200 ms of virtual time, then run the joint-consensus membership
    change (C_old,new, then C_new) that promotes it. *)

val remove_replica : t -> int -> bool
(** Take voter [i] out via joint consensus (the leader hands off first
    when removing itself), then harvest the node's full journal as dedup
    evidence for {!Check.exactly_once} and decommission (crash) it.
    Refuses to shrink below [Config.min_members]. *)

val handoff : t -> target:int -> bool
(** Planned leader transfer: the serving leader drains its release
    queues, steps down clean and grants [target] immediate candidacy —
    no election-timeout gap (see {!Replica.begin_handoff}). *)

val window : t -> int * int
(** Measurement window [(start, stop)] of the last {!run}. *)

val count : t -> Stats.counter -> int
(** One {!Stats.counter} summed over every replica (the client-side
    stats are not included). Windowed counters cover the last measurement
    window; see {!Stats} for which are windowed. *)

val throughput : t -> float
(** Released transactions per virtual second over the last window. *)

val latency : t -> Sim.Metrics.Hist.t
(** Release latencies merged across replicas. *)

val release_rate : t -> (float * float) list
(** (seconds, releases/sec) in 100 ms buckets, merged across replicas —
    the failover timeline (Fig. 14). *)

val stage_summary : t -> Trace.stage -> (int * int * int * int) option
(** One pipeline stage's latency summary over the last window, merged
    across replicas and both client-side stats:
    [(samples, p50_ns, p95_ns, p99_ns)], [None] when nothing was
    recorded. [Replay_lag] (durable frontier minus replayed frontier on
    the transaction-timestamp axis, one sample per follower controller
    tick) and [Read_staleness] (durable frontier minus read pin at serve
    time; all zero unless [Config.follower_reads] is on) are recorded
    with tracing off too; the other stages only when
    [trace_sample_interval > 0]. *)

val stage_breakdown : t -> (string * int * int * int * int) list
(** {!stage_summary} of every {!Trace.stage} that recorded at least one
    sample: [(stage, samples, p50_ns, p95_ns, p99_ns)]. *)

val coalesced_proposals : t -> int
(** Proposals merged into an earlier entry's quorum round by the
    replication layer. *)

(** {2 Counter getters kept for perf/}

    [count t] of one counter each; kept for perf/ until the benchmark
    PR. *)

val released : t -> int
val entries_flushed : t -> int
val replayed_txns : t -> int
val reads_served : t -> int
val reads_parked : t -> int
val reads_redirected : t -> int
val read_misses : t -> int

(** {2 Checkpoint-integrated recovery}

    Active when [checkpoint_interval > 0]: a cluster coordinator process
    (modeled crash-free, like the membership service real deployments
    rely on) persists each follower's finished fuzzy checkpoint to that
    replica's durable disk, computes the quorum-stable frontier over the
    persisted images (top-majority by scalar cover, elementwise min),
    and — after [checkpoint_retention] has elapsed, so a lagging-but-
    permitted follower still finds its slots — truncates every alive
    replica's journal up to it, harvesting the dropped entries' dedup
    evidence first. A follower wedged behind a compaction floor is
    rebuilt automatically via checkpoint bootstrap. *)

val harvested_requests : t -> ((int * int) * (int * int) list) list
(** Per truncated [(stream, idx)] slot, the client request keys its entry
    applied — the evidence {!Check.exactly_once} uses for slots absent
    from every surviving journal. *)

val trunc_frontier : t -> int array
(** Highest per-stream journal index truncated cluster-wide (inclusive;
    [-1] = nothing truncated on that stream). *)

val truncation_rounds : t -> int
val auto_rebuilds : t -> int
(** Followers rebuilt by the coordinator because log catch-up was wedged
    behind a compaction floor. *)

val checkpoints_taken : t -> int
(** Completed checkpoints across current replicas (restart resets a
    replica's count). *)

val journal_bytes_total : t -> int
val journal_entries_total : t -> int
val truncated_entries_total : t -> int

val newest_checkpoint : t -> Checkpoint.replica_image option
(** The freshest persisted image across all replica disks (the `run`
    diagnostics line). *)
