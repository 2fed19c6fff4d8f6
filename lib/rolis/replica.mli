(** One Rolis replica: execution layer + replication layer + replay layer
    on a single simulated machine (paper Fig. 4).

    Every replica runs the same processes; the election module decides the
    role:

    - {b workers} (leader only): generate and execute transactions to
      their speculative commit, append the write-set log to the worker's
      batcher, and queue a release record; with [Config.clients > 0] they
      instead serve queued client requests ({!Client}), consulting the
      per-session dedup table before execution and acking only at release;
    - {b batchers/streams}: one Paxos stream per worker ([Per_worker]) or
      a single shared stream (the strawman);
    - {b controller} (the paper's "+1 core"): every [watermark_interval]
      recomputes the watermark, releases transactions that fell below it
      (leader), and advances the replay epoch;
    - {b replay threads} (follower, and during promotion): apply durable
      entries below the watermark via per-key compare-and-swap;
    - {b promotion}: on winning an election the replica recovers all
      streams, seals the old epoch with per-stream no-ops, waits until its
      own replay drains the old epochs, compacts tombstones, and only then
      serves (paper §4.1). Each wait wakes on the event that ends it (a
      stream finishing recovery, the replay epoch advancing, a
      step-down), not on a timer. Once serving, the new leader announces
      itself to every session in its replicated session table, ending
      those sessions' backoff and park naps ({!Client}). *)

type t

val create :
  Config.t ->
  Sim.Engine.t ->
  Paxos.Msg.t Sim.Net.t ->
  id:int ->
  app:App.t ->
  ?image:Silo.Db.t ->
  ?initial_leader:int ->
  ?membership:Paxos.Member.view * int ->
  ?learner:bool ->
  ?on_durable:(stream:int -> idx:int -> Store.Wire.entry -> unit) ->
  unit ->
  t
(** Builds the replica's state and spawns its processes. The fresh
    database is seeded immediately: without [image], [app.setup] loads
    it; with [image] — another replica's database holding only what its
    [app.setup] loaded — it starts from a {!Silo.Db.copy_tables} of that
    image instead, so one load serves a whole group. {!Cluster.create}
    seeds replica 0 by [setup] and the rest from its image.
    [on_durable] observes every durability commit (stream, index, entry)
    in commit order — the hook the invariant checker's oracle uses to
    cross-check agreement.
    [membership] seeds the voting view and its generation (default: the
    stable set [0 .. replicas-1] at generation 0 — spare pool slots are
    not voters); [learner] starts the replica non-voting and
    election-ineligible until a replicated configuration makes it a
    voter.
    @raise Invalid_argument if [image] holds more than a load (see
    {!Silo.Db.copy_tables}). *)

val id : t -> int

val view : t -> Paxos.Member.view
(** The voting view this replica currently believes in (accept-time
    adoption — latest configuration in its log, committed or not). *)

val mgen : t -> int
(** Membership generation of {!view}; monotone. *)

val db : t -> Silo.Db.t
val cpu : t -> Sim.Cpu.t
val stats : t -> Stats.t

val trace : t -> Trace.t
(** The replica's {!Trace} recorder: pipeline-stage spans for sampled
    transactions (execute, serialize, batch-submit, replicate, watermark
    wait, release; replay on followers; client dispositions). *)

val election : t -> Paxos.Election.t
val streams : t -> Paxos.Stream.t array

val is_serving : t -> bool
(** Leader that has finished promotion and accepts transactions. *)

val served_epoch : t -> int
val is_tainted : t -> bool
(** Stepped down after serving: local state may contain speculative writes
    that were never released; a tainted replica must rejoin via
    {!rebuild} (paper §4.3). *)

val replay_epoch : t -> int
val replay_backlog : t -> int
(** Durable entries queued but not yet replayed. O(1): maintained
    incrementally on enqueue/dequeue — admission control consults it on
    every client request. *)

val replay_backlog_scan : t -> int
(** The same count by folding over the replay queues (O(streams));
    reference implementation the tests assert {!replay_backlog}
    against. *)

val replay_frontier : t -> int
(** Minimum over streams of the last consumed entry timestamp — how far
    this replica has replayed (or skipped, for its own proposals) on the
    transaction-timestamp axis. [0] until every stream has consumed at
    least one entry. *)

val durable_frontier : t -> int
(** Highest entry timestamp this replica has seen reach quorum
    durability. [durable_frontier - replay_frontier] is the follower lag
    sampled into the [Replay_lag] stage histogram. *)

val lease_valid : t -> bool
(** Whether this replica may serve snapshot reads right now: a serving
    leader with quorum contact, or a follower holding an unexpired
    freshness lease from the newest epoch it knows
    ([Config.follower_reads] only; always false otherwise). *)

val read_audits : t -> (int * (int * string * int) list) list
(** The deterministic sample of served reads kept for
    {!Check.snapshot_reads}: per audited read, its pin and every
    observation [(table id, key, observed version timestamp)] the read
    body made ([-1] = key absent at the pin). Bounded: every 64th serve
    is eligible, and eligible serves feed a fixed-size reservoir whose
    deterministic draw keeps a uniform sample of the whole run. *)

val journal : t -> (int * int * Store.Wire.entry) list
(** [(stream, idx, entry)] triples in durability order (requires
    [archive_entries]); the donor data for {!rebuild}. The absolute
    stream index keys checkpoint truncation — timestamps cannot, because
    leader-change no-op fill entries carry [ts = 0]. *)

val journal_length : t -> int

val journal_bytes : t -> int
(** Resident bytes of the archived journal, maintained incrementally —
    the quantity checkpoint truncation bounds (the `mem5` benchmark's
    unbounded-growth axis). *)

val truncated_entries : t -> int
(** Archived entries dropped by {!apply_truncation} so far. *)

val final_watermark : t -> epoch:int -> int option
(** The sealed final watermark of [epoch], once known on this replica. *)

val crash : t -> unit
(** Kill every process of this replica (crash-stop). The caller is
    responsible for [Sim.Net.crash]. *)

val is_alive : t -> bool

val rebuild : ?ckpt:Checkpoint.replica_image -> t -> donors:t list -> unit
(** Seed this freshly created replica (paper §4.3): install [ckpt] when
    given — its rows, client sessions, sealed watermark history and
    frontiers — then inject the per-stream {e union} of the donors'
    journals above the image's cover (all of it without an image)
    through the protocol commit path, rebuilding watermark / replay /
    journal state as if this replica had followed the streams from
    there. Journals hold durable entries only, so any alive replica is a
    safe donor, and every row and journal write lands through the
    strictly-newer [(epoch, ts)] CAS, so the overlap a fuzzy image has
    with the tail double-applies harmlessly. The union matters:
    per-stream committed logs are prefixes of each other, but no single
    replica need hold the longest log of {e every} stream, and
    rebuilding from one donor could erase this replica's memory of a
    committed entry whose only other holder crashes next. The donors'
    accepted-but-uncommitted tails are merged in as {e accepted} state
    too: a survivor's accepted slot can be the only remaining copy of an
    entry committed at a since-crashed leader, and a rebuilt replica
    that lacks it could join a Prepare quorum that excludes that
    survivor — so a voluntary rebuild of an alive replica lists the old
    replica among [donors]. With an image, the modeled load time is paid
    as an election-ineligibility window. Entries committed after the
    snapshot arrive through the ordinary fetch path. Call before the
    engine runs any of this replica's events. *)

val salvage_vote : t -> old:t -> unit
(** Carry the granted vote of [old] onto this fresh replica — models
    persistent [votedFor]. Every restart path must call this: a
    rejoining node that forgets its vote can grant two votes in one
    ballot, the removed-then-readded double-vote hazard. *)

(** {2 Membership change and planned handoff} *)

val propose_reconfig : t -> members:int list -> bool
(** Start a joint-consensus membership change toward voter set [members]
    (serving leader only; one change in flight; refused while draining).
    Commits the transitional C_old,new configuration first — durability
    then requires a majority of {e both} configurations — and follows up
    with the stable C_new once the joint stage is durable. A leader that
    commits its own removal hands off to the first remaining voter.
    Returns whether the change was started. *)

val begin_handoff : t -> target:int -> unit
(** Planned leader transfer: stop admitting client work (redirecting at
    [target]), drain the release queues (for at most 500 ms), step down
    {e clean} — no taint; the database is exactly the replicated prefix —
    and grant [target] immediate candidacy with [Timeout_now], so the
    cluster never waits out an election timeout. A timed-out drain still
    transfers but takes the ordinary taint path; a transfer that elects
    no one resumes serving. *)

val set_learners : t -> int list -> unit
(** Register the learners every stream's truncation gate must retain log
    for (leader-side; see {!Paxos.Stream.set_learners}). *)

(** {2 Checkpoint-integrated recovery} *)

val last_checkpoint : t -> Checkpoint.replica_image option
(** The newest completed (and still-valid) fuzzy checkpoint, published
    for the cluster coordinator to persist. Followers only: a leader's
    database holds speculative above-watermark writes, and an image
    finishing after a mid-scan promotion or taint is discarded. *)

val checkpoints_taken : t -> int

val any_trunc_stalled : t -> bool
(** Some stream's log catch-up is wedged behind a peer's compaction
    floor ({!Paxos.Stream.trunc_stalled}); only a checkpoint rebuild
    ({!rebuild}) can make progress. *)

val apply_truncation : t -> cover:int array -> unit
(** Truncate the archived journal up to the quorum-stable checkpoint
    frontier [cover] (per-stream absolute index, inclusive) and raise the
    streams' compaction floor so slot truncation may pass lagging peers.
    Driven by the cluster coordinator, which first harvests dedup
    evidence from the dropped entries. *)

