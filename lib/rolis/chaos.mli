(** Seeded chaos harness: bank-transfer clusters under random fault
    plans, checked against the {!Check} invariants.

    One seed determines everything — engine schedule, workload, client
    sessions, and nemesis plans — so [run_seed ~seed] is a pure function
    of [seed] and a failing seed reproduces exactly (then bisect with the
    oracle's first-divergence report and the nemesis debug log).

    Every run deploys through {!Shard.create}: [shards] bank clusters
    (default 1, the classic single group), each loading its own slice of
    the accounts, driven by [clients] retrying {!Client} sessions riding
    the cluster networks. Drivers time out, back off, chase leader
    redirects and retry across failover — which is precisely what
    exercises the replicated session-dedup path on freshly promoted
    leaders — and commit cross-shard transfers through replicated 2PC.

    Each run: 300 ms steady state (plus any history warm-up); [duration]
    of faults from one independent nemesis per shard (crashes and
    restarts of any replica including the leader, symmetric and one-way
    partitions, loss/dup/reorder bursts — or rolling operations); then
    quiesce — stop the drivers, heal the networks, restart dead replicas,
    rebuild tainted ex-leaders, let each driver finish its in-flight
    transaction — and drain until replay converges.

    Feature matrix. Per cluster, always: Paxos agreement (oracle +
    journal prefixes), sealed-watermark agreement (periodic and final),
    membership agreement, cross-replica state convergence and the
    end-to-end exactly-once audit of every driver ack against the union
    durable log; {!Check.snapshot_reads} when [follower_reads]; and
    {!Check.money} when [shards = 1]. Deployment-wide, always:
    {!Check.cross_shard} and {!Check.money_sharded}. Follower reads, WAN
    profiles and cross-shard transfers compose with any shard count;
    checkpoints and rolling operations need [shards = 1] (see
    {!run_seed}). *)

val bank_table : string
val initial_balance : int

val bank_app : ?range:int * int -> accounts:int -> unit -> App.t
(** Random transfers between [accounts] accounts; conserves total money.
    The app also carries a [client_op] parsing ["a b amount"] (transfer),
    ["w a amount"] (withdraw) and ["c a amount"] (credit) payloads, so it
    can be driven by {!Client} sessions — the one-sided forms are the
    cross-shard 2PC halves. [range] restricts setup to loading only the
    inclusive account slice [(lo, hi)] (a shard's partition); money is
    then conserved only globally, across all shards
    ({!Check.money_sharded}). *)

val bank_payload : Sim.Rng.t -> accounts:int -> string
(** One random transfer request ["a b amount"] with [a <> b], suitable as
    a {!Client.spawn} [gen]. *)

val bank_read_payload : Sim.Rng.t -> accounts:int -> string
(** One random balance-read request (an account id), suitable as a
    read-only {!Client.spawn} [gen] against [bank_app]'s [read_op]. *)

type outcome = {
  seed : int;
  violations : Check.violation list;  (** empty iff the run passed *)
  released : int;
  executed : int;
  crashes : int;
  restarts : int;
  epochs : int;  (** highest election epoch reached *)
  entries_checked : int;  (** durability commits the oracle cross-checked *)
  acked : int;  (** requests the client sessions got [Ok_released] for *)
  client_retries : int;  (** client resends (timeout / redirect / busy) *)
  busy_replies : int;  (** admission-control pushback seen by clients *)
  parked : int;  (** times a session exhausted retries and parked *)
  checkpoints : int;  (** completed fuzzy checkpoints (current replicas) *)
  truncations : int;  (** cluster-wide journal truncation rounds *)
  rebuilds : int;  (** coordinator-forced checkpoint rebuilds of wedged followers *)
  adds : int;  (** completed add-replica membership changes (ops mode) *)
  removes : int;  (** completed remove-replica membership changes *)
  handoffs : int;  (** completed planned leader transfers *)
  ops_skipped : int;  (** membership operations refused or timed out *)
  reads_acked : int;  (** balance reads the read-only sessions got answered *)
  reads_served : int;  (** snapshot reads answered, all replicas *)
  reads_parked : int;  (** read requests bounced Busy (lease lapse / backlog) *)
  reads_redirected : int;  (** read requests bounced Not_leader *)
  read_misses : int;  (** snapshot-miss retries (reclaimed version races) *)
  shards : int;  (** shard groups in the deployment (1 = classic run) *)
  cross_committed : int;  (** cross-shard 2PC transactions committed *)
  cross_aborted : int;  (** cross-shard 2PC transactions aborted *)
}

val ok : outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit

val run_seed :
  ?replicas:int ->
  ?workers:int ->
  ?clients:int ->
  ?accounts:int ->
  ?duration:int ->
  ?checkpoint_interval:int ->
  ?history_warmup:int ->
  ?ops:bool ->
  ?spares:int ->
  ?follower_reads:bool ->
  ?read_clients:int ->
  ?read_lease:int ->
  ?wan_profile:string ->
  ?shards:int ->
  ?cross_pct:float ->
  seed:int ->
  unit ->
  outcome
(** Defaults: 1 shard of 3 replicas, 4 workers, 8 client sessions
    (drivers), 48 accounts, 3 virtual seconds of fault injection,
    checkpointing off.

    [shards > 1] splits [accounts] evenly across that many clusters;
    [cross_pct] (default 0.2, ignored at one shard) of the transfers
    span two shards as one-sided withdraw/credit halves committed
    through 2PC, so coordinator and participant shards fail over
    mid-protocol.

    [checkpoint_interval > 0] turns on the checkpoint subsystem with a
    retention equal to the election timeout (the minimum Config allows),
    so truncation rounds fire inside the run and crashes race in-progress
    checkpoints, checkpointer processes and truncation-racing recoveries.
    [history_warmup] adds fault-free run time before the nemesis starts,
    letting journals grow and compaction fire first — the long-history
    crash scenarios.

    [ops] switches the nemesis to the rolling-operations plan
    ({!Sim.Fault.ops_plan}): add-replica (through [spares] dark pool
    slots, default 2), remove-replica, planned leader handoff, and
    rolling restarts, while the client sessions keep committing.
    Checkpointing defaults on in ops mode (joining learners bootstrap
    from the newest image + tail); the exactly-once audit covers removed
    nodes through the evidence harvested at decommission.

    [follower_reads] turns on the watermark-snapshot read path and adds
    [read_clients] (default 4) read-only sessions per shard driving
    balance reads of that shard's accounts at its replica pool, with a
    freshness lease of [read_lease] (default 150 ms — the chaos election
    timeout is 300 ms and Config requires lease < timeout). Their acks
    are excluded from the exactly-once audit (reads are idempotent).
    [wan_profile] applies a named {!Sim.Net.wan_profile} latency matrix
    to every cluster ([""] = uniform).

    @raise Invalid_argument for [shards > 1] with checkpoints (and so
    with [ops], which turns them on): truncation would drop the decision
    marks {!Check.cross_shard} audits, and no decommission-style harvest
    of that evidence exists yet; also for fewer than two accounts per
    shard, [clients < 1], or any configuration {!Config} rejects. *)
