(** Sharded multi-group deployment: each shard is a complete Rolis
    cluster, co-hosted on one virtual clock, with cross-shard
    transactions committed by a two-phase protocol whose prepare and
    decision records are themselves replicated entries in the
    participants' logs (coordinator-on-shard, the CockroachDB/TiKV
    pattern).

    The key property: every 2PC step is an ordinary client request, so
    it inherits replication, exactly-once session dedup and failover
    recovery from the existing machinery. A shard that fails over
    mid-protocol recovers the staged intent — and, on the coordinator
    shard, the commit/abort decision — by replaying its own journal;
    the driver's retries are answered from the rebuilt session table
    instead of re-executing. {!Check.cross_shard} audits the decision
    marks the journals carry.

    Sub-transactions are escrow-style (relative adjustments), so applies
    on different shards commute: atomic durability plus commutativity
    gives cross-shard conservation without a cross-shard lock table —
    the same argument deterministic-backup systems make for replay. *)

val table_2pc : string
(** Name of the control table each wrapped app gains ("__2pc"): intent
    rows keyed [("i", xid)] holding the staged sub-payload, decision
    rows keyed [("d", xid)] holding ["C"] or ["A"]. *)

val wrap_app : ?veto:(payload:string -> bool) -> App.t -> App.t
(** Overlay the 2PC control surface on an app's [client_op]. The control
    verbs, with [parts] the comma-separated remote participants:
    - ["!p <xid> <sub>"]: a remote participant stages [sub] as its
      intent row and votes yes (a vetoed [sub] votes no);
    - ["!c <xid> <parts> <sub>"]: the coordinator runs its own [sub]
      through the base op, writes the commit decision row and stamps one
      [Committed] mark whose [d_parts] lists [parts] — the commit point,
      one replicated entry, aborting if [veto] rejects [sub] or the base
      op aborts;
    - ["!a <xid> <parts>"]: the coordinator records an abort decision;
    - ["!x <xid>"] / ["!r <xid>"]: a remote applies (and consumes) or
      cancels its staged intent.

    Anything else dispatches to the base [client_op] unchanged (the
    zero-cost single-shard path). [veto ~payload] surfaces a
    deterministic user abort (e.g. TPC-C's 1% NewOrder rollback) before
    anything commits.
    @raise Invalid_argument if the base app has no [client_op]. *)

(** {2 Deployment} *)

type op =
  | Single of int * string
      (** [(shard, payload)]: issued directly, routes unchanged. *)
  | Multi of (int * string) list
      (** Cross-shard: participants with their sub-payloads; the first
          participant hosts the coordinator, the rest are remotes. *)

type gen = unit -> op

type t

val create :
  ?on_durable:
    (shard:int ->
    replica:int ->
    stream:int ->
    idx:int ->
    Store.Wire.entry ->
    unit) ->
  ?veto:(payload:string -> bool) ->
  ?readers:int * (shard:int -> Sim.Rng.t -> string) ->
  Config.t ->
  Router.t ->
  (shard:int -> App.t) ->
  gen:(rng:Sim.Rng.t -> driver:int -> gen) ->
  t
(** Build [cfg.shards] complete clusters on one fresh engine (seeded
    from [cfg.seed]) and spawn [cfg.clients] driver processes. Driver
    [j] holds one write session per shard (cid [j] everywhere), pulls
    logical transactions from [gen] (called once per driver with a split
    of the engine RNG) and either routes a [Single] directly or runs the
    2PC protocol for a [Multi]: ["!p"] on each remote, the folded ["!c"]
    on the coordinator, ["!x"] on each remote — three replicated rounds
    for a two-shard transaction. [veto] is installed in every shard's
    {!wrap_app} and also checked by the driver against the coordinator's
    sub before any remote prepares, so a vetoed transaction costs only
    the ["!a"] round. A driver fails the run if a remote apply of a
    committed transaction aborts. [app ~shard] supplies each shard's base
    application — constant for a replicated-everywhere schema, or
    range-restricted when each shard loads only its own partition.
    [shards = 1] is the degenerate single-group deployment — everything
    routes to shard 0 — kept legal so scaling benchmarks measure their
    baseline arm through the identical driver machinery.

    [readers = (n, read_gen)] adds [n] read-only {!Client} sessions per
    shard (cids [cfg.clients .. cfg.clients + n - 1], each with its own
    split of the engine RNG), issuing [read_gen ~shard rng] payloads
    against that shard's [read_op]; they stop with the drivers. Needs
    [cfg.follower_reads]. Omitted, nothing extra is spawned or drawn.
    @raise Invalid_argument if [cfg.shards <> Router.shards router] or
    [cfg.clients < 1]. *)

val engine : t -> Sim.Engine.t
val router : t -> Router.t
val shards : t -> int
val clusters : t -> Cluster.t array
val cluster : t -> int -> Cluster.t

val run : t -> ?warmup:int -> duration:int -> unit -> unit
(** Advance virtual time; after [warmup], reset every cluster's and
    driver's windowed stats. May be called repeatedly to extend. *)

val reset_window : t -> unit

val stop : t -> unit
(** Freeze the drivers after their in-flight logical transaction. *)

val quiesce : ?timeout:int -> t -> bool
(** {!stop}, then advance virtual time (host-side, like {!run}) until
    every driver is idle — its in-flight 2PC fully decided and applied —
    or [timeout] virtual ns elapse. Returns whether all drivers idled. *)

(** {2 Aggregate accounting} (over the last measurement window) *)

val committed : t -> int
(** Logical transactions committed by the drivers (a cross-shard
    transaction counts once). *)

val aborted : t -> int
val cross_committed : t -> int
val cross_aborted : t -> int

val prepares : t -> int
(** Successful remote prepare votes recorded across all 2PC rounds (the
    coordinator never prepares). *)

val released : t -> int
(** Release-committed {e sub}-transactions summed over every shard
    (includes 2PC control transactions — the raw log-level axis). *)

val throughput : t -> float
(** Logical transactions per virtual second — the scaling figure's
    y-axis. *)

val latency : t -> Sim.Metrics.Hist.t
(** Driver-observed logical-transaction latency, all drivers merged. *)

val cross_latency : t -> Sim.Metrics.Hist.t
(** Latency of cross-shard transactions only. *)

val acked_seqs : t -> int -> (int * int) list
(** [(cid, seq)] acks of every driver session on shard [s] — the input
    to that shard's {!Check.exactly_once}. *)

val sessions : t -> Client.t list
(** Every session: each driver's write session on every shard, then the
    read-only ones ({!Client.is_ro}). *)

val client_retries : t -> int
