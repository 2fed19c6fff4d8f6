(** Stage-level pipeline tracing.

    The paper's argument is a pipeline claim: execute, replicate, replay
    and release each stay off the critical path (Rolis §5-§6). {!Stats}
    only observes the ends of that pipeline; this module gives each
    replica eyes on the middle. A deterministic 1-in-N sample of
    transactions (see {!Config.t.trace_sample_interval}) records one
    {!span} per pipeline stage into bounded per-worker ring buffers, and
    feeds per-stage latency histograms in {!Stats} from which
    [stage_breakdown] summaries (and paper-Figure-15-style latency
    decompositions) are derived.

    Tracing performs no virtual-time operations — no sleeps, no CPU
    charges, no RNG draws — so enabling or disabling it cannot change
    simulated results: measured throughput and latency are bit-identical
    at any sampling rate. Its only cost is host-side bookkeeping.

    {2 Stage model}

    A sampled leader transaction moves through five consecutive stages,
    bounded by six timestamps, plus a derived end-to-end stage:

    - [Execute]: the worker starts the transaction body, through OCC
      commit.
    - [Serialize]: OCC commit through the per-transaction
      serialization/replication CPU charge (this implementation charges
      serialization at submit time, so [Serialize] precedes the batch
      wait).
    - [Batch_submit]: serialization done, until the batch containing the
      transaction flushes and its entry is proposed on the Paxos stream.
      Zero-width when this transaction itself filled the batch.
    - [Replicate_durable]: proposal until quorum durability.
    - [Under_watermark]: durable until the watermark passes the
      transaction and the release pass reaches it.
    - [Release]: the whole pipeline, execution start to release — the
      client-visible latency the other five stages decompose.

    Followers emit [Replay] spans (applying one replayed transaction).
    The client RPC layer emits zero-width [Redirect], [Busy] and [Cached]
    disposition events.

    On failover, a deposed leader's in-flight sampled transactions are
    flushed to the rings with [sp_dropped = true] (whatever stages
    completed, plus the stage that was in progress, truncated at the drop
    time); the pending table is left empty — spans are never leaked. *)

type stage =
  | Execute
  | Serialize
  | Batch_submit
  | Replicate_durable
  | Under_watermark
  | Release
  | Replay
  | Redirect
  | Busy
  | Cached
  | Deadline_flush
      (** a batch hit its [target_batch_delay_ns]
          deadline and was flushed by the scheduled deadline event rather
          than by filling up (zero-width disposition event) *)
  | Replay_lag
      (** follower lag at one entry application: durable frontier minus
          replayed frontier on the transaction-timestamp axis — how far
          this replica's replay trails what is already durable *)
  | Client_park
      (** total ns one client request spent parked (retry limit reached,
          waiting out {!Client} park cycles) before finally
          resolving — the availability cost of an unreachable cluster,
          one histogram sample per resolved request *)
  | Client_redirect
      (** leader-chasing redirects ([Not_leader] replies) one client
          request absorbed before resolving — dimensionless count, one
          sample per resolved request *)
  | Read_serve
      (** dequeue-to-reply latency of one served snapshot read (virtual
          ns), one histogram sample per [Ok_read] *)
  | Read_staleness
      (** staleness of one served snapshot read: the replica's durable
          frontier minus the watermark pin it served at, on the
          transaction-timestamp axis (which rides virtual time) — how far
          behind the freshest durable state the read observed *)

val all_stages : stage list
val n_stages : int

val stage_index : stage -> int
(** Stable index in [0, n_stages), usable with {!Stats.note_stage}. *)

val stage_name : stage -> string
(** Lower-snake-case identifier, e.g. ["replicate_durable"]. *)

val stage_of_name : string -> stage option

type span = {
  sp_ts : int;  (** transaction timestamp; 0 for disposition events *)
  sp_worker : int;  (** worker id; -1 for replay/dispatcher events *)
  sp_stage : stage;
  sp_start : int;  (** virtual ns *)
  sp_end : int;  (** virtual ns; [>= sp_start] *)
  sp_dropped : bool;  (** speculative transaction dropped by failover *)
}

type t

val create :
  Sim.Engine.t ->
  stats:Stats.t ->
  workers:int ->
  sample_interval:int ->
  capacity:int ->
  t
(** [sample_interval = 0] disables tracing entirely (every call below is
    a cheap no-op); [n > 0] samples every [n]-th committed transaction
    per worker. [capacity] bounds each of the [workers + 1] ring buffers
    (the extra ring holds replay and disposition events).
    @raise Invalid_argument on negative interval or non-positive
    capacity. *)

val enabled : t -> bool

(** {2 Leader-side pipeline instrumentation} *)

type token
(** Handle to an in-flight sampled transaction, carried in the replica's
    release queue alongside the transaction's metadata. *)

val sample : t -> worker:int -> ts:int -> exec_start:int -> token option
(** Per-worker deterministic sampling decision at execution commit.
    [Some tok] for every [sample_interval]-th committed transaction of
    this worker; stamps the commit time and registers the transaction in
    the pending table. Call {e before} the batcher submit so the flush
    can observe the pending entry. *)

val note_serialized : t -> token -> unit
(** The submitting worker finished the serialization CPU charge. *)

val note_flushed : t -> ts:int -> unit
(** The batch containing [ts] flushed (entry proposed). No-op for
    unsampled [ts]. *)

val note_durable : t -> ts:int -> unit
(** The entry containing [ts] reached quorum durability. No-op for
    unsampled [ts]. *)

val has_pending : t -> bool
(** Fast guard for per-entry iteration on the durability path: followers
    (no pending sampled transactions) skip the per-transaction lookups. *)

val pending_count : t -> int

val note_released : t -> token -> unit
(** The watermark passed the transaction and the release pass acked it:
    emits the transaction's spans into its worker's ring and feeds
    {!Stats.note_stage}, then forgets the token. *)

val drop_all : t -> unit
(** Failover: the replica stopped serving and abandoned all speculative
    transactions. Every pending sampled transaction is emitted with
    [sp_dropped = true] and the pending table is cleared. Dropped spans
    do not feed the stage histograms. *)

(** {2 Follower and dispatcher instrumentation} *)

val sample_replay : t -> bool
(** Deterministic 1-in-N decision for replayed transactions. *)

val note_replay : t -> ts:int -> start:int -> stop:int -> unit
(** One replayed transaction was applied (guard with {!sample_replay}).
    Under bulk replay the span covers one whole entry. *)

val note_replay_lag : t -> frontier:int -> durable:int -> unit
(** One follower-lag sample (per applied entry, not 1-in-N-sampled): the
    replica has replayed up to timestamp [frontier] while [durable] is
    already durable cluster-wide. Feeds the [Replay_lag] stage histogram
    with [durable - frontier] (clamped at 0) and pushes the
    [frontier, durable] span into the replay ring. No-op when tracing is
    disabled, like every other stage recorder. *)

val note_read_serve : t -> start:int -> stop:int -> staleness:int -> unit
(** One snapshot read served: feeds the [Read_serve] histogram with
    [stop - start] (dequeue to reply) and the [Read_staleness] histogram
    with [staleness] (durable frontier minus pin), both clamped at 0.
    Histograms record every serve — they back the [reads:] diagnostics
    line and the bench staleness metric — while the ring sample follows
    the 1-in-N disposition sampling. *)

val note_disposition : t -> stage -> unit
(** A [Redirect], [Busy] or [Cached] client disposition, or a
    [Deadline_flush] batcher event (zero-width event, sampled 1-in-N). *)

(** {2 Reading the rings} *)

val spans : t -> span list
(** Contents of every ring, per ring oldest to newest (worker rings in
    worker order, then the shared replay/disposition ring). Bounded by
    [(workers + 1) * capacity]. *)
