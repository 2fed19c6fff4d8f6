(** Per-replica measurement: release-commit throughput and latency, stage
    byte counts, speculative-memory accounting, replay counters.

    Throughput and latency are always computed over {e release-committed}
    transactions — the paper's definition (§6.1): a transaction counts
    when the watermark passes it and its result goes back to the client. *)

type t

val create : Sim.Engine.t -> t

val note_executed : t -> unit
(** Execution commit (speculative) — for pipeline-depth accounting. *)

val note_user_abort : t -> unit

val note_submitted : t -> bytes:int -> unit
(** A transaction's log entered a batch: bytes start accumulating as
    speculative (delayed-commit) memory (§5). *)

val note_serialized : t -> bytes:int -> unit

val note_replicated : t -> bytes:int -> unit
(** One batch flushed into a proposed log entry of [bytes] wire bytes;
    also counts the entry for the average-batch-size gauge. *)

val note_deadline_flush : t -> unit
(** A batch was flushed by its
    [target_batch_delay_ns] deadline event rather than by filling. *)

val note_event_release : t -> unit
(** A durability notification advanced the watermark and drove a release
    pass directly (event-driven release). *)

val note_released : t -> start:int -> latency:int -> bytes:int -> unit
(** Release commit: count it, record client latency, release its bytes.
    [start] is the transaction's execution-start time: samples whose
    transaction began before the current measurement window opened (see
    {!reset_window}) are excluded from the latency histogram — their
    latency includes pre-warm-up queueing — but still count toward
    throughput. *)

val note_dropped_speculative : t -> bytes:int -> unit
(** Failover dropped a speculative transaction (never released). *)

val note_client_request : t -> unit
(** A [Client_req] arrived at this replica (any disposition). *)

val note_cached_reply : t -> unit
(** A retried request was answered from the session table without
    re-execution — the dedup path. *)

val note_busy_reply : t -> unit
(** Admission control shed a request with [Busy]. *)

val note_redirect : t -> unit
(** A non-serving replica answered [Not_leader]. *)

val note_parked : t -> ns:int -> unit
(** A client request that had been parked (retry limit exhausted) finally
    resolved after spending [ns] parked in total; counts the request and
    accumulates the parked time. Recorded client-side — pair it with the
    [Client_park] stage histogram for the distribution. *)

val max_stages : int

val note_stage : t -> stage:int -> latency:int -> unit
(** Record one pipeline-stage latency sample. [stage] is a
    {!Trace.stage_index}; out-of-range indices are ignored. Fed by
    {!Trace} when a sampled transaction's span completes. *)

val stage_hist : t -> int -> Sim.Metrics.Hist.t
(** Latency histogram of one stage (windowed; cleared by
    {!reset_window}).
    @raise Invalid_argument outside [0, max_stages). *)

val note_replayed : t -> txns:int -> writes:int -> unit
val sample_speculative_memory : t -> unit
(** Called at each watermark tick; feeds the average-memory gauge. *)

val released : t -> int
val release_series : t -> Sim.Metrics.Series.t
(** Releases bucketed per 100 ms of virtual time (failover timeline). *)

val latency : t -> Sim.Metrics.Hist.t
val executed : t -> int
val user_aborts : t -> int
val replayed_txns : t -> int
val replayed_writes : t -> int
val client_requests : t -> int
val cached_replies : t -> int
val busy_replies : t -> int
val redirects : t -> int

val parked_ns : t -> int
(** Total ns resolved client requests spent parked (availability gap). *)

val parked_requests : t -> int
(** Resolved client requests that were parked at least once. *)

val serialized_bytes : t -> int
val replicated_bytes : t -> int
val speculative_bytes : t -> int
(** Currently accumulated delayed-commit memory. *)

val entries_flushed : t -> int
(** Log entries proposed this window ([released / entries_flushed] is the
    realized average batch size). *)

val deadline_flushes : t -> int
val event_releases : t -> int

val note_read_served : t -> unit
(** A snapshot read was served with [Ok_read] from this replica. *)

val note_read_parked : t -> unit
(** A read request was refused (no valid lease, or retry budget
    exhausted) — the replica answered [Busy]. *)

val note_read_redirect : t -> unit
(** A read request was answered [Not_leader] (redirect to a serving
    replica). *)

val note_read_miss : t -> unit
(** A pinned read hit a reclaimed version ({!Silo.Db.Snapshot_miss}) and
    was retried at a fresher pin. *)

val reads_served : t -> int
val reads_parked : t -> int
val reads_redirected : t -> int
val read_misses : t -> int

val avg_speculative_bytes : t -> float
val peak_speculative_bytes : t -> int

val throughput : t -> start:int -> stop:int -> float
(** Released transactions per virtual second over the window. *)

val reset_window : t -> unit
(** Zero the windowed counters (throughput, latency, series, stage
    histograms) without touching gauges — call after warm-up. Also marks
    the window start: later releases of transactions that {e began}
    before this moment are excluded from the latency histograms. *)
