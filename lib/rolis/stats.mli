(** Per-replica measurement: one table of event counters, plus the
    release-latency histogram, the release series, per-stage latency
    histograms and the speculative-memory gauge.

    Throughput and latency are always computed over {e release-committed}
    transactions — the paper's definition (§6.1): a transaction counts
    when the watermark passes it and its result goes back to the client.

    {2 Counters and the measurement window}

    Every count is one {!counter} slot, bumped with {!add} and read with
    {!get}; {!Cluster.count} sums a slot over a cluster's replicas. The
    counters from [Executed] through [Read_misses] are {e windowed}:
    {!reset_window} (the end of warm-up) zeroes them. [Busy_replies],
    [Redirects], [Parked_requests] and [Parked_ns] are cumulative over
    the whole run. Counting performs no virtual-time operation. *)

type t

type counter =
  | Executed  (** execution commits (speculative) *)
  | User_aborts
  | Released  (** release commits; bumped by {!note_released} *)
  | Serialized_bytes  (** log bytes serialized at submit (§5) *)
  | Entries_flushed
      (** log entries proposed ([Released / Entries_flushed] is the
          realized average batch size) *)
  | Deadline_flushes
      (** batches flushed by their [target_batch_delay_ns] deadline event
          rather than by filling *)
  | Event_releases
      (** release passes driven directly by a durability notification
          that advanced the watermark *)
  | Replayed_txns
      (** transactions applied by follower replay: every [ts <= upto]
          transaction of each replayed entry *)
  | Reads_served  (** snapshot reads answered [Ok_read] *)
  | Reads_parked
      (** read requests answered [Busy]: no valid lease, a full read
          queue, or the snapshot-miss retry budget exhausted *)
  | Reads_redirected  (** read requests answered [Not_leader] *)
  | Read_misses
      (** pinned reads that hit a reclaimed version
          ({!Silo.Db.Snapshot_miss}) and retried at a fresher pin *)
  | Busy_replies  (** write requests admission control shed with [Busy] *)
  | Redirects  (** write requests a non-serving replica answered [Not_leader] *)
  | Parked_requests
      (** resolved client requests that were parked at least once
          (client side) *)
  | Parked_ns
      (** total ns those requests spent parked (client side; the
          [Client_park] stage histogram holds the distribution) *)

val create : Sim.Engine.t -> t

val add : t -> counter -> int -> unit
val get : t -> counter -> int

val note_submitted : t -> bytes:int -> unit
(** A transaction's log entered a batch: bytes start accumulating as
    speculative (delayed-commit) memory (§5). *)

val note_released : t -> start:int -> latency:int -> bytes:int -> unit
(** Release commit: count it, record client latency, release its bytes.
    [start] is the transaction's execution-start time: samples whose
    transaction began before the current measurement window opened (see
    {!reset_window}) are excluded from the latency histogram — their
    latency includes pre-warm-up queueing — but still count toward
    throughput. *)

val note_dropped_speculative : t -> bytes:int -> unit
(** Failover dropped a speculative transaction (never released): its
    bytes leave the speculative-memory gauge. *)

val note_stage : t -> stage:int -> latency:int -> unit
(** Record one pipeline-stage latency sample. [stage] is a
    {!Trace.stage_index}; out-of-range indices are ignored. Fed by
    {!Trace} when a sampled transaction's span completes. *)

val stage_hist : t -> int -> Sim.Metrics.Hist.t
(** Latency histogram of one stage (windowed; cleared by
    {!reset_window}).
    @raise Invalid_argument outside the stage index range. *)

val sample_speculative_memory : t -> unit
(** Called at each watermark tick; feeds the average-memory gauge. *)

val release_series : t -> Sim.Metrics.Series.t
(** Releases bucketed per 100 ms of virtual time (failover timeline). *)

val latency : t -> Sim.Metrics.Hist.t

val speculative_bytes : t -> int
(** Currently accumulated delayed-commit memory. *)

val avg_speculative_bytes : t -> float
val peak_speculative_bytes : t -> int

val reset_window : t -> unit
(** Zero the windowed counters, the latency histogram, the release series
    and the stage histograms without touching the cumulative counters or
    the gauges — call after warm-up. Also marks the window start: later
    releases of transactions that {e began} before this moment are
    excluded from the latency histograms. *)

val busy_replies : t -> int
(** [get t Busy_replies]; kept for perf/ until the benchmark PR. *)

val redirects : t -> int
(** [get t Redirects]; kept for perf/ until the benchmark PR. *)

val parked_requests : t -> int
(** [get t Parked_requests]; kept for perf/ until the benchmark PR. *)
