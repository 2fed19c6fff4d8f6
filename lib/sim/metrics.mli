(** Measurement utilities for experiments: histograms (latency
    percentiles), and time series (throughput over time). *)

module Hist : sig
  (** Sample histogram. Stores all samples (runs are bounded, virtual-time
      experiments) and sorts lazily for quantiles. *)

  type t

  val create : unit -> t
  val add : t -> int -> unit
  val count : t -> int
  val quantile : t -> float -> int
  (** [quantile h q] with [0 <= q <= 1]; nearest-rank. 0 when empty. *)

  val percentile : t -> float -> int
  (** [percentile h 95.0 = quantile h 0.95]. *)

  val clear : t -> unit
  val values : t -> int array
  val merge : t list -> t
end

module Series : sig
  (** Values bucketed by virtual-time interval — e.g. committed
      transactions per 100 ms for the failover timeline (paper Fig. 14). *)

  type t

  val create : bucket_ns:int -> t
  val add : t -> at:int -> int -> unit
  (** Accumulate [v] into the bucket containing time [at]. *)

  val rate_per_sec : t -> (float * float) list
  (** Buckets converted to (seconds, events/sec). *)
end
