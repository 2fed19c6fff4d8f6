(** Per-stream transaction batching (paper §3.2, Fig. 6).

    Workers hand their committed write-sets to a batcher right after
    execution commit (atomically — still inside the commit event — so the
    stream's entry timestamps stay monotone). When the batch reaches its
    target, its byte cap or its deadline, or a heartbeat tick forces it,
    the batch becomes one {!Store.Wire.entry} and is proposed on the
    stream.

    Cost accounting: the per-transaction serialization (memcpy) cost is
    charged to the submitting worker via {!charge_submit_cost}; the flush
    itself additionally charges the entry's bytes once more (the copy into
    the Paxos stream's log list — the paper's +Replication factor).

    In [Single] stream mode one batcher is shared by all workers and
    guarded by a mutex whose critical section costs 1.2 us — this is the
    strawman's scalability bottleneck (§2.2).

    {2 Latency-budget batching}

    Each stream tracks its arrival rate (an EWMA of inter-submit gaps in
    virtual time) and sizes batches to the number of transactions
    expected within [target_batch_delay_ns]; the first transaction of
    every batch also schedules a deadline event at
    [oldest + target_batch_delay_ns] which flushes whatever is pending, so
    no batch outlives the budget. A batch that leaves earlier (full,
    byte cap, heartbeat, or {!clear}) cancels its deadline event.
    Batches are additionally capped at [max_batch_bytes] wire bytes and
    at [batch_size] transactions. With a
    budget at or above the fill time and a byte cap that does not bind,
    every batch after the stream's first (flushed alone, before there is
    a rate estimate) fills to exactly [batch_size]: the paper's static
    point.
    Entry timestamps stay monotone per stream and every flush remains
    yield-free, whichever path triggers it. *)

type t

val create :
  Config.t ->
  ?coalesce_factor:(unit -> float) ->
  cpu:Sim.Cpu.t ->
  stats:Stats.t ->
  trace:Trace.t ->
  epoch:(unit -> int) ->
  propose:(Store.Wire.entry -> unit) ->
  shared:bool ->
  unit ->
  t
(** [trace] observes batch flushes: a flush stamps the [Batch_submit]
    span end of every sampled pending transaction in the batch.
    [coalesce_factor] reports the replication layer's
    average entries-per-quorum-round so the per-entry overhead charge can
    be amortised over what the wire actually carries; defaults to 1. *)

val submit : t -> Store.Wire.txn_log -> unit
(** Append one committed transaction (no yield). If the batch is full
    (rate-derived target, [batch_size] or byte cap) it is proposed
    immediately (still no yield). *)

val charge_submit_cost : t -> bytes:int -> unit
(** Charge the serialization cost for one submitted transaction; yields.
    In shared mode this also serializes through the enqueue mutex,
    charging the critical-section cost under the lock. Call {e before}
    the next transaction executes. *)

val flush : t -> unit
(** Propose any pending partial batch (no yield). *)

val clear : t -> unit
(** Drop pending transactions (failover: speculative work is abandoned). *)
