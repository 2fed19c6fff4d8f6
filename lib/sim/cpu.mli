(** Virtual CPU model for one simulated machine.

    Worker processes charge their computation to a [Cpu.t] with {!consume};
    the charge is converted into virtual-time sleep, inflated by

    - an {e efficiency} factor modelling shared-resource slowdown (L3,
      memory bandwidth) as more threads become active — this is what bends
      the per-core throughput curves (paper Fig. 11); and
    - an {e oversubscription} factor [max 1 (active/cores)] when more
      threads are runnable than there are cores.

    The model is intentionally simple: it reproduces saturation and scaling
    shape, not cycle accuracy. *)

type t

val create :
  Engine.t ->
  cores:int ->
  ?efficiency:(active:int -> float) ->
  unit ->
  t
(** [create eng ~cores ()] is a machine with [cores] cores. The default
    [efficiency] is [1 + 0.85 * (min active 16 - 1) / 15]: cost grows
    linearly up to 16 active threads, then flattens — calibrated so a
    Silo-like workload's per-core throughput declines for the first ~15
    cores and then stabilises, as in the paper. *)

val engine_of : t -> Engine.t

val register : t -> unit
(** Mark one more thread as active on this machine. *)

val unregister : t -> unit

val consume : t -> int -> unit
(** [consume t cost] charges [cost] ns of computation: the calling process
    sleeps for the inflated amount, and the machine's busy-time accounting
    is updated. Must be called from inside a process. *)

val busy_ns : t -> float
(** Total core-nanoseconds of work consumed so far. *)

val utilization : t -> since:int -> float
(** [utilization t ~since] is busy-time divided by [cores * (now - since)],
    i.e. fraction of machine capacity used since time [since]. *)

val reset_busy : t -> unit
