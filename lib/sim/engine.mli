(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock (integer nanoseconds) and an event
    queue. Simulated activities are {e processes}: ordinary OCaml functions
    that run cooperatively via effect handlers. A process runs atomically
    between suspension points ([sleep], [suspend], or primitives in
    {!Sync} built on them), which gives the usual DES guarantee that state
    mutations between yields need no locking.

    Determinism: given the same seed and the same program, every run
    produces the same event order. Ties in virtual time are broken by a
    monotonically increasing sequence number. *)

type t
(** A simulation engine instance. *)

type proc
(** Handle to a spawned process. *)

type timer
(** Handle to one scheduled event, for {!cancel}. *)

val no_timer : timer
(** A handle to no event: cancelling it is a no-op. It fills a timer
    slot before the timer is scheduled. *)

exception Process_failure of string * exn
(** An exception escaped a process body: the simulation model has a bug.
    Carries the process name and the original exception. *)

val create : ?seed:int64 -> unit -> t
(** [create ?seed ()] is a fresh engine with virtual time 0. *)

val now : t -> int
(** Current virtual time in nanoseconds. *)

val rng : t -> Rng.t
(** The engine's root RNG; components should [Rng.split] it. *)

val schedule : t -> int -> (unit -> unit) -> unit
(** [schedule t at thunk] runs [thunk] at absolute virtual time [at]
    (clamped to [now t] if in the past). The thunk runs outside any
    process; it may spawn processes or wake suspended ones. *)

val schedule_timer : t -> int -> (unit -> unit) -> timer
(** [schedule_timer t at thunk] is {!schedule} that also returns a handle
    to the event. The event takes its place in the [(at, seq)] order
    exactly as {!schedule}'s would. *)

val cancel : t -> timer -> unit
(** [cancel t tm] removes [tm]'s event, scheduled on [t], from [t]'s
    queue: it never runs and is counted neither in {!events_fired} nor
    in {!ties}. Every other event keeps its instant and its place in the
    order, so cancelling an event whose thunk would do nothing leaves the
    simulation unchanged. A no-op if the event has already fired
    (including from inside its own thunk) or was cancelled before.
    Amortised O(1): dead entries are dropped when they reach the top of
    the queue, and all at once when they are more than half of it. *)

val spawn : t -> ?name:string -> (unit -> unit) -> proc
(** [spawn t f] schedules process [f] to start at the current time. The
    process may use the effect-based operations below. An exception
    escaping [f] aborts the whole simulation (it is a bug in the model). *)

val kill : proc -> unit
(** [kill p] marks [p] dead. If it is suspended it will never resume; its
    pending wakeups are dropped. Used to simulate thread/machine crashes. *)

val alive : proc -> bool

val run : ?until:int -> ?max_events:int -> t -> unit
(** [run t] executes events until the queue drains, or virtual time would
    exceed [until], or [max_events] events have fired. When [until] is
    given the clock is advanced to exactly [until] on return. Without
    [until], a drain leaves the clock at the last event that ran:
    cancelled events move neither the clock nor the [max_events] count,
    so a drain stops at the last live event even if a cancelled timeout
    was due later. *)

val events_fired : unit -> int
(** Events fired so far by every engine of this process (a host-cost
    counter: it grows by one per scheduled thunk, process wakeup or
    message delivery that {!run} executes). Cancelled events are not
    counted. *)

val resumptions : unit -> int
(** Process resumptions so far: first [wake]s of a {!suspend} that
    continued a live process. Every wake is called from an event thunk
    ({!Sync} delivers each from an event of its own), so these are the
    events that resumed a process; the rest of {!events_fired} ran other
    thunks, process starts included. *)

val cancelled : unit -> int
(** Events removed by {!cancel} before they fired, over every engine of
    this process. *)

val ties : unit -> int
(** How many of {!events_fired} fired at the same virtual instant as the
    event their engine fired just before — the events whose order only
    the sequence-number tie-break decides. *)

(** {1 Operations usable only inside a process} *)

val time : unit -> int
(** Current virtual time, from inside a process. *)

val sleep : int -> unit
(** [sleep d] suspends the current process for [d] nanoseconds ([d <= 0]
    yields: the process is rescheduled at the current time, after already
    queued events). *)

val suspend : (wake:('a -> unit) -> unit) -> 'a
(** [suspend register] parks the current process and calls
    [register ~wake]. A later call to [wake v] (from an event thunk or
    another process) resumes the process with value [v]. Only the first
    call to [wake] has any effect; wakeups of dead processes are dropped.
    This is the single primitive from which all of {!Sync} is built. *)

val us : int
val ms : int
val s : int
(** Unit helpers: [5 * ms] is five virtual milliseconds. *)
