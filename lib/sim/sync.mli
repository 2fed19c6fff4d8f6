(** Synchronization primitives for simulated processes.

    All blocking operations must be called from inside a process spawned on
    the engine the primitive was created with. Wakeups are delivered
    through the event queue (never synchronously inside the waker), so a
    [send]/[release]/[fill] never yields the calling process. *)

module Ivar : sig
  (** Write-once cell ("future"). *)

  type 'a t

  val create : Engine.t -> 'a t
  val fill : 'a t -> 'a -> unit
  (** @raise Invalid_argument if already filled. *)

  val read : 'a t -> 'a
  (** Blocks until filled. *)
end

module Mailbox : sig
  (** Unbounded FIFO channel. *)

  type 'a t

  val create : Engine.t -> 'a t
  val send : 'a t -> 'a -> unit
  val recv : 'a t -> 'a
  (** Blocks until a message is available. *)

  val recv_timeout : 'a t -> int -> 'a option
  (** [recv_timeout mb d] waits at most [d] ns; [None] on timeout. When a
      message wins the wait, the timeout event is cancelled
      ({!Engine.cancel}): it never fires, so a later drain ([Engine.run]
      without [~until]) stops at the last live event instead of at the
      abandoned deadline. *)

  val length : 'a t -> int
  (** Messages queued. *)

  val waiters : 'a t -> int
  (** Receivers queued, counting timed-out ones not yet dropped: those
      are dropped once they outnumber the live ones, so this stays within
      about twice the receivers actually blocked. *)

  val clear : 'a t -> unit
end

module Mutex : sig
  (** FIFO mutex with ownership handoff on unlock. *)

  type t

  val create : Engine.t -> t
  val lock : t -> unit
  val unlock : t -> unit
end

module Semaphore : sig
  type t

  val create : Engine.t -> int -> t
  val acquire : t -> unit
  val release : t -> unit
end

module Waitgroup : sig
  (** Counts outstanding tasks; [wait] blocks until the count reaches 0. *)

  type t

  val create : Engine.t -> t
  val add : t -> int -> unit
  val finish : t -> unit
  val wait : t -> unit
end
