(** Versioned record — the unit of concurrency control and replay.

    Each key in a table maps to one [Record.t] carrying:

    - the current value (or a tombstone after deletion);
    - the [(epoch, ts)] pair of its last writer, used by follower replay's
      compare-and-swap (paper §3.4): an apply only wins if its
      [(epoch, ts)] is strictly newer;
    - an OCC [version] counter bumped on every install, used by read-set
      validation on the leader;
    - a write-lock owner field (Silo locks the write-set at commit); and
    - a bounded prior-version slot ([snap_*]) holding the newest
      overwritten version still above the snapshot read-pin floor, so
      read-only transactions pinned at a watermark can read below
      concurrent replay installs. *)

type t = {
  mutable value : string;
  mutable deleted : bool;
  mutable epoch : int;
  mutable ts : int;
  mutable version : int;
  mutable locker : int;  (** worker id holding the write lock; -1 = free *)
  mutable snap_value : string;  (** prior version retained for snapshot reads *)
  mutable snap_deleted : bool;
  mutable snap_epoch : int;
  mutable snap_ts : int;  (** stamp of the retained version; -1 = slot empty *)
}

val make : ?epoch:int -> ?ts:int -> string -> t

val copy : t -> t
(** A fresh record with every field of the argument; the value strings
    are shared (strings are immutable, so only the record is copied). *)

val is_locked : t -> bool
val try_lock : t -> worker:int -> bool
(** Idempotent for the same worker (re-entrant within one commit). *)

val unlock : t -> worker:int -> unit
(** @raise Invalid_argument if [worker] does not hold the lock. *)

val install : t -> epoch:int -> ts:int -> value:string option -> unit
(** Leader-side install at commit: set value ([None] = tombstone), stamp
    [(epoch, ts)], bump [version]. *)

val cas_apply : t -> epoch:int -> ts:int -> value:string option -> bool
(** Replay-side apply: install only if [(epoch, ts)] is strictly newer
    than the record's current stamp; returns whether it won. Idempotent:
    re-applying the same stamped write is a no-op. *)

val install_retain :
  t -> floor:int -> epoch:int -> ts:int -> value:string option -> unit
(** [install], but first retains the outgoing version in the
    prior-version slot when a snapshot read pinned at or above [floor]
    could still need it ([floor < ts]); otherwise the slot is reclaimed.
    The slot never chains — it holds at most one prior version. *)

val cas_apply_retain :
  t -> floor:int -> epoch:int -> ts:int -> value:string option -> bool
(** [cas_apply] with the same retention discipline as [install_retain].
    Additionally, a {e rejected} write whose [ts] falls strictly between
    the slot's and the record's is parked in the slot: parallel
    per-stream replay can deliver a ts-older write after a ts-newer one
    already landed, and that loser is exactly the newest version below
    the current stamp — what a read pinned between the two must see. *)

val snap_clear : t -> unit
(** Empty the prior-version slot (reclaims its bytes). *)

type snapshot = Visible of string option * int | Miss

val read_at : t -> pin:int -> snapshot
(** Version visible at watermark [pin], with its stamp: the current
    version if [ts <= pin], else the retained prior version if it is
    itself at or below the pin, else [Visible (None, -1)] when the key
    did not exist at the pin, and [Miss] when the prior version has
    already been overwritten past the pin (the reader must retry at a
    fresher pin). Never returns torn state: each branch returns one
    atomically-stamped version. *)

val newer : epoch:int -> ts:int -> than:t -> bool
val byte_size : key:string -> t -> int
(** Approximate memory footprint for accounting, including the
    prior-version slot while it is occupied. *)
