(** Versioned record — the unit of concurrency control and replay.

    Each key in a table maps to one [Record.t] of three fields (four heap
    words with the header):

    - [value], the current value, or the private tombstone string after a
      deletion ({!is_deleted});
    - [stamp], the [(epoch, ts)] of its last writer packed into one int
      ({!pack}), used by follower replay's compare-and-swap (paper §3.4):
      an apply only wins if its [(epoch, ts)] is strictly newer;
    - [prior], a bounded prior-version slot holding the newest overwritten
      version still above the snapshot read-pin floor, so read-only
      transactions pinned at a watermark can read below concurrent replay
      installs. An empty slot is one shared sentinel; an occupied one is an
      immutable block, so {!copy} shares it.

    The stamp is also the OCC version that leader read-set validation
    compares (as Silo's TID word is). It changes exactly when the record
    does: a leader install stamps the committing transaction's
    [(epoch, ts)], strictly newer than any stamp the record can carry
    (timestamps are unique per database and grow within an epoch, and a
    new leader runs in a higher epoch), and a replay CAS installs only a
    strictly newer stamp. No path ever moves a stamp backwards — a
    tainted replica is rebuilt, never rolled back in place — so a record
    whose stamp equals the one a transaction read is the version it read.

    There is no lock word: commit validates and installs its write-set
    with no yield in between and charges [Silo.Costs.lock_ns] per write, so no
    record is ever seen locked. *)

type prior = private { p_value : string; p_ts : int }
(** A retained prior version: its value (the tombstone string when it was
    a deletion) and its stamp; [p_ts = -1] is the empty slot. *)

type t = {
  mutable value : string;
  mutable stamp : int;  (** packed [(epoch, ts)]; see {!pack} *)
  mutable prior : prior;  (** prior version retained for snapshot reads *)
}

val max_epoch : int
(** [2^18 - 1]: the largest epoch {!pack} accepts. *)

val max_ts : int
(** [2^44 - 2]: the largest timestamp {!pack} accepts — in nanoseconds of
    virtual time, about 4.9 hours. *)

val pack : epoch:int -> ts:int -> int
(** [epoch lsl 44 lor (ts + 1)]: a non-negative int whose order is the
    lexicographic order of [(epoch, ts)], for [0 <= epoch <= max_epoch]
    and [-1 <= ts <= max_ts] ([ts = -1] is the stamp of a record not yet
    written). @raise Invalid_argument outside that range. *)

val epoch : t -> int
(** The epoch half of the stamp. *)

val ts : t -> int
(** The timestamp half of the stamp. *)

val version : t -> int
(** The OCC version: the stamp itself. *)

val make : ?epoch:int -> ?ts:int -> string -> t
(** A live record stamped [(epoch, ts)] (default [(0, 0)]) with an empty
    prior-version slot. @raise Invalid_argument as {!pack}. *)

val tombstone : ?epoch:int -> ?ts:int -> unit -> t
(** A deleted record: [make] with the tombstone as its value. *)

val is_deleted : t -> bool
(** Whether the current version is a tombstone. The tombstone's [value]
    reads as [""]; only this test tells it from a live empty value. *)

val copy : t -> t
(** A fresh record with every field of the argument; the value strings
    and the prior-version block are shared (they are immutable, so only
    the record is copied). *)

val install : t -> epoch:int -> ts:int -> value:string option -> unit
(** Leader-side install at commit: set value ([None] = tombstone) and
    stamp [(epoch, ts)], which the caller guarantees is newer than the
    record's (see the stamp-as-version argument above). *)

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

val has_prior : t -> bool
(** Whether the prior-version slot is occupied. *)

val slot_bytes : t -> int
(** The prior-version slot's share of {!byte_size}: 32 bytes plus the
    retained value while occupied, else 0. *)

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
(** Whether [(epoch, ts)] is strictly newer than the record's stamp: one
    int compare of the packed stamps. *)

val byte_size : key:string -> t -> int
(** Approximate memory footprint for accounting: a fixed 64 bytes for the
    record (a model constant, not its heap words, so table and checkpoint
    accounting do not move with the layout), the key and value bytes,
    and the prior-version slot while it is occupied. *)
