(** A named table: an index of {!Record.t} plus byte accounting.

    Tables expose records, not values: the OCC engine and the replay path
    both work directly on the record's version and lock fields. Scans skip
    tombstoned records.

    Two index representations live behind this interface. The default is
    the ordered B+tree; point-lookup-only tables (YCSB's usertable,
    TPC-C's item) can instead be declared {!Hash} — O(1) probes, no
    ordering, and therefore no range operations: {!scan}, {!scan_all},
    {!min_live}, {!max_live} and {!tree} raise [Invalid_argument] on a
    hash table. {!iter} visits keys in ascending order for {e both}
    representations (the hash arm sorts), so checkpointing and
    consistency sweeps are representation-independent and deterministic
    across compiler releases. *)

type t

type repr = Btree | Hash  (** index representation, fixed at creation *)

val create : ?repr:repr -> id:int -> name:string -> unit -> t
(** [repr] defaults to [Btree], the behavior-compatible representation. *)

val copy : t -> t
(** A table with the same id, name, representation, bytes and records,
    independent of the argument: each record is {!Record.copy}'d, while
    the key and value strings are shared. A B-tree keeps its shape
    ({!Btree.copy}), a hash index its bucket layout. *)

val id : t -> int
val name : t -> string

val repr : t -> repr

val get : t -> string -> Record.t option
(** The record for [key], including tombstones ({!Record.is_deleted}). *)

val get_many : t -> string array -> Record.t option array -> unit
(** [get_many t keys out] stores [get t keys.(i)] at [out.(i)] for every
    index of [keys] ({!Btree.find_many} on a B-tree, one probe per key on
    a hash index); later slots of [out] are untouched.
    @raise Invalid_argument if [out] is shorter than [keys]. *)

val get_live : t -> string -> Record.t option
(** Like {!get} but [None] for tombstones. *)

val insert : t -> string -> Record.t -> unit
(** Bind [key] to a fresh record. @raise Invalid_argument if present
    (including as a tombstone); callers decide how to revive tombstones. *)

val remove_phys : t -> string -> unit
(** Physically drop the key (leader-side delete). No-op if absent. *)

val removals : t -> int
(** How many records {!remove_phys} and {!compact} have dropped so far.
    A key's record is only ever replaced by removing it first, so a record
    found before a yield is still bound to its key when this count has
    not moved. (Removals through {!tree} are not counted.) *)

val scan : t -> lo:string -> hi:string -> ?limit:int -> unit -> (string * Record.t) list
(** Live records with [lo <= key < hi], ascending, at most [limit]. *)

val scan_all : t -> lo:string -> hi:string -> (string * Record.t) list
(** Like {!scan} but including tombstones — used by replay-consistency
    checks and bootstrap. *)

val min_live : t -> lo:string -> hi:string -> (string * Record.t) option
(** First live record in the range (TPC-C delivery's oldest-order probe). *)

val max_live : t -> lo:string -> hi:string -> (string * Record.t) option
(** Last live record in [[lo, hi)] (TPC-C's latest-order probe). *)

val count : t -> int
(** Number of physical records, tombstones included. O(1). *)

val bytes : t -> int
(** Approximate resident bytes, maintained incrementally. *)

val account_growth : t -> int -> unit
(** Adjust the byte estimate (called when a record's value is replaced by
    one of a different size). *)

val compact : t -> int
(** Physically drop all tombstones; returns how many were dropped. Used
    when a follower is promoted to leader. *)

val iter : t -> (string -> Record.t -> unit) -> unit
(** Visit every record (tombstones included) in ascending key order,
    whatever the representation. *)

val tree : t -> Record.t Btree.t
(** Escape hatch for tests and bootstrap. @raise Invalid_argument on a
    hash-indexed table — dispatch through {!apply_sorted_run} instead. *)

val count_sorted_run :
  ?found:Record.t array -> t -> key:(int -> string) -> lo:int -> hi:int -> Btree.bulk_counts
(** Predict the index work of {!apply_sorted_run} over a strictly
    ascending run without mutating: {!Btree.count_sorted} for trees, one
    descent (and no steps) per key for hash tables. With [found], the
    record of each present key [i] is stored at [found.(i)], as
    {!Btree.count_sorted} does. *)

val apply_sorted_run :
  t ->
  key:(int -> string) ->
  lo:int ->
  hi:int ->
  f:(int -> Record.t option -> Record.t option) ->
  Btree.bulk_counts
(** Representation-dispatched {!Btree.apply_sorted}: a single cursor
    sweep over a B-tree, independent point probes over a hash index.
    The run and [f]'s contract are exactly {!Btree.apply_sorted}'s.
    @raise Invalid_argument if keys are not strictly ascending. *)
