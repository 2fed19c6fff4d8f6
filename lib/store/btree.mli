(** In-memory B+tree from string keys to values.

    This is the ordered index underneath every table — the role Masstree
    plays in Silo. All values live in leaves; internal nodes hold copied
    separator keys. Leaves are singly linked for fast range scans.
    Deletion does full rebalancing (borrow from a sibling, else merge), so
    the tree never degrades under the TPC-C new-order/delivery churn.

    Not thread-safe: in the simulator, data-structure operations execute
    atomically between process yield points, so the concurrency-control
    story lives above this layer (in the OCC engine), exactly as conflicts
    are resolved above the index in Silo. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
(** Number of live keys. O(1). *)

val find : 'a t -> string -> 'a option

val find_many : 'a t -> string array -> 'a option array -> unit
(** [find_many t keys out] stores [find t keys.(i)] at [out.(i)] for
    every index of [keys]: the first [Array.length keys] slots of [out]
    become [Array.map (find t) keys]; later slots are untouched. Keys may
    repeat and need no order. The descents run in lockstep, one level per
    round for all keys, so the cache misses of different keys overlap;
    for a batch of cold probes this is faster than [find] key by key.
    @raise Invalid_argument if [out] is shorter than [keys]. *)

val insert : 'a t -> string -> 'a -> 'a option
(** [insert t k v] sets [k -> v] and returns the previous binding. *)

val insert_if_absent : 'a t -> string -> 'a -> bool
(** [insert_if_absent t k v] binds [k -> v] only if [k] is absent;
    returns whether it inserted. A refused insert performs no mutation at
    all — the guarded form exists so callers never have to "undo" a
    clobbered binding on the failure path. *)

val remove : 'a t -> string -> 'a option
(** [remove t k] deletes [k] and returns the removed binding. *)

val find_last_lt : 'a t -> string -> (string * 'a) option
(** Largest binding with key [< k] — the descending-probe primitive behind
    "latest order" lookups. *)

val iter_from : 'a t -> string -> (string -> 'a -> bool) -> unit
(** [iter_from t k f] visits bindings with key [>= k] in ascending order
    while [f] returns [true]. *)

val iter : 'a t -> (string -> 'a -> unit) -> unit

val to_list : 'a t -> (string * 'a) list
(** Ascending. *)

val copy : ('a -> 'b) -> 'a t -> 'b t
(** [copy f t] is a tree of the same shape as [t] — the same leaves
    holding the same keys, the same separators — with every value mapped
    through [f] (called once per binding, in ascending key order). The
    key and separator strings are shared with [t]; each leaf gets
    exact-size arrays of its live entries, and the leaf chain is rebuilt.
    The copy is independent of [t]: later inserts and removes on either
    leave the other untouched. *)

(** {2 Sorted bulk application}

    The follower-replay fast path: a watermark-released log entry is a
    pre-serialized, conflict-free batch, so its write-set can be applied
    as one sorted sweep instead of per-key point operations. With TPC-C's
    warehouse-clustered keys most consecutive writes land in the same
    leaf, amortizing the descent. *)

type bulk_counts = { descents : int; steps : int }
(** Index work performed by {!apply_sorted}: [descents] root-to-leaf
    walks (fresh positioning, including splits) and [steps] in-leaf
    continuations — the two terms cost models charge separately. *)

val apply_sorted :
  'a t ->
  key:(int -> string) ->
  lo:int ->
  hi:int ->
  f:(int -> 'a option -> 'a option) ->
  bulk_counts
(** [apply_sorted t ~key ~lo ~hi ~f] walks the tree once over the
    strictly ascending run [key lo, ..., key (hi - 1)], calling
    [f i existing] at each index with the current binding of [key i]
    ([None] if absent). The run is addressed by index so the caller's
    arrays need no copying into (key, payload) pairs, and the sweep
    allocates nothing per key beyond what [f] does. [f] returns [Some v]
    to bind [key i -> v] (insert, or replace the stored value) and
    [None] to leave the tree's structure untouched — mutating an
    existing binding in place and declining the insert are both
    expressed this way. Leaf splits (and cascading parent splits) are
    handled; the sweep is observably equivalent to a sequential
    [find]/[insert] loop over the same run.
    @raise Invalid_argument if the keys are not strictly ascending. *)

val count_sorted :
  ?found:'a array -> 'a t -> key:(int -> string) -> lo:int -> hi:int -> bulk_counts
(** [count_sorted ?found t ~key ~lo ~hi] is a read-only prediction of the
    charges an {!apply_sorted} sweep over the same run will incur, for
    the replay decision pattern (present keys mutated in place, absent
    keys installed). The tree is not modified, so a cost model can
    consume the predicted work {e before} the mutating sweep makes its
    writes visible. Counts match the live sweep exactly except around
    leaf splits, where the prediction can drift by at most one
    descent/step per split. With [found], the pass also stores the value
    bound to each present key [i] at [found.(i)] (absent keys leave their
    slot untouched), so a caller can update present values without a
    second descent.
    @raise Invalid_argument if the keys are not strictly ascending. *)

val check_invariants : 'a t -> unit
(** Validate structural invariants (ordering, fill factors, separator
    consistency, leaf chain); raises [Failure] with a description
    otherwise. For tests. *)
