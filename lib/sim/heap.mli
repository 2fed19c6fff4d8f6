(** Array-backed binary min-heap.

    Used as the simulator's event queue, so it is specialised for speed:
    mutable, non-thread-safe, with an explicit comparison supplied at
    creation. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (minimum first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val min_exn : 'a t -> 'a
(** [min_exn h] is the minimum element, without removing it.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the minimum element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val filter : 'a t -> ('a -> bool) -> unit
(** [filter h keep] drops every element [keep] rejects, in O(length).
    Afterwards [h] pops the kept elements in [cmp] order; among equal
    elements the order may differ from before, so [cmp] should be a total
    order when pop order matters. *)
