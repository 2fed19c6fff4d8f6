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

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Elements in unspecified order; for inspection and tests. *)
