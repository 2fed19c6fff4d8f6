(** Deterministic, splittable pseudo-random number generator.

    The simulator must be fully deterministic for a given seed: every run of
    an experiment with the same configuration produces the same virtual-time
    trace. We therefore avoid [Stdlib.Random] (whose global state would be
    shared across unrelated components) and use an explicit xoshiro256**
    state that can be split per component. *)

type t

val create : int64 -> t
(** [create seed] seeds a generator; any seed (including 0) is valid. *)

val split : t -> t
(** [split t] derives an independent generator; both streams remain
    deterministic. Used to give each simulated component its own stream so
    that adding draws in one component does not perturb another. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in the inclusive range [\[lo, hi\]]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean; used for network jitter. *)

val pick : t -> 'a array -> 'a
(** Uniformly chosen element. @raise Invalid_argument on an empty array. *)
