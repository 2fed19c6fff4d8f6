(** Zipfian key chooser (YCSB's algorithm, Gray et al.'s rejection-free
    formula).

    The paper's headline experiments pick keys {e uniformly} (§6.1); this
    generator backs the extra skew ablations and is exposed because any
    YCSB-family harness is expected to have one. *)

type t

val create : n:int -> theta:float -> t
(** [create ~n ~theta] draws from [\[0, n)] with skew [theta] (0 = uniform
    limit; YCSB default 0.99). @raise Invalid_argument unless
    [0 <= theta < 1] and [n > 0]. *)

val next : t -> Sim.Rng.t -> int
