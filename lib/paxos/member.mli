(** Cluster membership views for joint-consensus reconfiguration
    (Raft §6 / the C_old,new discipline, applied to this codebase's
    Paxos streams).

    A membership change never jumps from [Stable C_old] to
    [Stable C_new] directly: the leader first replicates (and everyone
    adopts, at {e accept} time) the transitional [Joint (C_old, C_new)]
    view, under which every quorum — votes and accept-acks alike — must
    hold a majority of {e both} configurations. Only once the joint
    config entry is committed under that rule is [Stable C_new]
    replicated. Any two quorums taken anywhere along the transition
    therefore intersect, which is the whole safety argument: no two
    leaders, no two chosen values, whatever the timing of adoption. *)

type config = int list
(** Sorted, duplicate-free voter node ids. *)

type view =
  | Stable of config
  | Joint of config * config  (** [(C_old, C_new)] transitional view *)

val stable : int list -> view
(** Normalizes (sorts, dedups). @raise Invalid_argument when empty. *)

val joint : old_:int list -> new_:int list -> view
(** @raise Invalid_argument when either side is empty. *)

val voters : view -> config
(** All voting members — for [Joint], the union of both sides. *)

val mem : view -> int -> bool

val quorum : view -> int list -> bool
(** Do the (deduplicated) acknowledgers [acks] form a quorum under this
    view? [Stable c]: a majority of [c]. [Joint (o, n)]: a majority of
    [o] {e and} a majority of [n]. Non-voters in [acks] (learners) are
    ignored. *)

val equal : view -> view -> bool
val pp : Format.formatter -> view -> unit
