(** Simulated message-passing network.

    Nodes are integers [0 .. nodes-1]; each has an unbounded inbox.
    Delivery takes a sampled latency. Crash-stop failures, symmetric and
    one-way link partitions, and a network-wide fault model (loss, duplication,
    reorder jitter) drop, repeat, or delay messages — which matches the
    asynchronous-network assumption in the paper: messages can be lost,
    duplicated, or arbitrarily delayed, and consensus — not the network —
    provides reliability.

    Each node carries an {e incarnation number}, bumped on {!crash}: a
    message in flight across a crash can never be delivered into a later
    incarnation, even if the node recovers before the delivery event. *)

type latency_model =
  | Fixed of int  (** constant one-way delay, ns *)
  | Uniform of int * int  (** uniform in [lo, hi] ns *)
  | Exp_jitter of { base : int; jitter_mean : int }
      (** [base] plus exponentially distributed jitter; heavy-ish tail,
          good default for a datacenter network *)

type faults = {
  drop : float;  (** probability in [0,1) of losing a message at send *)
  dup : float;  (** probability in [0,1) of delivering a second copy *)
  reorder : int;
      (** extra uniform delay in [0, reorder] ns added per message;
          enough jitter reorders deliveries *)
}

type 'm t

val create : Engine.t -> nodes:int -> latency:latency_model -> 'm t

val nodes : 'm t -> int
val engine : 'm t -> Engine.t

val send : 'm t -> ?size:int -> src:int -> dst:int -> 'm -> unit
(** Queue [m] for delivery to [dst]. Dropped silently if either end is
    crashed or the [src -> dst] direction is cut (checked both at send and
    at delivery time), or by the link's fault model. [size] feeds byte
    accounting only. *)

val recv : 'm t -> int -> 'm
(** Blocking receive on a node's inbox. *)

val recv_timeout : 'm t -> int -> int -> 'm option
(** [recv_timeout t node d]: wait at most [d] ns. *)

val inbox_length : 'm t -> int -> int

val crash : 'm t -> int -> unit
(** Crash-stop: inbox is discarded, the incarnation number advances (so
    in-flight messages die with the old incarnation); all traffic to/from
    drops. The caller is responsible for killing the node's processes. *)

val recover : 'm t -> int -> unit
(** The node rejoins with an empty inbox, in its current incarnation. *)

val is_up : 'm t -> int -> bool

val incarnation : 'm t -> int -> int
(** Number of crashes this node has suffered. *)

val partition : 'm t -> int -> int -> unit
(** Cut the (bidirectional) link between two nodes. *)

val partition_oneway : 'm t -> src:int -> dst:int -> unit
(** Cut only the [src -> dst] direction (asymmetric partition). *)

val heal : 'm t -> int -> int -> unit
(** Restore both directions between two nodes. *)

val heal_all : 'm t -> unit

val is_connected : 'm t -> int -> int -> bool
(** Both directions intact. *)

val can_send : 'm t -> src:int -> dst:int -> bool
(** The [src -> dst] direction is intact. *)

val set_default_faults : 'm t -> faults -> unit
(** Fault model applied to every link. *)

val clear_faults : 'm t -> unit
(** Reset the fault model to no faults. *)

val messages_sent : 'm t -> int
(** Messages actually put on the wire (duplicates included). Sends that
    hit a dead endpoint, a cut link, or the loss model are not counted
    here — see {!messages_dropped}. *)

val bytes_sent : 'm t -> int

val messages_dropped : 'm t -> int
(** Messages lost for any reason: dead endpoint or cut link at send time,
    random loss, or crash/cut/restart while in flight. *)

val messages_duplicated : 'm t -> int

(** {2 Geo topologies}

    Every link defaults to the global [latency] model; directed per-link
    overrides express region matrices (intra-DC vs cross-region
    distributions) for leader-placement and follower-read experiments.
    With no overrides installed, sampling draws exactly the same RNG
    sequence as the historical single-model network. *)

val apply_regions :
  'm t -> regions:int array -> intra:latency_model -> inter:latency_model -> unit
(** Install a region matrix: [regions.(i)] is node [i]'s region; every
    ordered pair of covered nodes gets [intra] when co-located and
    [inter] across regions. Nodes beyond the array keep the global
    model. *)

type wan_profile = {
  wp_regions : int;  (** region count nodes are assigned to round-robin *)
  wp_intra : latency_model;
  wp_inter : latency_model;
}

val wan_profile : string -> wan_profile option
(** Named profiles: ["wan3"] (3 regions, ~25 us intra-DC vs ~30 ms
    cross-region one-way) and ["metro3"] (3 availability zones, ~1 ms
    between zones). [None] for unknown names. *)

val wan_profile_names : string list

val sample_latency : 'm t -> src:int -> dst:int -> int
(** Draw one latency sample from the link's model (for
    tests/calibration). Consumes the network's latency RNG stream. *)
