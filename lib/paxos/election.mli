(** Leader election module — one instance per replica (paper §4).

    Replicas exchange heartbeats; a follower that misses them for an
    election timeout becomes a candidate, increments the epoch, and asks
    for votes. A majority of votes makes it leader. There is {e no} log
    up-to-dateness restriction on voting (this is Paxos, not Raft): leader
    completeness is provided by each stream's Prepare phase, which reads
    the accepted tail from a majority.

    All Paxos streams on a replica follow this single election: one epoch
    number orders all leaders, and [<epoch, timestamp>] pairs serialize
    transactions across failovers (§3.3). *)

type t

val create :
  Msg.t Sim.Net.t ->
  me:int ->
  ?peers:int ->
  ?view:Member.view ->
  ?heartbeat_interval:int ->
  ?election_timeout:int ->
  ?initial_leader:int ->
  on_leader_elected:(epoch:int -> unit) ->
  on_new_epoch:(epoch:int -> leader:int option -> unit) ->
  ?on_heartbeat_tick:(unit -> unit) ->
  unit ->
  t
(** [peers] is the replica-slot count — nodes [0 .. peers-1] of the net;
    defaults to every node. Pass it when the net also carries non-replica
    nodes (client sessions). [view] is the initial voting membership
    (defaults to all [peers] slots); heartbeats and vote requests still
    reach every slot so learners can follow. [on_leader_elected] fires on
    the replica that wins an election, before it starts heartbeating.
    [on_new_epoch] fires on every replica whenever it observes a new epoch
    (leader may be unknown yet). [on_heartbeat_tick] fires on the leader
    at every heartbeat — Rolis hooks the per-stream empty transactions
    here (§5). [initial_leader] seeds epoch 1 with a known leader so
    experiments skip the cold-start election; omit it to start from
    scratch. *)

val set_view : t -> Member.view -> gen:int -> unit
(** Adopt membership [view] at generation [gen] (ignored unless [gen]
    exceeds the current generation — config entries can be replayed out
    of order during catch-up). Resets candidacy backoff, but {e never}
    clears [voted_for]: a removed-then-readded replica must not vote
    twice in one ballot. *)

val failed_candidacies : t -> int
(** Consecutive candidacies since this replica last heard a live leader.
    Election timeouts back off exponentially (capped) in this counter, so
    repeated split votes under a lossy network converge; hearing a
    heartbeat or winning resets it. *)

val start : t -> Sim.Engine.proc
(** Spawn the ticker process. A leader heartbeats every
    [heartbeat_interval]. A follower that may stand (eligible and a
    voter) sleeps [min heartbeat_interval (last_heartbeat + timeout + 1 -
    now)], so its candidacy starts at its own randomized timer's
    deadline — the first instant of more than [timeout] silence — rather
    than on the next heartbeat tick, which every replica shares and
    which made survivors with nearby timeouts stand together and split
    the vote. A replica that may not stand (ineligible, or a non-voting
    learner) keeps the plain tick however long it has been silent.
    Returns the process so a crash can kill it. *)

val handle : t -> Msg.elect -> from:int -> unit
(** Feed an election message from the dispatcher. *)

val observe_epoch : t -> int -> unit
(** A stream saw a higher epoch (e.g. in a Nack): step down / catch up. *)

type vote
(** Opaque vote-salvage state: current epoch plus the (epoch, candidate)
    of the last vote granted. *)

val export_vote : t -> vote

val import_vote : t -> vote -> unit
(** Carry the vote across a {e voluntary} rebuild of an alive replica so
    it cannot grant a second vote in an epoch it already voted in (the
    in-memory analogue of persisting [votedFor]). Call on a freshly
    created election, before the engine runs its ticker. *)

val set_eligible : t -> bool -> unit
(** An ineligible replica never stands for election (it still votes and
    follows). Used for {e tainted} ex-leaders whose local database holds
    speculative writes that were never released: they must not lead again
    until rebuilt, or they would serve diverged state. A current leader
    made ineligible resigns at once (stops heartbeating, fires
    [on_new_epoch] with no leader), so the followers time out and elect
    a successor. *)

val is_leader : t -> bool
val epoch : t -> int
val leader_id : t -> int option
