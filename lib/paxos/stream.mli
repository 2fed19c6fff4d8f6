(** One MultiPaxos stream (paper §3.3).

    Rolis runs one stream per database worker thread. A stream is a
    replicated log of {!Store.Wire.entry} values: the leader proposes at
    successive indices (phase 2 only, under the election module's epoch);
    a new leader first runs a Prepare phase over the uncommitted tail and
    re-proposes what it learns (phase 1, leader completeness), filling
    gaps with no-ops.

    Commit is {e sequential}: index [i] only commits once [i-1] has — the
    paper's no-holes optimization (§4) — so [on_commit] fires in strict
    index order. Followers learn commit positions from piggybacked commit
    indices and fetch missing entries (catch-up) from whoever advertised
    them.

    Handlers never block; drive them from a per-replica dispatcher
    process. *)

type t

type stats = {
  proposals : int;
  commits : int;
  nacks : int;
  fetches : int;
  truncated : int;  (** slots reclaimed by log compaction *)
  retransmits : int;  (** leader re-sends of Prepare/Accept on heartbeat *)
  coalesced : int;
      (** proposals merged away into an earlier entry's quorum round:
          [k] buffered proposals going out as one merged entry count
          [k - 1] here *)
}

val create :
  Msg.t Sim.Net.t ->
  ?peers:int ->
  ?view:Member.view ->
  ?fetch_timeout:int ->
  ?coalesce_max_bytes:int ->
  id:int ->
  me:int ->
  on_commit:(idx:int -> Store.Wire.entry -> unit) ->
  on_higher_epoch:(int -> unit) ->
  ?on_config:(Store.Wire.member_change -> unit) ->
  ?on_caught_up:(unit -> unit) ->
  unit ->
  t
(** [peers] is the replica-slot count — nodes [0 .. peers-1] of the net;
    defaults to every node. Pass it when the net also carries non-replica
    nodes (client sessions). [view] is the initial voting membership
    (defaults to all [peers] slots); Accepts and Commits still reach every
    slot so non-voting learners replicate the log. [on_commit] fires
    exactly once per index, in order, on every replica that learns the
    commit. [on_higher_epoch] wires stream-level Nacks back into the
    election module. [on_config] fires whenever a membership-change entry
    is stored or learned (accept-time adoption — the replica routes it to
    every stream and the election); it may fire repeatedly for the same
    change, so receivers must adopt monotonically by generation.
    [on_caught_up] fires once per leadership, at the moment {!is_caught_up}
    turns true (Prepare finished and every adopted slot committed), so a
    promotion can wait on the event instead of polling.
    [fetch_timeout] bounds how long a follower waits for a [Fetch_rep]
    before re-issuing the fetch (lost fetches would otherwise wedge
    catch-up forever).

    Proposal coalescing: while a quorum round is in flight, further
    proposals are buffered and go out as {e one} merged same-epoch entry
    when the pipeline drains — bursts of small batches then pay the fixed
    per-entry consensus cost once. Proposal order, per-stream timestamp monotonicity, and commit
    order are unchanged; an epoch change or the [coalesce_max_bytes] cap
    (default 1 MiB) forces the buffer out immediately. *)

val set_view : t -> Member.view -> gen:int -> unit
(** Adopt a membership view at generation [gen]; ignored unless [gen]
    exceeds the current generation. Changes which acks count toward
    quorums (commits, Prepare completion) from the next check onward. *)

val set_learners : t -> int list -> unit
(** Register the non-voting slots currently catching up: they gate the
    leader's safe truncation bound (their catch-up source must survive)
    without ever counting in quorums. Replaces the previous list. *)

val become_leader : t -> epoch:int -> unit
(** Start the Prepare phase for [epoch]. Proposals made before the phase
    completes are buffered and flushed in order afterwards. *)

val step_down : t -> unit
(** Stop leading; buffered (unreplicated) proposals are dropped — they
    were speculative and their results were never released (§3.2). *)

val propose : t -> Store.Wire.entry -> unit
(** Leader-side append. Silently dropped when not leading (the caller's
    leadership may lapse concurrently; dropped proposals are exactly the
    speculative transactions failover discards). *)

val handle : t -> Msg.stream_msg -> from:int -> unit

val retransmit : t -> unit
(** Leader-side loss recovery, called on every heartbeat tick: re-send the
    in-flight Prepare (when preparing) or every uncommitted Accept still
    short of a majority (when active), plus the current commit position.
    All re-sends are idempotent — receivers dedup by sender. No-op on a
    follower. *)

val inject_committed_at : t -> idx:int -> Store.Wire.entry -> unit
(** Restart bootstrap: install an already-durable entry at index [idx] as
    if it had been learned through the protocol ([on_commit] fires). Feed
    a donor replica's journal in ascending index order. When the donor's
    journal starts above zero (checkpoint + journal-tail bootstrap), a gap
    below [idx] is recorded as this replica's compaction floor (the
    checkpoint image stands in for the missing slots).
    @raise Invalid_argument if leading or if [idx] is already
    committed. *)

val set_bootstrap_floor : t -> idx:int -> unit
(** Checkpoint bootstrap: mark every slot below [idx] as committed
    elsewhere and covered by the checkpoint image installed alongside —
    the commit index jumps to [idx - 1] and the slots are recorded as
    truncated, so tail injection and ordinary catch-up start at [idx].
    No-op when the stream is already at or past [idx].
    @raise Invalid_argument if the stream is leading. *)

type tail
(** Opaque acceptor salvage state: the promised epoch plus every
    accepted-but-uncommitted slot above the commit index. *)

val export_tail : t -> tail

val import_tail : t -> tail -> unit
(** Graft a salvaged tail onto a freshly bootstrapped stream (after
    {!inject_committed_at} replayed the journal). Used when an {e alive}
    replica is voluntarily rebuilt — e.g. a tainted ex-leader: its
    database is suspect but its Paxos acceptor state is sound, and an
    accepted-but-uncommitted slot here may be the last surviving copy of
    an entry committed at a since-dead leader. Slots at or below the new
    commit index are skipped; higher-epoch slots win. Raises
    [Invalid_argument] if the stream is leading. *)

val is_caught_up : t -> bool
(** Leader only: the Prepare phase finished and every slot it adopted has
    committed — the stream is ready for the epoch-sealing no-op. *)

val commit_index : t -> int
(** Highest committed index on this replica (-1 when empty). *)

val next_index : t -> int

val retained_slots : t -> int
(** Live slots currently held. Log compaction drops a slot as soon as the
    truncation bound passes it: the leader truncates below the minimum
    commit index it has heard from every voter and registered learner
    (or a quorum-stable checkpoint's cover floor), and piggybacks that
    bound to followers on every commit — so any future leader's Prepare,
    which starts at its own commit index, never needs a discarded slot.
    A stream therefore retains only slots that, when the leader's commit
    index last advanced, some voter had not yet reported committed
    (voters report on their next Accepted); a voter that stops
    reporting, e.g. one that crashed, pins the bound at its last commit
    index. A replica that falls behind the bound forever
    rejoins through {e bootstrap}, exactly as in the paper's §4.3. *)

val truncated_below : t -> int

val set_trunc_floor : t -> int -> unit
(** Raise the checkpoint-cover floor (monotone): a quorum-stable
    checkpoint covers every slot below it, so {e leader-side} compaction
    may advance to the floor even while a peer's commit index lags — that
    peer is expected to rebuild from the checkpoint (the
    InstallSnapshot discipline), and a candidate behind the floor
    abdicates instead of completing Prepare. Followers learn the bound
    through the piggybacked [trunc_upto]. *)

val trunc_floor : t -> int

val set_no_truncate : t -> bool -> unit
(** Ablation: disable slot compaction entirely (the [--no-truncate]
    mode); [trunc_upto] advertisements are ignored and the local log
    retains every slot. *)

val trunc_stalled : t -> bool
(** Log catch-up is wedged behind a peer's compaction floor: the slots
    this replica needs next were truncated cluster-wide, so only a
    checkpoint rebuild can make progress. Cleared by any commit
    progress. *)

val coalesce_factor : t -> float
(** EWMA (alpha 1/8) of proposals carried per proposed quorum round,
    >= 1.0. The batcher's closed loop folds it into the amortisation of
    [entry_overhead_ns]; stays 1.0 while no round carries more than one
    proposal. *)

val stats : t -> stats
