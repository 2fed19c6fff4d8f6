(** Wire messages for the replication layer.

    One cluster-wide message type covers the election module (replica
    level, one instance per machine) and every Paxos stream (one instance
    per database worker thread). Stream messages are tagged with their
    stream id so a single network inbox per replica can dispatch them. *)

type accepted_slot = {
  a_idx : int;
  a_epoch : int;  (** epoch under which the value was accepted *)
  a_entry : Store.Wire.entry;
}

type elect =
  | Request_vote of { epoch : int; candidate : int }
  | Vote of { epoch : int; granted : bool }
  | Heartbeat of { epoch : int; leader : int }
  | Timeout_now of { epoch : int }
      (** planned leader handoff: the draining leader (at [epoch]) grants
          the target immediate candidacy, so it starts an election at
          [epoch + 1] without waiting out its election timer *)

type stream_msg =
  | Prepare of { epoch : int; from_idx : int }
      (** phase 1: new leader asks for accepted values at [idx >= from_idx] *)
  | Promise of {
      epoch : int;
      commit_idx : int;
      truncated_below : int;
          (** the promiser's compaction floor: a candidate whose own
              commit index sits below it can never learn the missing
              (checkpoint-covered) slots from the log and must rebuild
              from a checkpoint instead of completing Prepare *)
      accepted : accepted_slot list;
    }
  | Accept of { epoch : int; idx : int; commit_idx : int; entry : Store.Wire.entry }
      (** phase 2; piggybacks the leader's commit index *)
  | Accepted of { epoch : int; idx : int; commit_idx : int }
      (** piggybacks the acceptor's own commit index, which feeds the
          leader's safe log-truncation bound *)
  | Commit of { epoch : int; commit_idx : int; trunc_upto : int }
      (** [trunc_upto]: every replica has committed below this index, so
          followers may discard those slots (log compaction) *)
  | Fetch of { from_idx : int }
      (** catch-up: ask for committed entries starting at [from_idx] *)
  | Fetch_rep of { commit_idx : int; truncated_below : int; entries : accepted_slot list }
      (** [truncated_below]: the donor's compaction floor — a fetcher
          whose gap starts beneath it is behind the checkpoint cover and
          stalls ({!Stream.trunc_stalled}) until rebuilt *)
  | Nack of { epoch : int }  (** receiver has promised a higher epoch *)

type reply =
  | Ok_released
      (** the transaction committed, fell under the watermark, and its
          result was released — the exactly-once ack *)
  | Ok_read of { value : string }
      (** a snapshot read served at the replica's pinned watermark;
          [value] is the app-encoded result *)
  | Aborted  (** user-level abort: the transaction had no effect anywhere *)
  | Not_leader of { hint : int option }
      (** receiver is not serving; [hint] is its current guess at the
          leader, for client redirect *)
  | Busy  (** admission control shed the request; client should back off *)

type body =
  | Elect of elect
  | Stream of { stream : int; msg : stream_msg }
  | Client_req of { cid : int; seq : int; payload : string }
      (** client session [cid] submits its [seq]-th request; [payload] is
          an app-defined operation encoding *)
  | Client_rep of { cid : int; seq : int; reply : reply }
  | Read_req of { cid : int; seq : int; payload : string }
      (** read-only session request: served from a watermark-pinned
          snapshot by any lease-holding replica, never proposed to Paxos *)
  | Read_lease of { epoch : int; until : int }
      (** leader grant riding the heartbeat tick: the receiver may serve
          snapshot reads until virtual time [until], provided its own
          election epoch still equals [epoch] *)

type t = { from : int; body : body }

val size : t -> int
(** Approximate wire size in bytes, for network accounting. *)
