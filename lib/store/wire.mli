(** Wire format for replicated log entries (paper Fig. 6).

    A log entry batches many transactions. Each transaction carries a
    header — timestamp, epoch (shared by the entry), number of key-value
    pairs, byte count — followed by its write-set; read-sets are never
    shipped. The entry's representative timestamp is the timestamp of the
    {e last} transaction in the batch, which is what the watermark
    compares against.

    [byte_size] computes the encoded size without materialising the bytes;
    the simulator charges serialization cost from sizes and only performs
    physical encode/decode when configured to (and always in tests). *)

type write = {
  table : int;
  key : string;
  value : string option;  (** [None] encodes a delete *)
}

(** Cross-shard 2PC lifecycle of one distributed transaction, as seen from
    one shard's log. [Prepared] marks a participant's vote-yes (its intent
    row is in the same transaction's write-set); [Committed] / [Aborted]
    mark the coordinator shard's replicated decision; [Applied] marks a
    participant installing a committed transaction's effects; [Canceled]
    marks a participant discarding a prepared intent after an abort. *)
type phase2 = Prepared | Committed | Aborted | Applied | Canceled

type decision = {
  d_xid : int;  (** globally unique cross-shard transaction id *)
  d_phase : phase2;
  d_parts : int list;
      (** participant shard ids; populated on coordinator decisions so
          recovery (and the atomicity oracle) knows the full cohort *)
}

type txn_log = {
  ts : int;
  req : (int * int) option;
      (** originating client request [(client_id, seq)], if the
          transaction was submitted by a networked client session; threads
          exactly-once identity through replication and replay *)
  decision : decision option;
      (** cross-shard 2PC mark: this transaction recorded a prepare vote,
          a coordinator decision, or a participant apply/cancel. Encoded as
          an optional trailer behind a tag bit, so transactions without one
          — every single-shard transaction — keep the historical wire bytes
          exactly *)
  writes : write list;
}

type member_change = {
  m_gen : int;  (** monotone membership generation; adoption is gated on it *)
  m_old : int list;
      (** previous voter set during a joint [C_old,new] transition; [[]]
          marks the final switch to a stable [m_new] configuration *)
  m_new : int list;  (** target voter set *)
}

type entry = {
  epoch : int;
  last_ts : int;  (** timestamp of the last transaction in the batch *)
  txns : txn_log list;
  config : member_change option;
      (** membership change replicated through the log (joint consensus);
          [None] for ordinary batches, and encoded as a trailing section so
          the common-case wire bytes are unchanged *)
}

val make_entry : epoch:int -> txn_log list -> entry
(** Computes [last_ts] from the batch. @raise Invalid_argument on an empty
    batch (heartbeats use {!noop} instead). *)

val noop : epoch:int -> ts:int -> entry
(** An empty entry whose only purpose is to advance the watermark
    (heartbeat / epoch-sealing no-op). *)

val config_entry : epoch:int -> ts:int -> member_change -> entry
(** A membership-change entry: txn-free like {!noop} (so the watermark
    machinery treats it uniformly) but carrying a [config] payload. *)

val is_noop : entry -> bool

val txn_byte_size : txn_log -> int
val byte_size : entry -> int
val txn_count : entry -> int

(** Reusable encode arena. The hot path encodes thousands of entries per
    virtual second; threading one scratch per worker (or per replica)
    replaces per-entry [Buffer] churn with a single amortized allocation —
    after warm-up the only garbage per encode is the result string. *)
module Scratch : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Fresh arena; [capacity] defaults to 64 KiB and grows geometrically
      on demand. *)

  val capacity : t -> int
end

val encode_into : Scratch.t -> entry -> string
(** The entry's bytes, staged through the caller's arena. *)

val decode : string -> entry
(** @raise Invalid_argument on malformed input. *)
