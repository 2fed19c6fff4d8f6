(** Transaction execution context (read-set, write-set, scan-set).

    A transaction body runs instantaneously in virtual time; its
    accumulated cost is charged by {!Db.run} just before the atomic
    validate-and-install step. Reads record the version of every record
    they observe; scans record the exact [(key, version)] sequence they
    produced and are re-executed at validation (full phantom protection —
    the moral equivalent of Masstree's node-version validation in Silo).

    Writes are buffered: reads observe the transaction's own writes, and
    nothing touches the shared store until commit. One known, documented
    divergence from a real engine: {e scans} do not merge the
    transaction's own uncommitted writes into their results; no workload
    in this repository scans a range it has written in the same
    transaction.

    The record fields are exposed for the engine ({!Db}); treat this
    module's type as engine-internal. *)

exception Abort
(** Raised by a transaction body to request a user abort (e.g. the 1%% of
    TPC-C NewOrder transactions that roll back). *)

module Key_tbl : Hashtbl.S with type key = int * string
(** Tables keyed by (table id, key), hashed and compared monomorphically. *)

type write_entry = {
  w_table : Store.Table.t;
  w_key : string;
  mutable w_value : string option;  (** [None] = delete *)
  w_read : Store.Record.t option;
      (** what this transaction's first read of the key found, if it read
          the key before writing it *)
}

type scan_entry = {
  s_table : Store.Table.t;
  s_lo : string;
  s_hi : string;
  s_limit : int;
  s_seen : (string * int) list;  (** (key, record version) observed *)
}

type probe_entry = {
  p_table : Store.Table.t;
  p_lo : string;
  p_hi : string;
  p_seen : (string * int) option;
}

type t = {
  worker : int;
  costs : Costs.t;
  mutable reads : (Store.Record.t * int) list;  (** record, version seen *)
  read_keys : Store.Record.t option Key_tbl.t;
      (** every key read, with the record the read found *)
  mutable absents : (Store.Table.t * string) list;
  mutable scans : scan_entry list;
  mutable probes : probe_entry list;
  writes : write_entry Key_tbl.t;
  mutable write_order : write_entry list;  (** reverse execution order *)
  mutable nreads : int;
  mutable nhash_reads : int;
      (** subset of [nreads] that hit hash-indexed tables (charged at
          [Costs.hash_read_ns]) *)
  mutable nwrites : int;
  mutable nscans : int;
  mutable nscan_rows : int;
  mutable nvalue_bytes : int;
  mutable decision : Store.Wire.decision option;
      (** cross-shard 2PC mark to stamp on this transaction's replicated
          log record; cleared by {!reset} like the rest of the context *)
}

val create : worker:int -> costs:Costs.t -> t

val reset : t -> unit
(** Restore the just-created state while keeping the (grown) hash-table
    buckets, so pooled contexts run allocation-light. Only {!Db} calls
    this — a context must never be reset while an attempt still reads
    it. *)

val get : t -> Store.Table.t -> string -> string option
(** Point read; observes the transaction's own writes first. *)

val put : t -> Store.Table.t -> string -> string -> unit
val delete : t -> Store.Table.t -> string -> unit

val scan : t -> Store.Table.t -> lo:string -> hi:string -> ?limit:int -> unit -> (string * string) list
(** Live records in [[lo, hi)], ascending, at most [limit]. *)

val first_live : t -> Store.Table.t -> lo:string -> hi:string -> (string * string) option
(** Smallest live record in range ([scan ~limit:1]). *)

val last_live : t -> Store.Table.t -> lo:string -> hi:string -> (string * string) option
(** Largest live record in [[lo, hi)] — validated by re-probe at commit,
    like a scan. *)

val abort : unit -> 'a
(** [abort ()] raises {!Abort}. *)

val set_decision : t -> Store.Wire.decision -> unit
(** Stamp a cross-shard 2PC mark on the transaction. If it commits, the
    mark rides its {!Store.Wire.txn_log} into the replicated log — making
    the prepare vote / decision durable exactly when its row effects
    are. *)

val exec_cost_ns : t -> int
(** Accumulated execution cost of the body so far. *)

val commit_cost_ns : t -> int
val write_count : t -> int
