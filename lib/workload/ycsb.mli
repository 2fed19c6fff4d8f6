(** YCSB-family transactional workloads.

    - {b YCSB++} (paper §6.1): derived from YCSB workload F — 50%%
      read-only transactions of 4 point reads, 50%% read-modify-write
      transactions of 4 RMWs; keys chosen uniformly over the keyspace.
    - {b YCSB-T}: the small-transaction variant used by the Meerkat
      comparison (Fig. 13) — one op per transaction, 50/50 read / RMW.

    The same generators back the Rolis cluster (as a {!Rolis.App.t}), the
    Silo-only baseline, and the 2PL / Calvin / Meerkat baselines. *)

type params = {
  keys : int;  (** records in the table (paper: 1 million) *)
  value_size : int;  (** bytes per value *)
  ops_per_txn : int;  (** reads or RMWs per transaction (paper: 4) *)
  read_ratio : float;  (** fraction of read-only transactions (0.5) *)
  theta : float option;  (** Zipf skew; [None] = uniform (the paper) *)
}

val default : params
(** 1M keys, small (24-byte) values, 4 ops, 50/50, uniform — YCSB++'s
    write-sets are much smaller than TPC-C's (§6.2). *)

val ycsb_t : params
(** Meerkat's YCSB-T shape: 1 op per transaction. *)

val workload_b : params
(** Classic YCSB-B: 95/5 read/update, Zipfian skew. *)

val workload_c : params
(** Classic YCSB-C: read-only, uniform. *)

val table_name : string
val setup : params -> Silo.Db.t -> unit

val client_app : params -> Rolis.App.t
(** The cluster app. Its op states the YCSB transaction once:
    ["t <ro> <k1,k2,...>"] runs a transaction over the listed keys (reads
    when [ro=1], RMWs otherwise); ["m <k>"] is a single-key RMW — the
    cross-range 2PC sub-transaction. Keys travel in the payload, so
    retries replay identically. Its embedded generator flips read-only
    vs RMW and draws [ops_per_txn] keys (uniform or Zipfian) into a
    ["t"] payload; [client_op] is the op. Its [read_op] interprets a
    read-session payload of space-separated key indices as point reads
    against a pinned snapshot (for follower reads). *)

val app : params -> Rolis.App.t
(** {!client_app} without [client_op]: writes come from the embedded
    generator even when client slots exist, so a deployment whose
    sessions are all read-only keeps the write path of [clients = 0]. *)

val read_payload_gen : params -> Sim.Rng.t -> unit -> string
(** Per-session generator of read payloads: [ops_per_txn] key indices
    drawn with the workload's skew, space-separated. *)

(** {2 Sharded deployments} *)

val shard_gen :
  params ->
  Rolis.Router.t ->
  cross_pct:float ->
  rng:Sim.Rng.t ->
  unit ->
  Rolis.Shard.op
(** Partition-aware generator: single-shard transactions draw all keys
    inside one shard's range (uniform within the shard); with
    probability [cross_pct] the transaction becomes a two-shard RMW
    pair committed through 2PC. *)
