(** The multi-core in-memory database (Silo's role in the paper).

    One [Db.t] lives on each simulated machine. Worker processes call
    {!run} with a transaction body; the engine executes it with optimistic
    concurrency control:

    + the body runs against buffered writes, recording read/scan versions;
    + the accumulated execution + commit cost is charged to the machine's
      CPU (the process yields here — this is the window in which
      conflicting transactions interleave);
    + an atomic validate-and-install step checks every read and re-runs
      every scan; on success the transaction receives a fresh [(epoch,
      ts)] TID and its write-set is installed, otherwise it retries.

    Timestamps come from {!next_ts}: the virtual clock made strictly
    monotone per machine — the simulator's stand-in for [rdtscp]
    (paper §3.2). Because install happens atomically at commit, the
    TID order {e is} the serialization order, which is exactly the
    property Rolis's replay depends on. *)

type t

type stats = {
  commits : int;
  user_aborts : int;
  conflict_aborts : int;
  retries : int;
}

type 'a result = {
  value : 'a option;  (** [None] iff the body raised {!Txn.Abort} *)
  tid : Tid.t option;  (** [None] iff user-aborted *)
  log : Store.Wire.write list;  (** committed write-set, install order *)
  retries : int;
  reads : int;
      (** point reads of the final attempt, counting each scan once
          (the paper's Fig. 9 convention) *)
  writes : int;
}

val create :
  Sim.Engine.t ->
  Sim.Cpu.t ->
  ?costs:Costs.t ->
  ?physical_deletes:bool ->
  ?hash_tables:string list ->
  unit ->
  t
(** [physical_deletes] (default true) removes deleted keys from the index
    at commit — leader behaviour. Followers keep tombstones so that
    replay's compare-and-swap has a stamp to compare against.
    [hash_tables] (default []) names tables that {!create_table} will back
    with the point-lookup hash representation instead of the B-tree; every
    replica of a database must use the same list, or replay and checkpoint
    exchange runs against mismatched index semantics. *)

type attachment = ..
(** State a workload keeps per database: each workload extends this
    variant with its own constructor. *)

val attachments : t -> attachment list
val attach : t -> attachment -> unit
(** [attach t a] adds [a] to {!attachments}; it lives exactly as long as
    the database. *)

val engine : t -> Sim.Engine.t
val cpu : t -> Sim.Cpu.t
val costs : t -> Costs.t

val create_table : t -> string -> Store.Table.t
(** @raise Invalid_argument if the name is taken. *)

val copy_tables : src:t -> t -> unit
(** [copy_tables ~src t] gives the fresh database [t] a {!Store.Table.copy}
    of every table of [src], in id order, so that table ids mean the same
    in both. The copies share [src]'s key and value strings but no
    record. This is how a replica starts from another's loaded tables
    instead of loading its own; [src] must hold nothing but the load.
    @raise Invalid_argument if [t] already has tables, if [src] has
    attachments or has issued a timestamp ({!last_ts} [<> 0]), or if
    the two databases' [hash_tables] disagree on a table. *)

val table : t -> string -> Store.Table.t
(** @raise Not_found for unknown names. *)

val table_by_id : t -> int -> Store.Table.t
val tables : t -> Store.Table.t list

val epoch : t -> int

val set_epoch : t -> int -> unit
(** @raise Invalid_argument if the epoch would decrease. *)

val set_physical_deletes : t -> bool -> unit
(** Flip delete behaviour — used when a follower is promoted to leader. *)

val next_ts : t -> int
(** Strictly monotone timestamp (the [rdtscp] stand-in). *)

val last_ts : t -> int

val run : t -> worker:int -> (Txn.t -> 'a) -> 'a result
(** Execute a transaction body to (execution-)commit, retrying on
    conflicts. Must be called from inside a simulation process. *)

val run_once : t -> worker:int -> (Txn.t -> 'a) -> 'a result option
(** Single attempt; [None] on a conflict abort (no retry). For baselines
    that handle retry themselves. *)

val take_decision : t -> worker:int -> Store.Wire.decision option
(** Cross-shard 2PC mark the last committed transaction on [worker]
    stamped via {!Txn.set_decision}, cleared by the take. Carried
    out-of-band rather than on {!type-result} so ordinary transactions —
    the overwhelming majority — pay nothing for the field: the common
    path is a lookup in an empty table. [None] if the last commit on
    [worker] stamped no decision (or the body aborted — an aborted body
    decided nothing durable). *)

val apply_replay :
  t -> Store.Wire.txn_log -> epoch:int -> writes:int -> applied:int ref -> unit
(** Follower-side replay of one transaction's write-set: per-key
    compare-and-swap on [(epoch, ts)] (paper §3.4, §5), charging
    {!Costs.replay_cost}. [writes] is the precomputed
    [List.length txn.writes] — callers already hold the count for their
    own accounting, so the hot path never recomputes it. Missing keys are
    created; deletes tombstone. Increments [applied] per key that
    actually won its CAS. Idempotent. *)

type replay_entry_result = {
  re_txns : int;  (** transactions with [ts <= upto] *)
  re_writes : int;  (** their total logged writes *)
  re_installed : int;  (** distinct keys at least one of whose versions won its CAS *)
  re_seeks : int;  (** fresh cursor descents charged *)
  re_steps : int;  (** in-leaf continuations charged *)
}

val apply_replay_entry :
  t -> Store.Wire.entry -> ?ways:int -> upto:int -> unit -> replay_entry_result
(** Follower replay of one durable entry: the write-sets of every
    transaction with [ts <= upto] are sorted by (table, key), and each
    table's distinct keys are swept through
    {!Store.Table.apply_sorted_run}, CAS-installing every version of a
    key in timestamp order — so a snapshot reader pinned between two
    writes to one key in the entry finds the older one in the
    prior-version slot. One {!Costs.replay_bulk_cost} CPU charge for
    the whole entry, counting index work once per distinct key,
    consumed before any index is touched. Observably equivalent to
    calling {!apply_replay} on each truncated transaction in order;
    idempotent for the same reason.

    [ways] (default 1) parallelizes the sweep: the sorted distinct keys
    are cut into [ways] contiguous — hence key-disjoint, hence
    commuting — slices, each charged and applied by its own spawned
    process registered on the machine's CPU. [ways = 1] is exactly the
    sequential path. Final state and reported counts are
    [ways]-independent; only the virtual-time shape changes.
    @raise Invalid_argument if [ways < 1]. *)

val replay_order : Store.Wire.entry -> upto:int -> (Store.Wire.write * int) array
(** The writes {!apply_replay_entry} installs for [entry], each with its
    transaction's timestamp, in the order it installs them: the writes of
    every transaction with [ts <= upto], flattened in log order, then
    stably ordered by (table, key) — a merge of the runs the flattened
    list is already sorted in, since each write-set is logged sorted. *)

val set_read_floor : t -> (unit -> int) option -> unit
(** Wire the snapshot read-pin floor. [Some f] turns on prior-version
    retention at every install site: before a record is overwritten by a
    write stamped [ts], the outgoing version is kept in its bounded slot
    iff [f () < ts] (some live or future read pinned at or above the
    floor may still need it), otherwise the slot is reclaimed. [f] must
    be monotone (a watermark); [None] (the default) keeps every install
    path byte-identical to the pre-snapshot behaviour. *)

exception Snapshot_miss
(** A pinned read needed a version already reclaimed past its pin (the
    key was overwritten twice above the pin). Retry at a fresher pin. *)

type snap
(** A watermark-pinned read-only transaction context. *)

val snap_get : snap -> Store.Table.t -> string -> string option
(** Point read at the snapshot's pin: no lock, no read-set, no
    validation. [None] = key absent (or deleted) at the pin.
    @raise Snapshot_miss if the pinned version was reclaimed. *)

val snap_get_many : snap -> Store.Table.t -> string array -> string option array
(** [snap_get_many s table keys] is [Array.map (snap_get s table) keys]:
    the same values, read count and audit observations, in the same
    order; on a reclaimed version the reads up to and including that key
    are counted and {!Snapshot_miss} is raised. The index lookups run
    batched ({!Store.Table.get_many}) before the reads.
    @raise Snapshot_miss as {!snap_get} does. *)

val read_at :
  t ->
  ?audit:bool ->
  pin:int ->
  (snap -> 'a) ->
  'a * (int * string * int) list
(** Run a read-only body against the snapshot at watermark [pin],
    charging [txn_begin_ns + reads * snapshot_read_ns] to the CPU. The
    body must not yield. With [audit] (default false) the second
    component lists every read as [(table_id, key, observed_ts)]
    ([observed_ts = -1] for keys absent at the pin) for the
    {e snapshot_reads} oracle. Must be called from inside a simulation
    process.
    @raise Snapshot_miss (after charging the partial cost) on a
    reclaimed version; the caller retries at a fresher pin. *)

val snapshot_reads : t -> int
(** Completed snapshot-read transactions. *)

val snapshot_misses : t -> int
(** Snapshot reads that raised {!Snapshot_miss}. *)

val stats : t -> stats
val reset_stats : t -> unit
val total_bytes : t -> int
(** Approximate resident bytes across all tables. *)
