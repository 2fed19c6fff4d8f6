(** Fuzzy checkpoints: periodic durable images of below-watermark state.

    Two roles. First, the traditional single-machine recovery story Rolis
    is measured against (paper §7): single-machine databases (e.g. SiloR)
    recover by reloading a disk checkpoint and replaying a tail log,
    which takes {e minutes} for a sizeable store versus Rolis's 1.5–2 s
    replicated failover — the `recovery` benchmark makes that comparison
    concrete. Second, the live cluster's own checkpoint duty: each
    follower periodically images its released (below-watermark) state so
    the Paxos streams can truncate their journals and a rejoining node
    can bootstrap from checkpoint + journal tail in time bounded by the
    checkpoint interval, not by history length.

    Checkpoints record each record's value and [(epoch, ts)] stamp, so
    recovery composes with idempotent log replay ({!Replica.rebuild}):
    install the image, then re-apply the tail through the per-key
    strictly-newer CAS (ARIES-style install-then-replay). The image is {e fuzzy} — rows
    are scanned while replay continues above the watermark — which is
    safe precisely because installs go through the same CAS. *)

type image
(** A durable checkpoint (contents + metadata). *)

type replica_image = {
  ri_image : image;
  ri_cover : int array;
      (** per-stream journal index up to which the image's tables are
          complete: every commit at [idx <= ri_cover.(s)] is reflected
          (applied before the scan was stamped), so the journal below the
          cover is redundant with the image *)
  ri_frontier : int array;  (** per-stream applied timestamp at the stamp *)
  ri_wm : Watermark.snapshot;
      (** sealed-epoch history, so an importing replica resolves
          cross-epoch straddlers exactly as the original did *)
  ri_sessions : (int * int * int * int * int) list;
      (** client dedup table [(cid, claimed, applied, released, aborted)]:
          without it, a client retry of a transaction whose journal entry
          was truncated would re-execute *)
  ri_taken_at : int;  (** virtual time when the scan was stamped *)
}
(** A live replica's checkpoint: the database image plus everything a
    rebuilt replica cannot rederive from the journal tail. *)

val size_bytes : image -> int
val row_count : image -> int

val write :
  Silo.Db.t ->
  ?threads:int ->
  ?disk_mb_per_s:int ->
  ?rows_per_yield:int ->
  ?live_only:bool ->
  unit ->
  image
(** Scan every table with [threads] checkpointer processes (tables are
    striped across them), charging scan CPU and sharing [disk_mb_per_s]
    of write bandwidth. Must run inside a simulation process; virtual
    time advances by the checkpoint duration.

    [live_only] (default true) skips tombstones, matching what a
    single-machine restart needs. Replica checkpoints pass [false]: a
    below-watermark delete must travel with the image, else a rebuilt
    node would resurrect the row from an app-setup-seeded table. *)

val install : into:Silo.Db.t -> image -> int
(** Synchronously graft the image onto [into] (tables created on
    demand), with {e no} modeled cost — callers account the load time
    separately via {!load_cost}. Each row goes through the strictly-newer
    [(epoch, ts)] CAS, so installing over a database that already has
    newer state (or concurrently with tail replay) never regresses a
    write. Returns how many rows actually installed. *)

val load_cost :
  costs:Silo.Costs.t -> ?threads:int -> ?disk_mb_per_s:int -> image -> int
(** Virtual-time cost (ns) a {!recover} of this image would take: disk
    transfer (serialized, bandwidth-limited) plus per-row index-rebuild
    CPU divided across [threads]. {!Replica} installs instantly via
    {!install} and stays election-ineligible for this long instead. *)

val recover :
  into:Silo.Db.t ->
  ?threads:int ->
  ?disk_mb_per_s:int ->
  image ->
  unit
(** Read the checkpoint back (disk bandwidth) and rebuild the database
    (bulk sorted apply per burst) with [threads] loader processes.
    [into] must be a fresh database with no application tables; they are
    created on demand. Must run inside a simulation process. *)
