(** Replay-only throughput (paper §6.6, Fig. 15).

    Pre-generates transaction logs from an independent Silo run, loads
    them into per-thread memory, then measures how fast [threads] replay
    workers can apply them with the watermark and Paxos disabled. The
    paper uses this to show replay (write-set only, compare-and-swap per
    key) is ~1.5x faster than Silo's execute path and therefore never the
    bottleneck. *)

type result = {
  replay_tps : float;
  silo_tps : float;  (** execute-path throughput of the generating run *)
  replayed : int;
}

val run :
  ?seed:int64 ->
  ?cores:int ->
  ?costs:Silo.Costs.t ->
  ?bulk:bool ->
  ?batch_size:int ->
  ?replay_parallel:int ->
  ?hash_tables:string list ->
  threads:int ->
  generate_duration:int ->
  app:Rolis.App.t ->
  unit ->
  result
(** Phase 1: run [threads] Silo workers for [generate_duration], capturing
    every committed write-set per worker. Phase 2: fresh database, same
    initial load; [threads] replay workers apply their own worker's log
    sequentially — per transaction (default: the paper's loop, one
    {!Silo.Db.apply_replay} per logged transaction) or, with [bulk],
    chunked into entries of [batch_size] transactions (default 1000)
    and applied through {!Silo.Db.apply_replay_entry}, the follower's
    replay path. [replay_parallel]
    (default 1) is passed to the bulk path as its intra-entry fan-out;
    [hash_tables] selects hash-indexed tables in both phases.
    [replay_tps] is transactions replayed per second. *)
