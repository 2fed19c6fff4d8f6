(** Application (workload) interface to a Rolis cluster.

    An app states each transaction once, as an op that interprets a
    payload (an app-defined string) into a transaction body. Two sources
    feed that op: networked client sessions, whose requests carry the
    payload, and the embedded per-worker generator (the paper's
    closed-loop Silo workers), which draws payloads from a per-worker RNG.

    Replicas begin in sync, as in the paper's setup: before the
    simulation starts, replica 0 of each group runs [setup] on its fresh
    database, and the group's other replicas start from a copy of the
    tables it loaded ({!Silo.Db.copy_tables}). A replica rebuilt later
    by {!Cluster.restart_replica} runs [setup] again before
    {!Replica.rebuild} brings it up to date. So [setup] must load the
    same tables every time it runs, and therefore it must:
    - only create tables and insert records into them;
    - make no commits ({!Silo.Db.run}) and no attachments
      ({!Silo.Db.attach}) — {!Cluster.create} refuses either;
    - draw nothing from the engine RNG (a load needing randomness uses
      its own fixed-seed {!Sim.Rng.t}, as TPC-C's does).

    Bodies run under {!Silo.Db.run} on the leader. *)

type t = {
  name : string;
  setup : Silo.Db.t -> unit;
  make_worker : Silo.Db.t -> rng:Sim.Rng.t -> worker:int -> Silo.Txn.t -> unit;
      (** the embedded generator of one worker on one replica: a body that
          draws a fresh payload from [rng] on every attempt (an OCC retry
          re-draws, as the closed-loop generators always have) and runs it
          through the app's op. Used when the cluster serves no client
          sessions. *)
  client_op : (Silo.Db.t -> payload:string -> Silo.Txn.t -> unit) option;
      (** interpret a networked client request: parse [payload] into a
          transaction body. Required when the cluster runs with
          [Config.clients > 0] — workers then serve queued client requests
          instead of running [make_worker]'s body. [None] keeps the
          embedded generator even then, for deployments whose client slots
          carry only read-only sessions. *)
  read_op : (Silo.Db.t -> payload:string -> Silo.Db.snap -> string) option;
      (** interpret a read-only client request against a watermark-pinned
          snapshot ({!Silo.Db.read_at}): parse [payload] and return the
          reply value carried back in [Ok_read]. The body must be pure
          reads through {!Silo.Db.snap_get} — there is no transaction, no
          locks and no validation. Required when the cluster runs with
          [Config.follower_reads] and read-only client sessions. *)
}

val make :
  name:string ->
  setup:(Silo.Db.t -> unit) ->
  payloads:(rng:Sim.Rng.t -> worker:int -> unit -> string) ->
  op:(Silo.Db.t -> payload:string -> Silo.Txn.t -> unit) ->
  ?read_op:(Silo.Db.t -> payload:string -> Silo.Db.snap -> string) ->
  unit ->
  t
(** The one app constructor. [payloads ~rng ~worker] is worker [worker]'s
    payload generator; [make_worker] runs its payloads through [op], and
    [client_op] is [Some op]. *)
