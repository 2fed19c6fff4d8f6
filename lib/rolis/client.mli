(** Simulated client sessions: the end-to-end side of the paper's
    release-visibility guarantee (§3.3).

    A client is one closed-loop session process on the cluster's network
    (node [Config.pool cfg + cid], above the replica pool). It issues requests tagged with its session id
    and a per-session sequence number, and drives each one to a terminal
    reply:

    - {b timeout} → retry against the next replica, with exponential
      backoff and seeded jitter;
    - [Not_leader {hint}] → redirect to the hinted (or next) replica;
    - [Busy] (admission control) → back off and retry;
    - after [Config.client_retry_limit] attempts → {e park}: sleep
      200 ms (jittered), then re-drive the same request, so an
      unreachable cluster degrades gracefully (a read-only session
      instead abandons the request after the park — reads are idempotent
      and must not head-of-line block the session on a permanently
      unservable key);
    - a {e leader announcement} ([Elect (Heartbeat {epoch; leader})],
      sent by a newly promoted leader to every session in its replicated
      session table) ends a write session's backoff, park or
      [Not_leader] pause early and becomes its leader hint, newest epoch
      first; a write session waiting on a reply from another replica —
      possibly the dead leader — resends to the announced one at once.
      Any other message arriving during such a nap is kept for the reply
      loop, so a late [Ok_released] still acks the request. Read-only
      sessions ignore announcements;
    - [Ok_released] → the result was released below the watermark: the
      exactly-once ack. [Aborted] → user abort, no effect anywhere.

    Retries are deduplicated server-side by the replicated session table
    ({!Replica}), so a request that was committed by a since-crashed
    leader is acked from cache by its successor instead of re-executed —
    the oracle {!Check.exactly_once} verifies this end to end. *)

type t

val spawn :
  Paxos.Msg.t Sim.Net.t ->
  cfg:Config.t ->
  cid:int ->
  ?stopped:bool ref ->
  ?stats:Stats.t ->
  ?ro:bool ->
  ?prefer:int array ->
  gen:(unit -> string) ->
  unit ->
  t
(** Spawn the session process. [gen] produces one request payload per
    issued request (interpreted by the app's [client_op]). When [!stopped]
    becomes true the client stops issuing but keeps draining its inbox, so
    a late ack of the in-flight request still counts. The net must carry
    [Config.pool cfg + cfg.clients] nodes (clients sit above the replica
    pool, spares included). [stats] — typically
    {!Cluster.client_stats} — receives each resolved request's total
    parked time ({!Stats.note_parked} plus the [Client_park] stage
    histogram) and redirect count (the [Client_redirect] stage), the
    availability axes the reconfiguration bench reports.

    [ro] makes this a {e read-only} session: it issues [Read_req] instead
    of [Client_req] (interpreted by the app's [read_op] against a
    watermark-pinned snapshot, see {!Replica}), counts [Ok_read] as its
    terminal ack, and rotates within [prefer] — the replica ids to try in
    order (nearest first under a WAN profile, or the serving subset a
    bench arm reads from; defaults to the base replica set). A [Busy]
    shed rotates a read session to the next preferred replica, since the
    shedding follower may stay lease-parked for a while; a [Not_leader]
    redirect also rotates within [prefer] rather than adopting the hint,
    so read traffic never funnels to the leader. Requires
    [Config.follower_reads]; read-only acks must {e not} feed
    {!Check.exactly_once} (reads execute no transaction — filter with
    {!is_ro}).
    @raise Invalid_argument on an empty or out-of-pool [prefer], or if
    [ro] is set without [Config.follower_reads]. *)

val create :
  Paxos.Msg.t Sim.Net.t ->
  cfg:Config.t ->
  cid:int ->
  ?stopped:bool ref ->
  ?stats:Stats.t ->
  ?ro:bool ->
  ?prefer:int array ->
  ?gen:(unit -> string) ->
  unit ->
  t
(** Build a session {e without} spawning its closed-loop process, for
    driver-managed use via {!request} (the cross-shard 2PC driver in
    {!Shard} owns one such session per participant shard). [gen] is
    unused on this path and defaults to a raising stub. Same validation
    as {!spawn}. *)

val request : t -> string -> [ `Ok | `Aborted | `Stopped ]
(** [request t payload] issues one request on a {!create}d session and
    drives it to a terminal disposition, blocking the calling process
    (must run inside a simulator process on the session's engine).
    [`Stopped] only if the session's [stopped] flag fired mid-request —
    drivers that must finish a multi-step protocol pass a never-true
    flag and check their own stop signal between protocol rounds. *)

val cid : t -> int
val node : t -> int

val is_ro : t -> bool
(** True for read-only sessions (spawned with [~ro:true]). *)

val issued : t -> int
(** Highest sequence number issued so far. *)

val acked_count : t -> int
val acked_seqs : t -> (int * int) list
(** [(cid, seq)] of every [Ok_released] ack, in issue order — the input to
    {!Check.exactly_once}. *)

val aborted : t -> int
val retries : t -> int
val redirects : t -> int
val busy_replies : t -> int
val timeouts : t -> int

val parked : t -> int
(** Times a request exhausted its retry budget and was parked. *)

val latency : t -> Sim.Metrics.Hist.t
(** Client-observed latency: first send to terminal reply. *)
