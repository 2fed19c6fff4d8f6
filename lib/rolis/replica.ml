let src = Logs.Src.create "rolis.replica" ~doc:"Replica lifecycle events"

module Log = (val Logs.src_log src : Logs.LOG)

(* Admission control bounds beside [Config.admission_max_pending]: the
   per-worker release queue and the replay backlog. *)
let admission_max_release = 8192
let admission_max_backlog = 100_000

(* Snapshot-read worker processes per serving replica, and how many
   times a read retries at a fresher pin after a reclaimed-version miss
   before answering [Busy]. *)
let read_workers = 2
let read_retry_limit = 8

(* ns a planned leader handoff waits for in-flight proposals to drain
   before granting the target immediate candidacy. *)
let handoff_drain_timeout = 500 * Sim.Engine.ms

type meta = {
  m_ts : int;
  m_start : int;
  m_bytes : int;
  m_client : (int * int) option; (* (cid, seq) to ack at release *)
  m_tok : Trace.token option; (* stage-span handle of a sampled txn *)
}

(* Client session bookkeeping (exactly-once dedup). Sequence numbers start
   at 1; 0 means "none". Invariant: released <= applied <= claimed on a
   replica that only learns sessions through its own execution; replay can
   move all three at once. *)
type session = {
  mutable s_claimed : int; (* highest seq handed to a worker *)
  mutable s_applied : int; (* highest seq whose txn committed (speculative) *)
  mutable s_released : int; (* highest seq acked to the client *)
  mutable s_aborted : int; (* seq that ended in a user abort, if = claimed *)
}

type t = {
  cfg : Config.t;
  rid : int;
  eng : Sim.Engine.t;
  net : Paxos.Msg.t Sim.Net.t;
  cpu : Sim.Cpu.t;
  db : Silo.Db.t;
  stats : Stats.t;
  trace : Trace.t;
  (* The next four fields are assigned once during construction; they are
     mutable only because the record must exist before the components that
     close over it can be built. *)
  mutable election : Paxos.Election.t option;
  mutable streams : Paxos.Stream.t array;
  mutable batchers : Batcher.t array;
  mutable bodies : (Silo.Txn.t -> unit) array;
  wm : Watermark.t;
  (* (journal idx, entry) pairs: replay needs the index to stamp the
     checkpoint-safe frontier once an apply completes. *)
  replay_queues : (int * Store.Wire.entry) Queue.t array;
  (* Entries across all replay queues, maintained incrementally on every
     enqueue/dequeue: admission control reads it per client request, so
     the O(streams) fold was on the hot path. *)
  mutable backlog : int;
  (* Event-driven replay: per-stream wakeup generation + mailbox, same
     shape as the batcher's generation-guarded deadline. A
     signal bumps the generation and posts at most one poke; the replay
     loop re-drains while the generation moves and only then parks. *)
  r_gen : int array;
  r_wake : unit Sim.Sync.Mailbox.t array;
  (* Event-driven promotion: poked when a stream finishes recovery, when
     the replay epoch advances and on every step-down, so a promotion
     waits on the event that ends each of its stages. *)
  p_wake : unit Sim.Sync.Mailbox.t;
  (* Follower-lag telemetry: per-stream replayed frontier (last consumed
     entry timestamp) and the cluster-wide durable frontier, both on the
     transaction-timestamp axis. Lag = durable - min(frontier). *)
  applied_ts : int array;
  mutable durable_max : int;
  (* Checkpoint-safe frontier: per-stream highest txn timestamp / journal
     index whose apply has *completed*. Distinct from [applied_ts], which
     advances before the (yielding) apply runs and so may claim entries
     whose writes are still in flight — a fuzzy checkpoint stamping its
     cover from [applied_ts] could advertise coverage it does not have.
     These move only after [apply_entry] returns. *)
  safe_ts : int array;
  safe_idx : int array;
  (* Event-driven release: last watermark a release pass ran for, so a
     durability notification that does not advance the cluster minimum
     skips the pass. Watermarks ride the global timestamp counter, hence
     monotone across epochs — never reset. *)
  mutable last_rel_wm : int;
  release_queues : meta Queue.t array; (* one per worker, ts-ordered *)
  mutable procs : Sim.Engine.proc list;
  mutable serving : bool;
  mutable srv_epoch : int;
  mutable tainted : bool;
  (* Membership: the voting view this replica currently believes in,
     adopted from replicated config entries (accept-time, monotone by
     generation) and mirrored into the election and every stream. *)
  mutable view : Paxos.Member.view;
  mutable mgen : int;
  mutable learner : bool; (* non-voting: catching up toward promotion *)
  mutable ckpt_loading : bool; (* checkpoint-load ineligibility window *)
  (* Planned handoff: while draining, new client work is redirected at
     [handoff_target] and the handoff process waits for the release
     queues to empty before granting the target immediate candidacy. *)
  mutable draining : bool;
  mutable handoff_target : int option;
  mutable reconfig_inflight : bool; (* leader: one change at a time *)
  mutable repoch : int; (* epoch currently being replayed *)
  mutable rwm : int; (* live watermark for [repoch] *)
  mutable alive : bool;
  worker_active : bool array;
  (* (stream, idx, entry) triples in reverse durable order: the journal a
     restarted replica replays to rebuild a crashed peer (catch-up). The
     absolute stream index keys checkpoint truncation — timestamps cannot
     (leader-change no-op fill entries carry ts = 0). *)
  mutable journal : (int * int * Store.Wire.entry) list;
  mutable journal_bytes : int;
  mutable truncated_entries : int;
  (* Checkpoint duty (followers only; interval > 0): the controller tick
     arms [ckpt_wake] on cadence, the checkpointer process scans, and the
     finished image is published here for the cluster coordinator to
     persist. [ckpt_inprogress] keeps the controller from double-arming
     across a multi-tick scan. *)
  ckpt_wake : unit Sim.Sync.Mailbox.t;
  mutable last_ckpt : Checkpoint.replica_image option;
  mutable ckpt_count : int;
  mutable ckpt_inprogress : bool;
  mutable last_ckpt_at : int;
  last_heard : int array; (* per peer: last time a message arrived *)
  (* Client-session layer: per-session dedup state, rebuilt by replay so a
     freshly promoted leader answers retries of its predecessor's
     transactions from cache, and the queue of admitted-but-unclaimed
     requests the workers drain. *)
  sessions : (int, session) Hashtbl.t;
  client_q : (int * int * string) Sim.Sync.Mailbox.t;
  (* Follower-read engine (gated on [Config.follower_reads]; all dormant
     otherwise). The freshness lease is the leader's heartbeat-carried
     promise that no newer epoch has released writes: a follower serves
     snapshot reads only while [lease_epoch] is current and [lease_until]
     has not passed. Read requests queue in [read_q] for the read worker
     pool; a deterministic 1-in-N sample of served reads lands in
     the [read_audit] reservoir as [(pin, observations)] for
     {!Check.snapshot_reads}. *)
  mutable lease_epoch : int;
  mutable lease_until : int;
  read_q : (int * int * string) Sim.Sync.Mailbox.t;
  read_active : bool array;
  mutable read_seen : int;
  read_audit : (int * (int * string * int) list) array;
  mutable read_audit_n : int; (* filled reservoir slots *)
}

let id t = t.rid
let view t = t.view
let mgen t = t.mgen
let db t = t.db
let cpu t = t.cpu
let stats t = t.stats
let trace t = t.trace
let election t = Option.get t.election
let streams t = t.streams
let is_serving t = t.serving
let served_epoch t = t.srv_epoch
let is_tainted t = t.tainted
let replay_epoch t = t.repoch
let is_alive t = t.alive

let replay_backlog t = t.backlog

(* Reference implementation of the counter above — O(streams); tests
   assert the two agree at arbitrary points. *)
let replay_backlog_scan t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.replay_queues

let journal t = List.rev t.journal
let journal_length t = List.length t.journal
let journal_bytes t = t.journal_bytes
let truncated_entries t = t.truncated_entries
let last_checkpoint t = t.last_ckpt
let checkpoints_taken t = t.ckpt_count
let any_trunc_stalled t = Array.exists Paxos.Stream.trunc_stalled t.streams

let session t cid =
  match Hashtbl.find_opt t.sessions cid with
  | Some s -> s
  | None ->
      let s = { s_claimed = 0; s_applied = 0; s_released = 0; s_aborted = 0 } in
      Hashtbl.replace t.sessions cid s;
      s

let spawn t name f =
  let p = Sim.Engine.spawn t.eng ~name:(Printf.sprintf "%s-%d" name t.rid) f in
  t.procs <- p :: t.procs

(* ---- leader side ---- *)

let stream_of_worker t w =
  match t.cfg.Config.stream_mode with
  | Config.Per_worker -> w
  | Config.Single -> 0
  | Config.Sharded _ -> w mod Config.nstreams t.cfg

(* ---- client sessions (exactly-once RPC layer) ---- *)

let client_reply t ~cid ~seq reply =
  let m = { Paxos.Msg.from = t.rid; body = Paxos.Msg.Client_rep { cid; seq; reply } } in
  Sim.Net.send t.net ~size:(Paxos.Msg.size m) ~src:t.rid
    ~dst:(Config.pool t.cfg + cid)
    m

let leader_hint t =
  match Paxos.Election.leader_id (election t) with
  | Some l when l <> t.rid -> Some l
  | Some _ | None -> t.handoff_target

(* Admission control: shed load instead of queueing without bound (§5's
   speculative-memory concern, seen from the client side). *)
let overloaded t =
  Sim.Sync.Mailbox.length t.client_q >= t.cfg.Config.admission_max_pending
  || replay_backlog t >= admission_max_backlog
  || Array.exists (fun q -> Queue.length q >= admission_max_release) t.release_queues

(* Triage of a client request, shared by the dispatcher and the client
   worker. The session table is consulted *before* execution: a retry of
   a released seq is answered from cache; a retry of an in-flight seq is
   dropped (the release pass will ack it) unless it ended in a user abort;
   a draining leader sends new work to its designated successor; anything
   else is [`Fresh], for the caller to queue or execute. *)
let triage t ~cid ~seq =
  if not (t.serving && t.alive) then `Not_serving
  else begin
    let s = session t cid in
    if seq <= s.s_released then `Released
    else if seq <= s.s_claimed then `Claimed (seq = s.s_aborted)
    else if t.draining then `Draining
    else `Fresh s
  end

(* Answer a request triage settled without execution. *)
let settle t ~cid ~seq = function
  | `Not_serving | `Draining ->
      Trace.note_disposition t.trace ~count:Stats.Redirects Trace.Redirect;
      client_reply t ~cid ~seq (Paxos.Msg.Not_leader { hint = leader_hint t })
  | `Released ->
      Trace.note_disposition t.trace Trace.Cached;
      client_reply t ~cid ~seq Paxos.Msg.Ok_released
  | `Claimed aborted ->
      (* Executing or awaiting the watermark: release will ack. *)
      if aborted then client_reply t ~cid ~seq Paxos.Msg.Aborted

(* Dispatcher: only here does a fresh request meet admission control. *)
let handle_client_req t ~cid ~seq ~payload =
  match triage t ~cid ~seq with
  | `Fresh _ when overloaded t ->
      Trace.note_disposition t.trace ~count:Stats.Busy_replies Trace.Busy;
      client_reply t ~cid ~seq Paxos.Msg.Busy
  | `Fresh _ -> Sim.Sync.Mailbox.send t.client_q (cid, seq, payload)
  | (`Not_serving | `Released | `Claimed _ | `Draining) as d -> settle t ~cid ~seq d

let drop_speculative t =
  Array.iter
    (fun q ->
      Queue.iter (fun m -> Stats.note_dropped_speculative t.stats ~bytes:m.m_bytes) q;
      Queue.clear q)
    t.release_queues;
  Array.iter Batcher.clear t.batchers;
  (* Covers both release-queue and still-batched sampled transactions:
     their spans are flushed to the rings marked dropped, never leaked. *)
  Trace.drop_all t.trace

let stop_serving t =
  if t.serving then begin
    Log.debug (fun m -> m "replica %d stops serving (tainted)" t.rid);
    t.serving <- false;
    t.tainted <- true;
    (* The local database holds speculative writes that were never
       released; leading again would serve diverged state. A tainted
       replica still votes and follows, but must be rebuilt (restart)
       before it may stand for election. *)
    Paxos.Election.set_eligible (election t) false;
    drop_speculative t
  end

(* The execute-and-submit step both worker loops share: run [body] as one
   Silo transaction on worker [w]; if it commits while this replica still
   serves, append it to the worker's stream and release queue. [req] is
   the client request being answered ([None] for the embedded generator).
   A commit after leadership lapsed mid-transaction is speculative and
   dropped with this tainted replica. *)
let execute t w ~req body =
  let start = Sim.Engine.time () in
  if Option.is_some req || t.cfg.Config.networked_clients then
    Sim.Cpu.consume t.cpu t.cfg.Config.client_rpc_overhead;
  let r = Silo.Db.run t.db ~worker:w body in
  let dec = Silo.Db.take_decision t.db ~worker:w in
  match r.Silo.Db.tid with
  | Some tid when t.serving ->
      (match req with
      | Some (cid, seq) ->
          let sess = session t cid in
          if seq > sess.s_applied then sess.s_applied <- seq
      | None -> ());
      Stats.add t.stats Stats.Executed 1;
      let txn_log =
        { Store.Wire.ts = tid.Silo.Tid.ts; req; decision = dec; writes = r.Silo.Db.log }
      in
      let bytes = Store.Wire.txn_byte_size txn_log in
      let tok = Trace.sample t.trace ~worker:w ~ts:tid.Silo.Tid.ts ~exec_start:start in
      let s = stream_of_worker t w in
      (* Append + release record atomically (same event as the commit), so
         stream timestamps stay monotone. *)
      Batcher.submit t.batchers.(s) txn_log;
      Queue.add
        {
          m_ts = tid.Silo.Tid.ts;
          m_start = start;
          m_bytes = bytes;
          m_client = req;
          m_tok = tok;
        }
        t.release_queues.(w);
      Stats.note_submitted t.stats ~bytes;
      Batcher.charge_submit_cost t.batchers.(s) ~bytes;
      (match tok with Some tk -> Trace.note_serialized t.trace tk | None -> ());
      `Committed
  | Some _ -> `Lapsed
  | None ->
      Stats.add t.stats Stats.User_aborts 1;
      `Aborted

let worker_loop t w () =
  let body = t.bodies.(w) in
  (* Stagger worker start so per-stream batch boundaries de-phase, as
     thread drift would on real hardware; otherwise every stream flushes
     in lockstep and the watermark wait is unrealistically small. *)
  Sim.Engine.sleep (w * 1_700 * Sim.Engine.us);
  while true do
    if t.serving && t.alive && not t.draining then begin
      if not t.worker_active.(w) then begin
        Sim.Cpu.register t.cpu;
        t.worker_active.(w) <- true
      end;
      ignore (execute t w ~req:None body)
    end
    else begin
      if t.worker_active.(w) then begin
        Sim.Cpu.unregister t.cpu;
        t.worker_active.(w) <- false
      end;
      Sim.Engine.sleep (10 * Sim.Engine.ms)
    end
  done

(* Client-mode worker: serve queued client requests instead of running the
   embedded generator. Claiming the seq and executing happen without an
   intervening yield relative to other claims, so duplicate requests of
   the same seq can never reach two workers. *)
let client_worker_loop t w op () =
  Sim.Engine.sleep (w * 1_700 * Sim.Engine.us);
  while true do
    match Sim.Sync.Mailbox.recv_timeout t.client_q (10 * Sim.Engine.ms) with
    | None ->
        if t.worker_active.(w) then begin
          Sim.Cpu.unregister t.cpu;
          t.worker_active.(w) <- false
        end
    | Some (cid, seq, payload) -> (
        match triage t ~cid ~seq with
        | `Not_serving ->
            (* Deposed while the request sat queued; a dead replica
               answers nothing. *)
            if t.alive then settle t ~cid ~seq `Not_serving
        | (`Fresh _ | `Released | `Claimed _ | `Draining) as d -> (
            if not t.worker_active.(w) then begin
              Sim.Cpu.register t.cpu;
              t.worker_active.(w) <- true
            end;
            match d with
            | `Fresh sess -> (
                sess.s_claimed <- seq;
                match execute t w ~req:(Some (cid, seq)) (op ~payload) with
                | `Committed | `Lapsed ->
                    (* Release acks a commit; after a lapse the client's
                       retry re-executes at the next leader. *)
                    ()
                | `Aborted ->
                    (* User abort: no effect anywhere, safe to answer now. *)
                    sess.s_aborted <- seq;
                    client_reply t ~cid ~seq Paxos.Msg.Aborted)
            | (`Released | `Claimed _ | `Draining) as d -> settle t ~cid ~seq d))
  done

(* ---- replay side ---- *)

(* Session-table rebuild from a replicated request id: a replayed
   transaction is durable below its epoch's watermark, i.e. released (or
   about to be) at the leader that executed it. Marking it released here
   is what lets a freshly promoted leader answer a retry from cache
   instead of re-executing — including when the old leader died between
   durability and release. *)
let rebuild_session t (txn : Store.Wire.txn_log) =
  match txn.Store.Wire.req with
  | Some (cid, seq) ->
      let sess = session t cid in
      if seq > sess.s_claimed then sess.s_claimed <- seq;
      if seq > sess.s_applied then sess.s_applied <- seq;
      if seq > sess.s_released then sess.s_released <- seq
  | None -> ()

(* Follower-lag bookkeeping. Every consumed entry (replayed or skipped as
   our own proposal) advances this stream's replayed frontier. The lag
   sample is taken on the controller tick, a fixed cadence, not at
   entry-apply time: the event-driven loop applies each entry the instant
   it becomes eligible, so apply-time samples would always land on the
   crest of the durability sawtooth. Pure host-side accounting — no
   virtual-time ops. *)
let note_consumed t s (entry : Store.Wire.entry) =
  if entry.Store.Wire.last_ts > t.applied_ts.(s) then
    t.applied_ts.(s) <- entry.Store.Wire.last_ts

(* Checkpoint-safe frontier (see [safe_ts]): called once an entry's apply
   has fully completed — or was rightly skipped (own proposal, already in
   the db by execution; above-final-watermark tail, excluded everywhere) —
   so a fuzzy checkpoint stamping [safe_idx] never claims an in-flight
   write. *)
let note_applied t s ~idx (entry : Store.Wire.entry) =
  if entry.Store.Wire.last_ts > t.safe_ts.(s) then
    t.safe_ts.(s) <- entry.Store.Wire.last_ts;
  if idx > t.safe_idx.(s) then t.safe_idx.(s) <- idx

let note_lag t =
  let frontier = Array.fold_left min max_int t.applied_ts in
  if frontier > 0 && frontier <> max_int then
    Trace.note_replay_lag t.trace ~frontier ~durable:t.durable_max

let replay_frontier t =
  let f = Array.fold_left min max_int t.applied_ts in
  if f = max_int then 0 else f

let durable_frontier t = t.durable_max

(* Replay one durable entry: sort its write-sets by (table, key), install
   each key's versions in timestamp order through a B-tree cursor sweep —
   one CPU charge, one trace span, one stats update per entry instead of
   per transaction (Rolis §5's replay headroom, Fig. 15). [upto]
   truncates the batch at the (final) watermark: transactions with
   [ts <= upto] are safe — they may already have been released to
   clients — while later ones in the same entry may depend on lost
   transactions and must be skipped (§4.1). *)
let apply_entry ?(upto = max_int) t (entry : Store.Wire.entry) =
  if not t.cfg.Config.disable_replay then begin
    Sim.Cpu.register t.cpu;
    List.iter
      (fun (txn : Store.Wire.txn_log) ->
        if txn.Store.Wire.ts <= upto then rebuild_session t txn)
      entry.txns;
    let sampled = Trace.sample_replay t.trace in
    let r0 = Sim.Engine.now t.eng in
    let res =
      Silo.Db.apply_replay_entry t.db entry
        ~ways:t.cfg.Config.replay_parallel ~upto ()
    in
    if sampled then
      Trace.note_replay t.trace ~ts:entry.Store.Wire.last_ts ~start:r0
        ~stop:(Sim.Engine.now t.eng);
    Stats.add t.stats Stats.Replayed_txns res.Silo.Db.re_txns;
    Sim.Cpu.unregister t.cpu
  end

(* Event-driven replay wakeup: bump the stream's generation
   and post at most one poke — [Mailbox.length] counts only queued
   messages, so the mailbox never holds more than one. A signal landing
   while the loop drains either bumps the generation (loop re-drains
   before parking) or wakes the parked waiter; wakeups are never lost. *)
let signal_replay t s =
  t.r_gen.(s) <- t.r_gen.(s) + 1;
  if Sim.Sync.Mailbox.length t.r_wake.(s) = 0 then
    Sim.Sync.Mailbox.send t.r_wake.(s) ()

let signal_promotion t =
  if Sim.Sync.Mailbox.length t.p_wake = 0 then Sim.Sync.Mailbox.send t.p_wake ()

let signal_replay_all t =
  for s = 0 to Array.length t.r_gen - 1 do
    signal_replay t s
  done

(* Follower replay, one process per stream: drain every entry that is
   applicable now, then park on the wakeup mailbox, re-draining first if
   the generation moved while it worked. A durability commit or watermark
   advance wakes it immediately, so replay latency does not floor at
   [watermark_interval]. *)
let replay_loop t s () =
  let q = t.replay_queues.(s) in
  let pop () =
    ignore (Queue.pop q);
    t.backlog <- t.backlog - 1
  in
  while true do
    let gen = t.r_gen.(s) in
    let continue = ref true in
    while !continue do
      match Queue.peek_opt q with
      | None -> continue := false
      | Some (idx, entry) ->
          let e = entry.Store.Wire.epoch in
          if t.serving && e = t.srv_epoch then begin
            (* Our own proposals: already applied by execution. *)
            pop ();
            note_consumed t s entry;
            note_applied t s ~idx entry
          end
          else if e < t.repoch then begin
            (* Left-over from an already-advanced epoch (defensive): apply
               only the part below that epoch's final watermark. *)
            pop ();
            note_consumed t s entry;
            (match Watermark.final_watermark t.wm ~epoch:e with
            | Some w -> apply_entry t entry ~upto:w
            | None -> ());
            note_applied t s ~idx entry
          end
          else if e = t.repoch then begin
            if entry.Store.Wire.last_ts <= t.rwm then begin
              pop ();
              note_consumed t s entry;
              apply_entry t entry;
              note_applied t s ~idx entry
            end
            else
              match Watermark.final_watermark t.wm ~epoch:e with
              | Some w ->
                  (* The epoch is sealed and this entry straddles its final
                     watermark: replay the prefix with [ts <= W] (those
                     results may already be at clients) and skip the tail,
                     which may depend on lost transactions (Fig. 3). *)
                  pop ();
                  note_consumed t s entry;
                  apply_entry t entry ~upto:w;
                  note_applied t s ~idx entry
              | None -> continue := false (* unsealed straddle: park *)
          end
          else continue := false (* future epoch: wait for the controller *)
    done;
    if t.r_gen.(s) = gen then Sim.Sync.Mailbox.recv t.r_wake.(s)
  done

(* ---- controller: watermark, release, replay-epoch advancement ---- *)

let release_pass t =
  match Watermark.compute t.wm ~epoch:t.srv_epoch with
  | None -> ()
  | Some w ->
      let now = Sim.Engine.now t.eng in
      let extra_latency = if t.cfg.Config.networked_clients then t.cfg.Config.client_rtt else 0 in
      Array.iter
        (fun q ->
          let continue = ref true in
          while !continue do
            match Queue.peek_opt q with
            | Some m when m.m_ts <= w ->
                ignore (Queue.pop q);
                (* The ack: results become visible to clients only below
                   the watermark (§3.3) — this is the exactly-once "done"
                   signal the oracle checks. *)
                (match m.m_client with
                | Some (cid, seq) ->
                    let sess = session t cid in
                    if seq > sess.s_released then sess.s_released <- seq;
                    client_reply t ~cid ~seq Paxos.Msg.Ok_released
                | None -> ());
                Stats.note_released t.stats ~start:m.m_start
                  ~latency:(now - m.m_start + extra_latency)
                  ~bytes:m.m_bytes;
                (match m.m_tok with
                | Some tk -> Trace.note_released t.trace tk
                | None -> ())
            | Some _ | None -> continue := false
          done)
        t.release_queues

(* A leader that cannot reach a majority must stop serving: its
   speculative transactions can never become durable, and another leader
   may be elected on the other side of the partition. This is the lease
   check that also bounds speculative memory accumulation (§5). *)
let quorum_alive t =
  let voters = Paxos.Member.voters t.view in
  if List.length voters <= 1 then true
  else begin
    let now = Sim.Engine.now t.eng in
    (* Self counts as heard; a joint view needs a fresh majority of BOTH
       configurations, which [Member.quorum] enforces. *)
    let fresh =
      List.filter
        (fun peer ->
          peer = t.rid
          || peer < Array.length t.last_heard
             && now - t.last_heard.(peer) <= t.cfg.Config.election_timeout)
        voters
    in
    Paxos.Member.quorum t.view fresh
  end

(* ---- snapshot reads (epoch-guarded freshness leases) ---- *)

(* Audit sampling of served reads: every [read_audit_interval]-th serve
   is eligible, and eligible serves feed a reservoir of [read_audit_cap]
   slots (Vitter's algorithm R), so the sample covers the whole run —
   late reads after failovers included — in bounded host memory. The
   reservoir draw hashes [read_seen] instead of touching the simulation
   RNG: auditing never perturbs the run. *)
let read_audit_interval = 64
let read_audit_cap = 4096

(* The slot the [seen]-th serve replaces once the reservoir is full:
   uniform over the eligible serves so far, [-1] when it is not kept. *)
let read_audit_victim seen =
  let k = ((seen - 1) / read_audit_interval) + 1 in
  let j = Hashtbl.hash seen mod k in
  if j < read_audit_cap then j else -1

let read_audit_wanted t seen =
  (seen - 1) mod read_audit_interval = 0
  && (t.read_audit_n < read_audit_cap || read_audit_victim seen >= 0)

(* Keep an audited serve's observations. The reservoir may have filled
   while the read yielded for its CPU charge, so the slot is chosen
   here, not when the read was admitted. *)
let keep_read_audit t seen sample =
  if t.read_audit_n < read_audit_cap then begin
    t.read_audit.(t.read_audit_n) <- sample;
    t.read_audit_n <- t.read_audit_n + 1
  end
  else
    let j = read_audit_victim seen in
    if j >= 0 then t.read_audit.(j) <- sample

(* May this replica serve a snapshot read right now? A serving leader may
   — provided it still sees a quorum (the same condition that lets it
   keep releasing); a follower needs a live freshness lease from the
   current epoch's leader. The lease is a fence, not just a hint:
   [Config.validate] enforces [read_lease < election_timeout], and grants
   are only issued while the leader has fresh quorum contact, so by the
   time any successor can finish an election (a full timeout of silence
   later) every lease the deposed leader granted has expired — a
   lease-holding follower can never serve a snapshot that a newer leader
   has silently surpassed. A tainted replica's database holds speculative
   never-durable writes and must not serve reads at all. *)
let may_serve_reads t =
  t.cfg.Config.follower_reads && t.alive && (not t.tainted)
  &&
  if t.serving then quorum_alive t
  else
    t.lease_epoch >= Paxos.Election.epoch (election t)
    && Sim.Engine.now t.eng <= t.lease_until

(* The snapshot pin. Leader: the release watermark — exactly the frontier
   below which results are client-visible (§3.3), so a leader-served read
   observes the same prefix a client can know about. Follower: the
   minimum over streams of the fully-applied frontier [safe_ts] — every
   transaction at or below it has completely replayed here, and
   per-stream timestamp monotonicity means nothing below it is still in
   flight. Pins only advance, and read bodies are yield-free, so version
   reclamation against the current pin (see {!Silo.Db.set_read_floor})
   can never pull a version out from under an in-progress read. *)
let read_pin t =
  if t.serving then
    match Watermark.compute t.wm ~epoch:t.srv_epoch with
    | Some w -> w
    | None -> 0
  else begin
    let f = Array.fold_left min max_int t.safe_ts in
    if f = max_int || f < 0 then 0 else f
  end

(* Dispatcher-side triage of a read request. No session state — snapshot
   reads are idempotent, so there is nothing to deduplicate. An
   ineligible replica redirects toward the leader when it knows one (a
   serving leader always serves reads too) and parks the client with
   [Busy] otherwise; a full read queue sheds like the write path's
   admission control. *)
let handle_read_req t ~cid ~seq ~payload =
  if not (may_serve_reads t) then begin
    match leader_hint t with
    | Some _ as hint ->
        Trace.note_disposition t.trace ~count:Stats.Reads_redirected Trace.Redirect;
        client_reply t ~cid ~seq (Paxos.Msg.Not_leader { hint })
    | None ->
        Trace.note_disposition t.trace ~count:Stats.Reads_parked Trace.Busy;
        client_reply t ~cid ~seq Paxos.Msg.Busy
  end
  else if Sim.Sync.Mailbox.length t.read_q >= t.cfg.Config.admission_max_pending
  then begin
    Trace.note_disposition t.trace ~count:Stats.Reads_parked Trace.Busy;
    client_reply t ~cid ~seq Paxos.Msg.Busy
  end
  else Sim.Sync.Mailbox.send t.read_q (cid, seq, payload)

(* Leader half of the lease protocol, called from the heartbeat tick:
   re-arm every pool node's lease while we are serving AND still see a
   quorum. Spares and learners are included — they replay and may serve
   reads once current. Gated: with follower reads off this sends no
   messages at all (bit-identity of the default path). *)
let grant_leases t =
  if t.cfg.Config.follower_reads && t.serving && quorum_alive t then begin
    let until = Sim.Engine.now t.eng + t.cfg.Config.read_lease in
    let body = Paxos.Msg.Read_lease { epoch = t.srv_epoch; until } in
    for peer = 0 to Config.pool t.cfg - 1 do
      if peer <> t.rid then begin
        let m = { Paxos.Msg.from = t.rid; body } in
        Sim.Net.send t.net ~size:(Paxos.Msg.size m) ~src:t.rid ~dst:peer m
      end
    done
  end

(* Follower half: adopt a grant unless it is from an epoch older than one
   we already hold a lease for. [lease_until] is max-monotone — grant
   times ride real heartbeats, so a newer epoch's grant never shortens an
   adopted lease. Staleness relative to our *known* epoch is checked at
   serve time ([may_serve_reads]), where the answer can still change. *)
let handle_read_lease t ~epoch ~until =
  if epoch >= t.lease_epoch then begin
    t.lease_epoch <- epoch;
    if until > t.lease_until then t.lease_until <- until
  end

(* Read worker: drain the read queue, serving each request against a
   freshly pinned snapshot. The serve path takes no locks and validates
   nothing — its whole cost is [txn_begin_ns] plus [snapshot_read_ns] per
   point read (charged inside {!Silo.Db.read_at}) — which is what
   multiplies cluster read capacity: followers burn their own idle cores.
   A reclaimed-version miss ({!Silo.Db.Snapshot_miss}) retries at the
   fresher pin up to [read_retry_limit] times before shedding. *)
let read_worker_loop t w rop () =
  Sim.Engine.sleep (w * 1_300 * Sim.Engine.us);
  while true do
    match Sim.Sync.Mailbox.recv_timeout t.read_q (10 * Sim.Engine.ms) with
    | None ->
        if t.read_active.(w) then begin
          Sim.Cpu.unregister t.cpu;
          t.read_active.(w) <- false
        end
    | Some (cid, seq, payload) ->
        if not (may_serve_reads t) then begin
          (* The lease lapsed (or we were deposed) while the request sat
             queued: never serve — the snapshot could trail a newer
             leader's released writes. Park the client instead. *)
          if t.alive then begin
            Trace.note_disposition t.trace ~count:Stats.Reads_parked Trace.Busy;
            client_reply t ~cid ~seq Paxos.Msg.Busy
          end
        end
        else begin
          if not t.read_active.(w) then begin
            Sim.Cpu.register t.cpu;
            t.read_active.(w) <- true
          end;
          let start = Sim.Engine.time () in
          t.read_seen <- t.read_seen + 1;
          let seen = t.read_seen in
          let audit = read_audit_wanted t seen in
          let rec attempt n =
            let pin = read_pin t in
            match Silo.Db.read_at t.db ~audit ~pin (fun s -> rop ~payload s) with
            | v, obs -> Some (pin, v, obs)
            | exception Silo.Db.Snapshot_miss ->
                Stats.add t.stats Stats.Read_misses 1;
                if n + 1 >= read_retry_limit then None
                else attempt (n + 1)
          in
          match attempt 0 with
          | Some (pin, value, obs) ->
              if audit then keep_read_audit t seen (pin, obs);
              Stats.add t.stats Stats.Reads_served 1;
              Trace.note_read_serve t.trace ~start ~stop:(Sim.Engine.time ())
                ~staleness:(t.durable_max - pin);
              client_reply t ~cid ~seq (Paxos.Msg.Ok_read { value })
          | None ->
              Trace.note_disposition t.trace ~count:Stats.Reads_parked Trace.Busy;
              client_reply t ~cid ~seq Paxos.Msg.Busy
        end
  done

let read_audits t = Array.to_list (Array.sub t.read_audit 0 t.read_audit_n)
let lease_valid t = may_serve_reads t

let controller_loop t () =
  while true do
    Sim.Engine.sleep t.cfg.Config.watermark_interval;
    Stats.sample_speculative_memory t.stats;
    (* Follower-lag sample at fixed cadence (see [note_consumed]):
       followers only — a leader's frontier tracks its own skipped
       proposals and would dilute the metric. *)
    if (not t.serving) && not t.cfg.Config.disable_replay then note_lag t;
    if t.serving && not (quorum_alive t) then stop_serving t;
    let rwm_advanced =
      match Watermark.compute t.wm ~epoch:t.repoch with
      | Some w when w > t.rwm ->
          t.rwm <- w;
          true
      | Some _ | None -> false
    in
    let sealed = Watermark.is_sealed t.wm ~epoch:t.repoch in
    let epoch_advanced =
      sealed
      &&
      let drained =
        Array.for_all
          (fun q ->
            match Queue.peek_opt q with
            | None -> true
            | Some (_, e) -> e.Store.Wire.epoch > t.repoch)
          t.replay_queues
      in
      if drained then begin
        t.repoch <- t.repoch + 1;
        t.rwm <-
          (match Watermark.compute t.wm ~epoch:t.repoch with Some w -> w | None -> 0);
        signal_promotion t
      end;
      drained
    in
    (* Replay parks between wakeups; poke every stream whenever its
       go/no-go inputs moved (watermark or epoch advance) and as a sealed
       backstop for entries straddling the final watermark, whose apply
       decision changes without the replay watermark moving. *)
    if rwm_advanced || epoch_advanced || sealed then signal_replay_all t;
    (* Release is event-driven — durability notifications that advance
       the watermark run the pass directly (see [on_commit]) — so the
       controller tick keeps only its lease/seal/epoch duties above. *)
    (* Checkpoint duty (followers only — a leader's database holds
       speculative above-watermark writes that must never reach disk):
       arm the checkpointer on cadence; a scan spanning several ticks is
       never double-armed. *)
    if
      t.cfg.Config.checkpoint_interval > 0
      && t.alive && (not t.serving) && (not t.tainted)
      && (not t.ckpt_inprogress)
      && Sim.Engine.now t.eng - t.last_ckpt_at >= t.cfg.Config.checkpoint_interval
    then begin
      t.last_ckpt_at <- Sim.Engine.now t.eng;
      t.ckpt_inprogress <- true;
      if Sim.Sync.Mailbox.length t.ckpt_wake = 0 then
        Sim.Sync.Mailbox.send t.ckpt_wake ()
    end
  done

(* The checkpointer: stamp the safe frontier, scan the database through
   the bandwidth-limited disk, publish the image. The scan is fuzzy —
   replay keeps applying while it runs — which is safe because the stamped
   cover is a *lower* bound (stamped before the scan, applies are
   monotone) and installs go through the strictly-newer CAS. Tombstones
   ride along ([live_only:false]): a below-watermark delete missing from
   the image would resurrect on a rebuilt replica whose [App.setup] seeds
   the row. *)
let checkpoint_loop t () =
  while true do
    Sim.Sync.Mailbox.recv t.ckpt_wake;
    if t.alive && (not t.serving) && not t.tainted then begin
      let cover = Array.copy t.safe_idx in
      let frontier = Array.copy t.safe_ts in
      let wm_snap = Watermark.export t.wm in
      let sessions =
        Hashtbl.fold
          (fun cid s acc ->
            (cid, s.s_claimed, s.s_applied, s.s_released, s.s_aborted) :: acc)
          t.sessions []
        |> List.sort compare
      in
      let taken_at = Sim.Engine.now t.eng in
      let img =
        Checkpoint.write t.db ~live_only:false ()
      in
      (* Promotion or taint mid-scan: the image may hold speculative
         writes that were never durable — discard it. *)
      if (not t.serving) && not t.tainted then begin
        t.last_ckpt <-
          Some
            {
              Checkpoint.ri_image = img;
              ri_cover = cover;
              ri_frontier = frontier;
              ri_wm = wm_snap;
              ri_sessions = sessions;
              ri_taken_at = taken_at;
            };
        t.ckpt_count <- t.ckpt_count + 1;
        Log.debug (fun m ->
            m "replica %d checkpoint #%d: %d rows, %d bytes" t.rid t.ckpt_count
              (Checkpoint.row_count img) (Checkpoint.size_bytes img))
      end
    end;
    t.ckpt_inprogress <- false
  done

(* ---- membership (joint consensus) ---- *)

let view_of_change (c : Store.Wire.member_change) =
  match c.Store.Wire.m_old with
  | [] -> Paxos.Member.stable c.Store.Wire.m_new
  | old_ -> Paxos.Member.joint ~old_ ~new_:c.Store.Wire.m_new

(* Adopt a replicated configuration at *accept* time (Raft §6: a server
   always uses the latest configuration in its log, committed or not).
   Monotone by generation; mirrored into the election and every stream so
   the quorum rule switches atomically with the view. *)
let adopt_config t (c : Store.Wire.member_change) =
  if c.Store.Wire.m_gen > t.mgen then begin
    let view = view_of_change c in
    t.mgen <- c.Store.Wire.m_gen;
    t.view <- view;
    Paxos.Election.set_view (election t) view ~gen:c.Store.Wire.m_gen;
    Array.iter
      (fun s -> Paxos.Stream.set_view s view ~gen:c.Store.Wire.m_gen)
      t.streams;
    (* Learner promotion: the moment the adopted view makes us a voter we
       may stand for election — unless a checkpoint load or taint still
       forbids it. *)
    if t.learner && Paxos.Member.mem view t.rid then begin
      t.learner <- false;
      if t.alive && (not t.tainted) && not t.ckpt_loading then
        Paxos.Election.set_eligible (election t) true
    end;
    Log.debug (fun m ->
        m "replica %d adopts config gen %d: %a" t.rid c.Store.Wire.m_gen
          Paxos.Member.pp view)
  end

(* Propose a configuration entry on stream 0 (configs are totally ordered
   there) and adopt it locally right away. *)
let propose_config t (c : Store.Wire.member_change) =
  adopt_config t c;
  Paxos.Stream.propose t.streams.(0)
    (Store.Wire.config_entry ~epoch:t.srv_epoch ~ts:(Silo.Db.next_ts t.db) c)

(* Start a membership change toward voter set [members]: commit the joint
   configuration C_old,new first; once it is durable, [on_commit] follows
   up with the stable C_new (see [create]). One change in flight at a
   time; a leader mid-drain refuses. *)
let propose_reconfig t ~members =
  let members = List.sort_uniq compare members in
  if
    (not (t.serving && t.alive))
    || t.draining || t.reconfig_inflight || members = []
  then false
  else
    match t.view with
    | Paxos.Member.Joint _ -> false (* a change is already in flight *)
    | Paxos.Member.Stable old_ ->
        if members = old_ then false
        else begin
          t.reconfig_inflight <- true;
          propose_config t
            { Store.Wire.m_gen = t.mgen + 1; m_old = old_; m_new = members };
          true
        end

(* Learners this leader must not truncate away from (forwarded to every
   stream's retention gate). *)
let set_learners t l =
  Array.iter (fun s -> Paxos.Stream.set_learners s l) t.streams

(* ---- planned leader handoff ---- *)

(* Drain-then-transfer (Raft leadership transfer, adapted to the
   speculative pipeline): stop admitting new client work, wait for every
   release queue to empty — everything executed here is then released, so
   the database is exactly the replicated prefix — step down *clean* (no
   taint, still eligible) and grant the target immediate candidacy with
   [Timeout_now], closing the election-timeout gap. If the drain times
   out, the transfer still proceeds but the step-down goes through the
   ordinary deposition path (taint) when the target's election lands. If
   no new epoch appears at all, resume serving: a failed handoff must not
   leave the epoch leaderless. *)
let begin_handoff t ~target =
  if t.serving && t.alive && (not t.draining) && target <> t.rid then begin
    t.draining <- true;
    t.handoff_target <- Some target;
    let epoch = t.srv_epoch in
    Log.debug (fun m ->
        m "replica %d draining epoch %d for handoff to %d" t.rid epoch target);
    spawn t "handoff" (fun () ->
        let deadline = Sim.Engine.now t.eng + handoff_drain_timeout in
        Array.iter Batcher.flush t.batchers;
        let drained () = Array.for_all Queue.is_empty t.release_queues in
        while
          t.serving && t.alive
          && (not (drained ()))
          && Sim.Engine.now t.eng < deadline
        do
          Sim.Engine.sleep (5 * Sim.Engine.ms)
        done;
        if t.serving && t.alive && t.srv_epoch = epoch then begin
          if drained () then begin
            t.serving <- false;
            Log.debug (fun m ->
                m "replica %d hands off epoch %d to %d (drained clean)" t.rid
                  epoch target)
          end;
          let msg =
            {
              Paxos.Msg.from = t.rid;
              body = Paxos.Msg.Elect (Paxos.Msg.Timeout_now { epoch });
            }
          in
          Sim.Net.send t.net ~size:(Paxos.Msg.size msg) ~src:t.rid ~dst:target
            msg;
          (* Failed-transfer backstop: if the grant elects no one (target
             crashed, ineligible, still loading) resume serving — our
             still-Leader heartbeats have kept everyone's timers reset. *)
          Sim.Engine.sleep (2 * t.cfg.Config.election_timeout);
          if
            t.alive
            && Paxos.Election.is_leader (election t)
            && Paxos.Election.epoch (election t) = epoch
            && (not t.serving) && not t.tainted
          then begin
            Log.debug (fun m ->
                m "replica %d handoff to %d failed; resuming epoch %d" t.rid
                  target epoch);
            t.serving <- true;
            t.handoff_target <- None
          end;
          t.draining <- false
        end
        else t.draining <- false)
  end

(* ---- promotion (new-leader recovery, §4.1) ---- *)

let seal_old_epoch t ~epoch =
  Array.iteri
    (fun i stream ->
      Batcher.flush t.batchers.(i);
      Paxos.Stream.propose stream
        (Store.Wire.noop ~epoch ~ts:(Silo.Db.next_ts t.db)))
    t.streams

(* Failover wake-up: a new leader tells every session in its replicated
   session table that it serves, so a session napping through a backoff
   or park, or waiting on the dead leader, resends here at once. *)
let announce_leader t ~epoch =
  let m =
    {
      Paxos.Msg.from = t.rid;
      body = Paxos.Msg.Elect (Paxos.Msg.Heartbeat { epoch; leader = t.rid });
    }
  in
  Hashtbl.iter
    (fun cid _ ->
      Sim.Net.send t.net ~size:(Paxos.Msg.size m) ~src:t.rid
        ~dst:(Config.pool t.cfg + cid) m)
    t.sessions

let promote t ~epoch =
  spawn t "promote" (fun () ->
      let still_leading () =
        t.alive
        && Paxos.Election.is_leader (election t)
        && Paxos.Election.epoch (election t) = epoch
      in
      (* Nothing yields between a check and the wait, so a poke is never
         lost; a step-down pokes too, so a deposed promotion exits. *)
      let await ready =
        while still_leading () && not (ready ()) do
          Sim.Sync.Mailbox.recv t.p_wake
        done
      in
      (* 1. Every stream finishes Prepare and recommits its tail. *)
      await (fun () -> Array.for_all Paxos.Stream.is_caught_up t.streams);
      if still_leading () then begin
        (* 2. Seal the old epoch with a no-op per stream. *)
        seal_old_epoch t ~epoch;
        (* 3. Wait until local replay drains every older epoch. *)
        await (fun () -> t.repoch >= epoch);
        if still_leading () then begin
          (* 4. Become the execution leader. *)
          Silo.Db.set_epoch t.db epoch;
          Silo.Db.set_physical_deletes t.db true;
          List.iter (fun tbl -> ignore (Store.Table.compact tbl)) (Silo.Db.tables t.db);
          t.srv_epoch <- epoch;
          t.serving <- true;
          t.draining <- false;
          t.handoff_target <- None;
          (* Recover an interrupted membership change (Raft §6): a joint
             view must not persist — the new leader completes it by
             committing the stable target configuration. *)
          (match t.view with
          | Paxos.Member.Joint (_, new_) ->
              t.reconfig_inflight <- true;
              propose_config t
                { Store.Wire.m_gen = t.mgen + 1; m_old = []; m_new = new_ }
          | Paxos.Member.Stable _ -> t.reconfig_inflight <- false);
          announce_leader t ~epoch;
          Log.debug (fun m ->
              m "replica %d serving epoch %d (promotion complete)" t.rid epoch)
        end
      end)

(* ---- heartbeats: flush + empty transaction per stream (§5) ---- *)

let heartbeat_tick t () =
  (* Loss recovery rides the heartbeat: re-send whatever protocol step is
     stuck (Prepare without a promise quorum, Accepts short of a majority,
     the latest commit position). No-op on streams we do not lead. *)
  Array.iter Paxos.Stream.retransmit t.streams;
  if t.serving then
    Array.iteri
      (fun i stream ->
        Batcher.flush t.batchers.(i);
        Paxos.Stream.propose stream
          (Store.Wire.noop ~epoch:t.srv_epoch ~ts:(Silo.Db.next_ts t.db)))
      t.streams;
  (* Freshness leases ride the same tick (no-op unless follower reads are
     on and we lead with quorum contact). *)
  grant_leases t

(* ---- construction ---- *)

let create cfg eng net ~id:rid ~app ?image ?initial_leader ?membership
    ?(learner = false) ?on_durable () =
  Config.validate cfg;
  let cpu = Sim.Cpu.create eng ~cores:cfg.Config.cores () in
  let is_initial_leader = initial_leader = Some rid in
  let db =
    Silo.Db.create eng cpu ~costs:cfg.Config.costs
      ~physical_deletes:is_initial_leader
      ~hash_tables:cfg.Config.hash_tables ()
  in
  (match image with
  | Some src -> Silo.Db.copy_tables ~src db
  | None -> app.App.setup db);
  let nstreams = Config.nstreams cfg in
  (* Default membership: the base replica set. Spare pool slots exist on
     the network but are not voters until a reconfiguration adds them. *)
  let view0, mgen0 =
    match membership with
    | Some (v, g) -> (v, g)
    | None -> (Paxos.Member.stable (List.init cfg.Config.replicas Fun.id), 0)
  in
  let stats = Stats.create eng in
  let trace =
    Trace.create eng ~stats ~workers:cfg.Config.workers
      ~sample_interval:cfg.Config.trace_sample_interval
      ~capacity:cfg.Config.trace_buffer_capacity
  in
  let t =
    {
      cfg;
      rid;
      eng;
      net;
      cpu;
      db;
      stats;
      trace;
      election = None;
      streams = [||];
      batchers = [||];
      bodies = [||];
      wm = Watermark.create ~streams:nstreams;
      replay_queues = Array.init nstreams (fun _ -> Queue.create ());
      backlog = 0;
      r_gen = Array.make nstreams 0;
      r_wake = Array.init nstreams (fun _ -> Sim.Sync.Mailbox.create eng);
      p_wake = Sim.Sync.Mailbox.create eng;
      applied_ts = Array.make nstreams 0;
      durable_max = 0;
      safe_ts = Array.make nstreams 0;
      safe_idx = Array.make nstreams (-1);
      last_rel_wm = -1;
      release_queues = Array.init cfg.Config.workers (fun _ -> Queue.create ());
      procs = [];
      serving = false;
      srv_epoch = 0;
      tainted = false;
      view = view0;
      mgen = mgen0;
      learner;
      ckpt_loading = false;
      draining = false;
      handoff_target = None;
      reconfig_inflight = false;
      repoch = 1;
      rwm = 0;
      alive = true;
      worker_active = Array.make cfg.Config.workers false;
      journal = [];
      journal_bytes = 0;
      truncated_entries = 0;
      ckpt_wake = Sim.Sync.Mailbox.create eng;
      last_ckpt = None;
      ckpt_count = 0;
      ckpt_inprogress = false;
      last_ckpt_at = 0;
      last_heard = Array.make (Config.pool cfg) 0;
      sessions = Hashtbl.create 64;
      client_q = Sim.Sync.Mailbox.create eng;
      lease_epoch = 0;
      lease_until = -1;
      read_q = Sim.Sync.Mailbox.create eng;
      read_active = Array.make read_workers false;
      read_seen = 0;
      read_audit =
        Array.make (if cfg.Config.follower_reads then read_audit_cap else 0) (0, []);
      read_audit_n = 0;
    }
  in
  let client_op =
    if cfg.Config.clients > 0 then
      match app.App.client_op with
      | Some f -> Some (f db)
      | None ->
          (* Read-only deployments: client slots may exist purely for
             read sessions. The write workers then keep the embedded
             generator, so the write path is identical to clients = 0 —
             exactly what a read-capacity comparison wants. *)
          if cfg.Config.follower_reads && app.App.read_op <> None then None
          else invalid_arg "Replica.create: Config.clients > 0 needs App.client_op"
    else None
  in
  let read_op =
    if cfg.Config.follower_reads then
      match app.App.read_op with
      | Some f -> Some (f db)
      | None ->
          invalid_arg "Replica.create: Config.follower_reads needs App.read_op"
    else None
  in
  (* Turn on prior-version retention in the store: from here on, every
     install that would overwrite a version at or below the current pin
     keeps it in the record's snapshot slot (see {!Silo.Db.set_read_floor}).
     Gated — with follower reads off the store runs the historical
     install path verbatim. *)
  if cfg.Config.follower_reads then
    Silo.Db.set_read_floor db (Some (fun () -> read_pin t));
  (* One encode arena per replica: on_commit runs to completion between
     yields, so the commit-path encodes can all stage through it. *)
  let wire_scratch = Store.Wire.Scratch.create () in
  let on_commit s ~idx (entry : Store.Wire.entry) =
    (* Durability commit: feed the watermark; queue for replay. Physical
       (de)serialization is exercised when configured. *)
    let entry =
      if cfg.Config.physical_serialization then
        Store.Wire.decode (Store.Wire.encode_into wire_scratch entry)
      else entry
    in
    (* Membership-change progress: adoption is normally accept-time (the
       stream's [on_config] hook), but commit is where the *leader* acts —
       a committed joint stage is followed by the stable target, and a
       committed stable stage ends the change. A leader that committed its
       own removal hands off to the first remaining voter. *)
    (match entry.Store.Wire.config with
    | Some c ->
        adopt_config t c;
        if t.serving && c.Store.Wire.m_gen = t.mgen then begin
          if c.Store.Wire.m_old <> [] then
            propose_config t
              {
                Store.Wire.m_gen = t.mgen + 1;
                m_old = [];
                m_new = c.Store.Wire.m_new;
              }
          else begin
            t.reconfig_inflight <- false;
            if not (Paxos.Member.mem t.view t.rid) then
              match Paxos.Member.voters t.view with
              | target :: _ -> begin_handoff t ~target
              | [] -> ()
          end
        end
    | None -> ());
    Watermark.note_durable t.wm ~stream:s ~epoch:entry.epoch ~ts:entry.last_ts;
    (* Advance the durable frontier for follower-lag samples. *)
    if entry.Store.Wire.last_ts > t.durable_max then
      t.durable_max <- entry.Store.Wire.last_ts;
    if Trace.has_pending t.trace then
      List.iter
        (fun (txn : Store.Wire.txn_log) ->
          Trace.note_durable t.trace ~ts:txn.Store.Wire.ts)
        entry.txns;
    if cfg.Config.archive_entries then begin
      t.journal <- (s, idx, entry) :: t.journal;
      t.journal_bytes <- t.journal_bytes + Store.Wire.byte_size entry
    end;
    (match on_durable with Some f -> f ~stream:s ~idx entry | None -> ());
    Queue.add (idx, entry) t.replay_queues.(s);
    t.backlog <- t.backlog + 1;
    (* Event-driven replay: advance the replay watermark right here —
       waiting for the controller tick would floor replay latency at
       [watermark_interval] — then wake every stream when it moved (the
       new watermark can unblock entries parked on other streams), or just
       this one for the enqueue. *)
    let advanced =
      match Watermark.compute t.wm ~epoch:t.repoch with
      | Some w when w > t.rwm ->
          t.rwm <- w;
          true
      | Some _ | None -> false
    in
    if advanced then signal_replay_all t else signal_replay t s;
    (* Event-driven release: when this durability notification advanced
       the cluster minimum, run the release pass right here instead of
       waiting out the controller tick. The whole pass is yield-free
       (queue pops, stats, client acks via [Net.send]), so it is safe in
       the dispatcher's message-handling context. *)
    if t.serving && entry.Store.Wire.epoch = t.srv_epoch then
      match Watermark.compute t.wm ~epoch:t.srv_epoch with
      | Some w when w > t.last_rel_wm ->
          t.last_rel_wm <- w;
          Stats.add t.stats Stats.Event_releases 1;
          release_pass t
      | Some _ | None -> ()
  in
  let on_higher_epoch e = Paxos.Election.observe_epoch (election t) e in
  let streams =
    Array.init nstreams (fun s ->
        Paxos.Stream.create net ~peers:(Config.pool cfg) ~view:view0
          ~coalesce_max_bytes:cfg.Config.max_batch_bytes ~id:s ~me:rid
          ~on_commit:(on_commit s) ~on_higher_epoch
          ~on_config:(fun c -> adopt_config t c)
          ~on_caught_up:(fun () -> signal_promotion t)
          ())
  in
  let el =
    Paxos.Election.create net ~me:rid ~peers:(Config.pool cfg) ~view:view0
      ~heartbeat_interval:cfg.Config.heartbeat_interval
      ~election_timeout:cfg.Config.election_timeout ?initial_leader
      ~on_leader_elected:(fun ~epoch ->
        Array.iter (fun s -> Paxos.Stream.become_leader s ~epoch) streams;
        promote t ~epoch)
      ~on_new_epoch:(fun ~epoch:_ ~leader ->
        signal_promotion t;
        if leader <> Some rid then begin
          Array.iter Paxos.Stream.step_down streams;
          stop_serving t;
          (* A definite successor ends any handoff from our side. *)
          if leader <> None then begin
            t.handoff_target <- None;
            t.draining <- false
          end
        end)
      ~on_heartbeat_tick:(fun () -> heartbeat_tick t ())
      ()
  in
  t.streams <- streams;
  t.election <- Some el;
  (* A restarted member rejoins with the cluster's current view; stamp its
     generation past the freshly created components' gen-0 default. *)
  if mgen0 > 0 then begin
    Array.iter (fun s -> Paxos.Stream.set_view s view0 ~gen:mgen0) streams;
    Paxos.Election.set_view el view0 ~gen:mgen0
  end;
  (* A learner replicates and replays but neither votes nor stands. *)
  if learner then Paxos.Election.set_eligible el false;
  if cfg.Config.checkpoint_interval > 0 && not cfg.Config.checkpoint_truncate
  then
    (* --no-truncate ablation: retain every slot and journal entry. *)
    Array.iter (fun s -> Paxos.Stream.set_no_truncate s true) streams;
  t.batchers <-
    Array.init nstreams (fun s ->
        Batcher.create cfg
          ~coalesce_factor:(fun () -> Paxos.Stream.coalesce_factor streams.(s))
          ~cpu ~stats:t.stats ~trace:t.trace
          ~epoch:(fun () -> Silo.Db.epoch db)
          ~propose:(fun e -> Paxos.Stream.propose streams.(s) e)
          ~shared:(nstreams < cfg.Config.workers)
          ());
  (if client_op = None then
     t.bodies <-
       Array.init cfg.Config.workers (fun w ->
           app.App.make_worker db ~rng:(Sim.Rng.split (Sim.Engine.rng eng)) ~worker:w));
  (* Processes. *)
  spawn t "dispatch" (fun () ->
      while true do
        let m = Sim.Net.recv net rid in
        (* [from] may be a client node, beyond the replica-sized array. *)
        if m.Paxos.Msg.from < Array.length t.last_heard then
          t.last_heard.(m.Paxos.Msg.from) <- Sim.Engine.now eng;
        match m.Paxos.Msg.body with
        | Paxos.Msg.Elect e -> Paxos.Election.handle el e ~from:m.Paxos.Msg.from
        | Paxos.Msg.Stream { stream; msg } ->
            Paxos.Stream.handle streams.(stream) msg ~from:m.Paxos.Msg.from
        | Paxos.Msg.Client_req { cid; seq; payload } ->
            handle_client_req t ~cid ~seq ~payload
        | Paxos.Msg.Read_req { cid; seq; payload } ->
            handle_read_req t ~cid ~seq ~payload
        | Paxos.Msg.Read_lease { epoch; until } ->
            handle_read_lease t ~epoch ~until
        | Paxos.Msg.Client_rep _ -> () (* not addressed to replicas *)
      done);
  t.procs <- Paxos.Election.start el :: t.procs;
  spawn t "controller" (controller_loop t);
  for w = 0 to cfg.Config.workers - 1 do
    match client_op with
    | Some op -> spawn t (Printf.sprintf "worker%d" w) (client_worker_loop t w op)
    | None -> spawn t (Printf.sprintf "worker%d" w) (worker_loop t w)
  done;
  for s = 0 to nstreams - 1 do
    spawn t (Printf.sprintf "replay%d" s) (replay_loop t s)
  done;
  (* Read worker pool — spawned only when follower reads are on, so the
     default config runs the identical process set. *)
  (match read_op with
  | Some rop ->
      for w = 0 to read_workers - 1 do
        spawn t (Printf.sprintf "read-worker%d" w) (read_worker_loop t w rop)
      done
  | None -> ());
  (* Spawned only when configured: the default config must stay
     bit-identical to pre-checkpoint runs. *)
  if cfg.Config.checkpoint_interval > 0 then
    spawn t "checkpointer" (checkpoint_loop t);
  t

let crash t =
  t.alive <- false;
  t.serving <- false;
  List.iter Sim.Engine.kill t.procs

let final_watermark t ~epoch = Watermark.final_watermark t.wm ~epoch

(* Seeding a fresh replica (paper §4.3, after MongoDB's logless
   addition): install the newest persisted follower image when there is
   one, then replay the retained journal through the protocol-level
   inject path. Without an image the cover is [-1] on every stream and
   the whole journal replays. Every image row and every journal write
   lands through the strictly-newer (epoch, ts) CAS, so the overlap a
   fuzzy image inevitably has with the tail double-applies harmlessly.
   Because journals hold only *durable* entries — never speculative
   writes — any alive replica is a safe donor, leaders included.

   The replayed journal must be the per-stream UNION over every donor,
   not one donor's journal: per-stream committed logs are prefixes of
   one another (Paxos agreement), so per stream the longest donor log is
   the union. A single donor is not enough — a follower can be ahead on
   one stream and behind on another, and rebuilding a replica from it
   would wipe this replica's memory of entries whose only other holder
   may crash next, letting a future leader no-op-fill released
   transactions.

   The injected commits rebuild the watermark, the replay queues, and our
   own journal exactly as if we had followed the streams from the cover
   on; whatever committed after the donors' snapshots arrives through the
   ordinary fetch path. Keyed by absolute stream index — under checkpoint
   truncation a donor's journal starts above zero, and the union of
   truncated journals is contiguous from the lowest retained slot (every
   donor drops the same quorum-stable prefix). *)
let rebuild ?ckpt t ~donors =
  let nstreams = Array.length t.streams in
  let cover =
    match ckpt with
    | Some ck -> ck.Checkpoint.ri_cover
    | None -> Array.make nstreams (-1)
  in
  Option.iter
    (fun (ck : Checkpoint.replica_image) ->
      (* Client dedup state travels with the image: a retry of a
         transaction whose journal entry was truncated must answer from
         cache, not re-execute. *)
      List.iter
        (fun (cid, claimed, applied, released, aborted) ->
          let sess = session t cid in
          if claimed > sess.s_claimed then sess.s_claimed <- claimed;
          if applied > sess.s_applied then sess.s_applied <- applied;
          if released > sess.s_released then sess.s_released <- released;
          sess.s_aborted <- aborted)
        ck.ri_sessions;
      (* Sealed-epoch history below the cover cannot be rederived from
         the tail; without it, cross-epoch straddlers would resolve
         wrongly. *)
      Watermark.import t.wm ck.ri_wm;
      for s = 0 to nstreams - 1 do
        let f = ck.ri_frontier.(s) in
        if f > t.applied_ts.(s) then t.applied_ts.(s) <- f;
        if f > t.safe_ts.(s) then t.safe_ts.(s) <- f;
        if cover.(s) > t.safe_idx.(s) then t.safe_idx.(s) <- cover.(s);
        if f > t.durable_max then t.durable_max <- f
      done;
      ignore (Checkpoint.install ~into:t.db ck.ri_image))
    ckpt;
  let unions = Array.init nstreams (fun _ -> Hashtbl.create 256) in
  List.iter
    (fun d ->
      List.iter
        (fun (s, idx, e) -> if idx > cover.(s) then Hashtbl.replace unions.(s) idx e)
        d.journal)
    donors;
  for s = 0 to nstreams - 1 do
    let union = unions.(s) in
    let idxs =
      Hashtbl.fold (fun i _ acc -> i :: acc) union [] |> List.sort compare
    in
    (* The image stands in for every slot at or below its cover; without
       one, for every slot below the lowest the donors still retain. *)
    let floor =
      match (ckpt, idxs) with
      | Some _, _ -> cover.(s) + 1
      | None, lo :: _ -> lo
      | None, [] -> 0
    in
    if floor > 0 then Paxos.Stream.set_bootstrap_floor t.streams.(s) ~idx:floor;
    List.iter
      (fun idx ->
        Paxos.Stream.inject_committed_at t.streams.(s) ~idx
          (Hashtbl.find union idx))
      idxs
  done;
  (* Also merge every donor's accepted-but-uncommitted tail (as *accepted*
     state, never as committed — acceptance is not choice). An accepted
     slot on a survivor can be the only remaining copy of an entry that a
     since-crashed leader committed: without carrying it, this rebuilt
     replica could join a Prepare quorum that excludes that survivor and
     let the new leader no-op-fill a chosen slot. Holding a peer's
     accepted (epoch, value) is always sound — it is equivalent to having
     received that leader's Accept directly. A voluntary rebuild of an
     alive replica (a tainted ex-leader) lists the old replica among the
     donors, so its own accepted tails carry over the same way. *)
  List.iter
    (fun d ->
      Array.iteri
        (fun s stream ->
          Paxos.Stream.import_tail stream (Paxos.Stream.export_tail d.streams.(s)))
        t.streams)
    donors;
  Option.iter
    (fun (ck : Checkpoint.replica_image) ->
      (* This image is this node's durable one; republish it so the
         coordinator need not wait for the next scan. *)
      t.last_ckpt <- Some ck;
      (* State installs synchronously (host-side); pay the modeled load
         time as an election-ineligibility window, so a rebuilt node
         cannot lead before a real loader would have finished reading
         the image back. *)
      t.ckpt_loading <- true;
      Paxos.Election.set_eligible (election t) false;
      let cost = Checkpoint.load_cost ~costs:t.cfg.Config.costs ck.ri_image in
      spawn t "ckpt-load" (fun () ->
          Sim.Engine.sleep cost;
          t.ckpt_loading <- false;
          (* A learner stays ineligible past the load: promotion to voter
             (see [adopt_config]) is what re-arms candidacy. *)
          if t.alive && (not t.tainted) && not t.learner then
            Paxos.Election.set_eligible (election t) true))
    ckpt

(* Vote durability across restarts: a rejoining node must remember the
   vote it cast before crashing or it can grant two votes in one ballot —
   the removed-then-readded double-vote hazard. Models persistent
   votedFor. *)
let salvage_vote t ~old =
  Paxos.Election.import_vote (election t) (Paxos.Election.export_vote (election old))

(* ---- checkpoint-integrated recovery ---- *)

(* Cluster-coordinated journal truncation at quorum-stable frontier
   [cover]: drop archived entries the checkpoint makes redundant and raise
   the streams' compaction floor so slot truncation may pass lagging
   peers' commit indices (they rebuild from the checkpoint instead). The
   coordinator harvests dedup evidence from the entries *before* calling
   this (see {!Cluster}). *)
let apply_truncation t ~cover =
  let bytes = ref 0 and dropped = ref 0 in
  t.journal <-
    List.filter
      (fun (s, idx, e) ->
        if idx <= cover.(s) then begin
          incr dropped;
          bytes := !bytes + Store.Wire.byte_size e;
          false
        end
        else true)
      t.journal;
  t.truncated_entries <- t.truncated_entries + !dropped;
  t.journal_bytes <- t.journal_bytes - !bytes;
  if t.cfg.Config.checkpoint_truncate then
    Array.iteri
      (fun s stream ->
        if cover.(s) >= 0 then Paxos.Stream.set_trunc_floor stream (cover.(s) + 1))
      t.streams
