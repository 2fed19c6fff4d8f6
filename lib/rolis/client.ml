let src = Logs.Src.create "rolis.client" ~doc:"Client session events"

module Log = (val Logs.src_log src : Logs.LOG)

(* Retry pacing, in ns: the first retry backoff (doubles per attempt,
   jittered) and its ceiling, and how long a parked request sleeps before
   it is re-driven. *)
let backoff_base = 10 * Sim.Engine.ms
let backoff_max = 500 * Sim.Engine.ms
let park_interval = 200 * Sim.Engine.ms

type t = {
  net : Paxos.Msg.t Sim.Net.t;
  cfg : Config.t;
  cid : int;
  node : int;
  rng : Sim.Rng.t;
  gen : unit -> string;
  stopped : bool ref;
  stats : Stats.t option; (* shared cluster-side client stats, if wired *)
  ro : bool; (* read-only session: issues [Read_req] instead of [Client_req] *)
  (* Read routing preference: replica ids in try-order (nearest first in a
     WAN topology, or the lease-holding subset a bench arm serves from).
     Write sessions ignore it and rotate over the whole pool. *)
  prefer : int array;
  mutable pref_i : int; (* current index into [prefer] *)
  mutable hint : int; (* current guess at the leader *)
  mutable seq : int; (* seq of the in-flight (or last issued) request *)
  mutable completed : int; (* highest seq terminally resolved *)
  mutable t0 : int; (* first-send time of the in-flight request *)
  mutable acked : int list; (* Ok-acked seqs, newest first *)
  mutable aborted : int;
  mutable retries : int;
  mutable redirects : int;
  mutable busy : int;
  mutable timeouts : int;
  mutable parked : int;
  mutable req_parked_ns : int; (* parked time of the in-flight request *)
  mutable req_redirects : int; (* redirects of the in-flight request *)
  mutable led_epoch : int; (* newest leader announcement adopted *)
  stash : Paxos.Msg.t Queue.t; (* arrived during a nap, for the reply loop *)
  lat : Sim.Metrics.Hist.t;
}

let is_ro t = t.ro
let acked_count t = List.length t.acked
let acked_seqs t = List.rev_map (fun seq -> (t.cid, seq)) t.acked
let retries t = t.retries
let redirects t = t.redirects
let busy_replies t = t.busy
let timeouts t = t.timeouts
let parked t = t.parked
let latency t = t.lat

(* Read sessions rotate within their preference list; write sessions scan
   the whole pool looking for the leader. *)
let rotate_hint t =
  if t.ro then begin
    t.pref_i <- (t.pref_i + 1) mod Array.length t.prefer;
    t.hint <- t.prefer.(t.pref_i)
  end
  else t.hint <- (t.hint + 1) mod Config.pool t.cfg

let send_req t payload =
  let body =
    if t.ro then Paxos.Msg.Read_req { cid = t.cid; seq = t.seq; payload }
    else Paxos.Msg.Client_req { cid = t.cid; seq = t.seq; payload }
  in
  let m = { Paxos.Msg.from = t.node; body } in
  Sim.Net.send t.net ~size:(Paxos.Msg.size m) ~src:t.node ~dst:t.hint m

(* A new leader announces itself to every session it knows of (see
   [Replica.promote]). A write session adopts the newest announcement as
   its hint; a read session keeps its preference list. *)
let adopt_leader t (m : Paxos.Msg.t) =
  match m.Paxos.Msg.body with
  | Paxos.Msg.Elect (Paxos.Msg.Heartbeat { epoch; leader })
    when (not t.ro) && epoch > t.led_epoch ->
      t.led_epoch <- epoch;
      t.hint <- leader;
      true
  | _ -> false

(* Next message for the reply loop: whatever a nap stashed first. *)
let recv t left =
  match Queue.take_opt t.stash with
  | Some _ as m -> m
  | None -> Sim.Net.recv_timeout t.net t.node left

(* Sleep [d], ending early when a leader announcement is adopted; any
   other message is stashed for the reply loop, so a late ack is never
   lost. Returns the time actually slept. *)
let nap t d =
  let t0 = Sim.Engine.time () in
  let until = t0 + d in
  let rec go () =
    let left = until - Sim.Engine.time () in
    if left > 0 then
      match Sim.Net.recv_timeout t.net t.node left with
      | None -> ()
      | Some m when adopt_leader t m -> ()
      | Some m ->
          Queue.add m t.stash;
          go ()
  in
  go ();
  Sim.Engine.time () - t0

(* Exponential backoff with seeded jitter: attempt [a] naps a uniform
   draw from (b/2, b] where b = min(max, base * 2^a). *)
let backoff_nap t ~attempt =
  let b =
    min backoff_max (backoff_base * (1 lsl min attempt 16))
  in
  ignore (nap t (b - Sim.Rng.int t.rng (max 1 (b / 2))))

(* Fold the in-flight request's parked time and redirect count into the
   shared stats once it resolves — availability seen from the client. *)
let record_resolution t =
  match t.stats with
  | None -> ()
  | Some s ->
      if t.req_redirects > 0 then
        Stats.note_stage s ~stage:Trace.(stage_index Client_redirect)
          ~latency:t.req_redirects;
      if t.req_parked_ns > 0 then begin
        Stats.add s Stats.Parked_requests 1;
        Stats.add s Stats.Parked_ns t.req_parked_ns;
        Stats.note_stage s ~stage:Trace.(stage_index Client_park)
          ~latency:t.req_parked_ns
      end

let record_ok t ~from =
  let latency = Sim.Engine.time () - t.t0 in
  Sim.Metrics.Hist.add t.lat latency;
  record_resolution t;
  t.acked <- t.seq :: t.acked;
  t.completed <- t.seq;
  t.hint <- from

(* Drive one request to a terminal reply (Ok or Aborted), retrying through
   timeouts, Busy shedding and leader redirects. After [client_retry_limit]
   attempts the request is parked — the client sleeps and re-drives it
   later, so an unreachable cluster degrades gracefully instead of
   spinning. A write request is never abandoned: exactly-once is about
   duplicate execution, not about giving up. A read request, being
   idempotent and free of any exactly-once obligation, is abandoned after
   one park: a permanently unservable read (a hot key overwritten faster
   than the snapshot pin advances past it) must not head-of-line block
   the session forever. *)
let drive t payload =
  t.t0 <- Sim.Engine.time ();
  t.req_parked_ns <- 0;
  t.req_redirects <- 0;
  (* Each read starts back at the session's home replica (nearest under a
     WAN profile, the assigned serving replica otherwise). Busy/redirect
     rotations and [record_ok]'s hint adoption are per-request routing
     state: without this reset, a warmup-time Busy storm from followers
     that have no lease yet would funnel every session to the leader
     permanently. *)
  if t.ro then begin
    t.pref_i <- t.cid mod Array.length t.prefer;
    t.hint <- t.prefer.(t.pref_i)
  end;
  let attempts = ref 0 in
  let finished = ref false in
  while (not !finished) && not !(t.stopped) do
    if !attempts >= t.cfg.Config.client_retry_limit then begin
      t.parked <- t.parked + 1;
      attempts := 0;
      Log.debug (fun m -> m "client %d parks seq %d" t.cid t.seq);
      let d =
        park_interval + Sim.Rng.int t.rng (max 1 (park_interval / 2))
      in
      t.req_parked_ns <- t.req_parked_ns + nap t d;
      if t.ro then begin
        record_resolution t;
        t.completed <- t.seq;
        finished := true
      end
    end;
    if not !finished then begin
      if !attempts > 0 then t.retries <- t.retries + 1;
      send_req t payload;
      incr attempts;
      let deadline = Sim.Engine.time () + t.cfg.Config.client_timeout in
      let waiting = ref true in
      while !waiting && not !finished do
        let left = deadline - Sim.Engine.time () in
        if left <= 0 then begin
          t.timeouts <- t.timeouts + 1;
          rotate_hint t;
          waiting := false;
          backoff_nap t ~attempt:!attempts
        end
        else
          let hint = t.hint in
          match recv t left with
          | Some
              { Paxos.Msg.from; body = Paxos.Msg.Client_rep { cid; seq; reply } }
            when cid = t.cid && seq = t.seq -> (
              match reply with
              | Paxos.Msg.Ok_released | Paxos.Msg.Ok_read _ ->
                  record_ok t ~from;
                  finished := true
              | Paxos.Msg.Aborted ->
                  t.aborted <- t.aborted + 1;
                  record_resolution t;
                  t.completed <- t.seq;
                  t.hint <- from;
                  finished := true
              | Paxos.Msg.Busy ->
                  t.busy <- t.busy + 1;
                  (* A read session tries another lease holder after the
                     backoff — the replica that shed us may be lease-parked
                     for a while; a write session re-tries the same leader. *)
                  if t.ro then rotate_hint t;
                  waiting := false;
                  backoff_nap t ~attempt:!attempts
              | Paxos.Msg.Not_leader { hint } ->
                  t.redirects <- t.redirects + 1;
                  t.req_redirects <- t.req_redirects + 1;
                  (* A read session never leaves its preference list: the
                     hint points at the leader, and adopting it — e.g.
                     during warmup, before the first heartbeat has granted
                     any lease — would permanently funnel every session
                     there. Rotate to the next preferred replica instead. *)
                  if t.ro then rotate_hint t
                  else (
                    match hint with
                    | Some h -> t.hint <- h
                    | None -> rotate_hint t);
                  waiting := false;
                  (* Short pause, not full backoff: an election may be in
                     progress and the hint goes stale quickly. *)
                  ignore
                    (nap t (backoff_base + Sim.Rng.int t.rng (max 1 backoff_base))))
          | Some m when adopt_leader t m ->
              (* A new leader serves: stop waiting on the one we sent to,
                 which may be dead, and resend there at once. *)
              if t.hint <> hint then waiting := false
          | Some _ -> () (* stale reply for an older attempt or seq *)
          | None -> () (* next iteration observes the elapsed deadline *)
      done
    end
  done

(* Blocking single-request API for driver-managed sessions (the 2PC
   coordinator in {!Shard}): issue one payload and drive it to a terminal
   disposition from the calling process. [`Stopped] can only happen when
   the session's [stopped] flag fires mid-request — drivers that must
   finish a protocol (a write is never abandoned) pass a never-true flag
   and quiesce between logical transactions instead. *)
let request t payload =
  t.seq <- t.seq + 1;
  let aborted_before = t.aborted in
  drive t payload;
  if t.completed < t.seq then `Stopped
  else if t.aborted > aborted_before then `Aborted
  else `Ok

let run t () =
  while true do
    if !(t.stopped) then
      (* Passive drain: stop issuing, but a late ack for the in-flight
         request still counts — the cluster may release it after the
         workload stops. *)
      match recv t (50 * Sim.Engine.ms) with
      | Some
          {
            Paxos.Msg.from;
            body =
              Paxos.Msg.Client_rep
                { cid; seq; reply = Paxos.Msg.Ok_released | Paxos.Msg.Ok_read _ };
          }
        when cid = t.cid && seq = t.seq && t.completed < t.seq -> record_ok t ~from
      | Some _ | None -> ()
    else begin
      t.seq <- t.seq + 1;
      drive t (t.gen ())
    end
  done

let create net ~cfg ~cid ?(stopped = ref false) ?stats ?(ro = false) ?prefer
    ?(gen = fun () -> invalid_arg "Client: no generator") () =
  if cid < 0 || cid >= cfg.Config.clients then invalid_arg "Client.spawn: bad cid";
  if ro && not cfg.Config.follower_reads then
    invalid_arg "Client.spawn: read-only sessions need Config.follower_reads";
  let prefer =
    match prefer with
    | Some p ->
        if Array.length p = 0 then invalid_arg "Client.spawn: empty prefer list";
        Array.iter
          (fun r ->
            if r < 0 || r >= Config.pool cfg then
              invalid_arg "Client.spawn: prefer entry outside the pool")
          p;
        p
    | None -> Array.init cfg.Config.replicas Fun.id
  in
  let eng = Sim.Net.engine net in
  let pref_i = cid mod Array.length prefer in
  {
    net;
    cfg;
    cid;
    node = Config.pool cfg + cid;
    rng = Sim.Rng.split (Sim.Engine.rng eng);
    gen;
    stopped;
    stats;
    ro;
    prefer;
    pref_i;
    hint = (if ro then prefer.(pref_i) else cid mod cfg.Config.replicas);
    seq = 0;
    completed = 0;
    t0 = 0;
    acked = [];
    aborted = 0;
    retries = 0;
    redirects = 0;
    busy = 0;
    timeouts = 0;
    parked = 0;
    req_parked_ns = 0;
    req_redirects = 0;
    led_epoch = 0;
    stash = Queue.create ();
    lat = Sim.Metrics.Hist.create ();
  }

let spawn net ~cfg ~cid ?stopped ?stats ?ro ?prefer ~gen () =
  let t = create net ~cfg ~cid ?stopped ?stats ?ro ?prefer ~gen () in
  ignore
    (Sim.Engine.spawn (Sim.Net.engine net)
       ~name:(Printf.sprintf "client-%d" cid)
       (run t));
  t
