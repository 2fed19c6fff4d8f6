let src = Logs.Src.create "paxos.election" ~doc:"Leader election events"

module Log = (val Logs.src_log src : Logs.LOG)

type role = Leader | Follower | Candidate

type t = {
  net : Msg.t Sim.Net.t;
  me : int;
  pool : int; (* broadcast bound: every replica slot, voter or not *)
  mutable view : Member.view;
  mutable mgen : int; (* membership generation of [view] *)
  hb_interval : int;
  base_timeout : int;
  rng : Sim.Rng.t;
  mutable role : role;
  mutable cur_epoch : int;
  mutable voted_epoch : int;
  mutable voted_for : int option; (* who we voted for in voted_epoch *)
  mutable eligible : bool; (* may stand for election (false once tainted) *)
  mutable votes : int list;
  mutable last_heartbeat : int;
  mutable leader : int option;
  mutable my_timeout : int;
  mutable failed_candidacies : int;
      (* consecutive candidacies without hearing a winner: drives capped
         exponential backoff so repeated split votes converge *)
  on_leader_elected : epoch:int -> unit;
  on_new_epoch : epoch:int -> leader:int option -> unit;
  on_heartbeat_tick : unit -> unit;
}

let create net ~me ?peers ?view ?(heartbeat_interval = 100 * Sim.Engine.ms)
    ?(election_timeout = Sim.Engine.s) ?initial_leader ~on_leader_elected ~on_new_epoch
    ?(on_heartbeat_tick = fun () -> ()) () =
  let eng = Sim.Net.engine net in
  (* [peers] bounds the replica slots: the net may carry extra
     non-replica nodes (client sessions) beyond the first [peers]. *)
  let pool = match peers with Some p -> p | None -> Sim.Net.nodes net in
  let t =
    {
      net;
      me;
      pool;
      view =
        (match view with
        | Some v -> v
        | None -> Member.stable (List.init pool Fun.id));
      mgen = 0;
      hb_interval = heartbeat_interval;
      base_timeout = election_timeout;
      rng = Sim.Rng.split (Sim.Engine.rng eng);
      role = Follower;
      cur_epoch = 0;
      voted_epoch = 0;
      voted_for = None;
      eligible = true;
      votes = [];
      last_heartbeat = Sim.Engine.now eng;
      leader = None;
      my_timeout = election_timeout;
      failed_candidacies = 0;
      on_leader_elected;
      on_new_epoch;
      on_heartbeat_tick;
    }
  in
  (match initial_leader with
  | Some l ->
      t.cur_epoch <- 1;
      t.voted_epoch <- 1;
      t.voted_for <- Some l;
      t.leader <- Some l;
      if l = me then t.role <- Leader
  | None -> ());
  t

let send t ~dst body = Sim.Net.send t.net ~src:t.me ~dst { Msg.from = t.me; body }

(* Broadcast reaches every replica slot, not just voters: non-voting
   learners must see heartbeats (to track the leader) and a removed
   member must learn it was deposed. Dead slots drop the message. *)
let broadcast t body =
  for dst = 0 to t.pool - 1 do
    if dst <> t.me then send t ~dst body
  done

(* Step down into epoch [e]; [leader] may still be unknown. *)
let adopt t e leader =
  t.cur_epoch <- e;
  t.role <- Follower;
  t.leader <- leader;
  t.votes <- [];
  t.voted_for <- None;
  t.on_new_epoch ~epoch:e ~leader

(* Backoff multiplier is capped so a healed cluster still elects within a
   small constant of the base timeout. *)
let backoff_cap = 2

let randomize_timeout t =
  let mult = 1 lsl min t.failed_candidacies backoff_cap in
  t.my_timeout <- (t.base_timeout * mult) + Sim.Rng.int t.rng (t.base_timeout / 2)

let become_leader t =
  Log.debug (fun m -> m "replica %d becomes leader of epoch %d" t.me t.cur_epoch);
  t.role <- Leader;
  t.failed_candidacies <- 0;
  t.leader <- Some t.me;
  t.on_leader_elected ~epoch:t.cur_epoch;
  broadcast t (Msg.Elect (Msg.Heartbeat { epoch = t.cur_epoch; leader = t.me }))

let start_election t =
  let e = t.cur_epoch + 1 in
  Log.debug (fun m -> m "replica %d starts election for epoch %d" t.me e);
  t.cur_epoch <- e;
  t.role <- Candidate;
  t.voted_epoch <- e;
  t.voted_for <- Some t.me;
  t.votes <- [ t.me ];
  t.leader <- None;
  t.last_heartbeat <- Sim.Engine.now (Sim.Net.engine t.net);
  t.failed_candidacies <- t.failed_candidacies + 1;
  randomize_timeout t;
  t.on_new_epoch ~epoch:e ~leader:None;
  if Member.quorum t.view [ t.me ] then become_leader t
  else broadcast t (Msg.Elect (Msg.Request_vote { epoch = e; candidate = t.me }))

let handle t msg ~from =
  let now = Sim.Engine.now (Sim.Net.engine t.net) in
  match msg with
  | Msg.Request_vote { epoch = e; candidate } ->
      if e > t.cur_epoch then adopt t e None;
      if e < t.cur_epoch then
        (* Stale candidate (e.g. freshly restarted): answering with our
           epoch lets it adopt instead of churning through elections. *)
        send t ~dst:candidate
          (Msg.Elect (Msg.Vote { epoch = t.cur_epoch; granted = false }))
      else if
        t.voted_epoch < e || (t.voted_epoch = e && t.voted_for = Some candidate)
      then begin
        (* Re-granting a duplicate request is safe and tolerates a lost
           Vote: the candidate retries, we answer again. *)
        t.voted_epoch <- e;
        t.voted_for <- Some candidate;
        t.last_heartbeat <- now;
        send t ~dst:candidate (Msg.Elect (Msg.Vote { epoch = e; granted = true }))
      end
      else send t ~dst:candidate (Msg.Elect (Msg.Vote { epoch = e; granted = false }))
  | Msg.Vote { epoch = e; granted } ->
      if e > t.cur_epoch then adopt t e None
      else if t.role = Candidate && e = t.cur_epoch && granted then begin
        if not (List.mem from t.votes) then t.votes <- from :: t.votes;
        (* Joint-consensus rule: during a C_old,new transition the vote
           set must hold a majority of both configurations (and grants
           from non-voting learners never count). *)
        if Member.quorum t.view t.votes then become_leader t
      end
  | Msg.Heartbeat { epoch = e; leader } ->
      if e > t.cur_epoch then begin
        adopt t e (Some leader);
        t.last_heartbeat <- now;
        if t.failed_candidacies > 0 then begin
          t.failed_candidacies <- 0;
          randomize_timeout t
        end
      end
      else if e = t.cur_epoch && leader <> t.me then begin
        t.role <- Follower;
        if t.leader <> Some leader then begin
          t.leader <- Some leader;
          t.on_new_epoch ~epoch:e ~leader:(Some leader)
        end;
        t.last_heartbeat <- now;
        if t.failed_candidacies > 0 then begin
          t.failed_candidacies <- 0;
          randomize_timeout t
        end
      end
  | Msg.Timeout_now { epoch = e } ->
      (* Planned handoff: the draining leader grants immediate candidacy.
         Stand right away (no timeout wait) — but only if we may lead at
         all, and only if the grant isn't stale. *)
      if
        e >= t.cur_epoch && t.role <> Leader && t.eligible
        && Member.mem t.view t.me
      then begin
        if e > t.cur_epoch then adopt t e None;
        start_election t
      end

let observe_epoch t e = if e > t.cur_epoch then adopt t e None

let start t =
  let eng = Sim.Net.engine t.net in
  Sim.Engine.spawn eng ~name:(Printf.sprintf "election-%d" t.me) (fun () ->
      randomize_timeout t;
      t.last_heartbeat <- Sim.Engine.now eng;
      if t.role = Leader then t.on_leader_elected ~epoch:t.cur_epoch;
      let stands () = t.role <> Leader && t.eligible && Member.mem t.view t.me in
      while true do
        if t.role = Leader then begin
          broadcast t (Msg.Elect (Msg.Heartbeat { epoch = t.cur_epoch; leader = t.me }));
          t.on_heartbeat_tick ()
        end
        else if stands () && Sim.Engine.time () - t.last_heartbeat > t.my_timeout then
          start_election t;
        (* A follower that may stand wakes at its own timer's deadline
           (the first instant the check above passes), not on the next
           tick: every replica's tick has the same phase, so survivors
           whose timeouts fall in one tick interval would otherwise stand
           together and split the vote. Everyone else — leader, learner,
           ineligible replica — keeps the tick, never a past deadline. *)
        let deadline = t.last_heartbeat + t.my_timeout + 1 in
        Sim.Engine.sleep
          (if stands () then min t.hb_interval (deadline - Sim.Engine.time ())
           else t.hb_interval)
      done)

type vote = { v_epoch : int; v_voted_epoch : int; v_voted_for : int option }

let export_vote t =
  { v_epoch = t.cur_epoch; v_voted_epoch = t.voted_epoch; v_voted_for = t.voted_for }

(* Voluntary-rebuild salvage: carrying the vote across the rebuild keeps
   the replica from granting a second vote in an epoch it already voted
   in. Fields are set directly — the replica is mid-bootstrap and the
   step-down callbacks must not fire. *)
let import_vote t v =
  if v.v_epoch > t.cur_epoch then t.cur_epoch <- v.v_epoch;
  if v.v_voted_epoch > t.voted_epoch then begin
    t.voted_epoch <- v.v_voted_epoch;
    t.voted_for <- v.v_voted_for
  end

(* Adopt a membership view, keyed by its generation so replays of older
   config entries are ignored. Candidacy backoff is reset — the old
   split-vote history says nothing about the new configuration — but
   vote state ([voted_epoch]/[voted_for]) is deliberately left alone:
   clearing it here would let a removed-then-readded replica grant a
   second vote in a ballot it already voted in, electing two leaders. *)
let set_view t view ~gen =
  if gen > t.mgen then begin
    t.mgen <- gen;
    t.view <- view;
    if t.failed_candidacies > 0 then begin
      t.failed_candidacies <- 0;
      randomize_timeout t
    end
  end

let view t = t.view
let mgen t = t.mgen
let failed_candidacies t = t.failed_candidacies
(* A leader made ineligible (a tainted ex-leader: it stopped serving on
   losing its quorum) also gives up the role. Still heartbeating, it
   would keep every follower from timing out, and since it can never
   serve again the group would have no leader until someone rebuilt it. *)
let set_eligible t b =
  t.eligible <- b;
  if (not b) && t.role = Leader then begin
    Log.debug (fun m -> m "replica %d resigns epoch %d (ineligible)" t.me t.cur_epoch);
    t.role <- Follower;
    t.leader <- None;
    t.on_new_epoch ~epoch:t.cur_epoch ~leader:None
  end

let eligible t = t.eligible
let role t = t.role
let is_leader t = t.role = Leader
let epoch t = t.cur_epoch
let leader_id t = t.leader
let heartbeat_interval t = t.hb_interval
