type slot = {
  mutable s_epoch : int; (* ballot under which the value was accepted *)
  mutable s_entry : Store.Wire.entry;
  mutable s_acks : int list; (* leader bookkeeping for the current ballot *)
}

type leader_state =
  | Idle
  | Preparing of { mutable promises : int list (* who answered *) }
  | Active

type stats = {
  proposals : int;
  commits : int;
  nacks : int;
  fetches : int;
  truncated : int;
  retransmits : int;
  coalesced : int;
}

let default_fetch_timeout = 100 * Sim.Engine.ms

type t = {
  net : Msg.t Sim.Net.t;
  stream_id : int;
  me : int;
  pool : int; (* replica slots on the net; broadcast bound *)
  mutable view : Member.view; (* voting membership (quorum rule) *)
  mutable mgen : int; (* membership generation of [view] *)
  mutable learners : int list;
  (* Non-voting slots currently catching up: they gate log truncation
     (so their catch-up source survives) but never count in quorums. *)
  slots : (int, slot) Hashtbl.t;
  mutable promised : int;
  mutable commit_idx : int;
  mutable next_idx : int;
  mutable lstate : leader_state;
  mutable leader_epoch : int;
  mutable recovery_target : int; (* leader: last index adopted during Prepare *)
  mutable promise_slots : Msg.accepted_slot list list; (* gathered during Prepare *)
  pending : Store.Wire.entry Queue.t;
  (* Proposal coalescing: while a previous quorum round is still in
     flight, newly proposed entries accumulate here and go out as ONE
     merged entry once the pipeline drains — bursts of small batches then
     pay the fixed per-entry consensus cost once instead of per batch.
     Same-epoch entries only; order (and hence per-stream timestamp
     monotonicity) is preserved. *)
  coalesce_max_bytes : int;
  cbuf : Store.Wire.entry Queue.t;
  mutable cbuf_bytes : int;
  mutable coalesce_ewma : float; (* entries per proposed round, >= 1 *)
  mutable fetch_inflight : bool;
  fetch_timeout : int;
  (* A Fetch or its reply can be lost; retry once the deadline passes and
     another commit advertisement shows we are still behind. *)
  mutable fetch_deadline : int;
  (* Log compaction: slots below [truncated_below] have been discarded.
     The leader may only truncate below the minimum commit index it has
     heard from every peer (piggybacked on Accepted), so any future
     leader's Prepare — which starts at that leader's own commit index —
     never asks for a discarded slot. *)
  mutable truncated_below : int;
  (* Checkpoint-cover floor: a quorum-stable checkpoint covers every slot
     below it, so the leader may truncate up to here even while some peer's
     commit index lags — that peer rebuilds from the checkpoint instead of
     the log (the Raft InstallSnapshot discipline). Monotone. *)
  mutable trunc_floor : int;
  (* Ablation switch: retain every slot forever (--no-truncate). *)
  mutable no_truncate : bool;
  (* Set when a peer's advertised compaction floor proves the slots this
     replica still needs are gone cluster-wide: log catch-up can never
     complete and only a checkpoint rebuild unwedges it. Cleared on any
     commit progress (another donor still held the slots). *)
  mutable trunc_stalled : bool;
  peer_commit : int array;
  on_commit : idx:int -> Store.Wire.entry -> unit;
  on_higher_epoch : int -> unit;
  on_config : Store.Wire.member_change -> unit;
  on_caught_up : unit -> unit;
  mutable s_proposals : int;
  mutable s_commits : int;
  mutable s_nacks : int;
  mutable s_fetches : int;
  mutable s_truncated : int;
  mutable s_retransmits : int;
  mutable s_coalesced : int;
}

let create net ?peers ?view ?(fetch_timeout = default_fetch_timeout)
    ?(coalesce_max_bytes = 1024 * 1024) ~id ~me ~on_commit
    ~on_higher_epoch ?(on_config = fun _ -> ()) ?(on_caught_up = fun () -> ()) () =
  (* [peers] bounds the replica slots: the net may carry extra
     non-replica nodes (client sessions) beyond the first [peers]. *)
  let pool = match peers with Some p -> p | None -> Sim.Net.nodes net in
  {
    net;
    stream_id = id;
    me;
    pool;
    view =
      (match view with
      | Some v -> v
      | None -> Member.stable (List.init pool Fun.id));
    mgen = 0;
    learners = [];
    slots = Hashtbl.create 256;
    promised = 0;
    commit_idx = -1;
    next_idx = 0;
    lstate = Idle;
    leader_epoch = 0;
    recovery_target = -1;
    promise_slots = [];
    pending = Queue.create ();
    coalesce_max_bytes;
    cbuf = Queue.create ();
    cbuf_bytes = 0;
    coalesce_ewma = 1.0;
    fetch_inflight = false;
    fetch_timeout;
    fetch_deadline = 0;
    truncated_below = 0;
    trunc_floor = 0;
    no_truncate = false;
    trunc_stalled = false;
    peer_commit = Array.make pool (-1);
    on_commit;
    on_higher_epoch;
    on_config;
    on_caught_up;
    s_proposals = 0;
    s_commits = 0;
    s_nacks = 0;
    s_fetches = 0;
    s_truncated = 0;
    s_retransmits = 0;
    s_coalesced = 0;
  }


(* Membership views are adopted at *accept* time (the joint-consensus
   discipline), keyed by generation so stale replays are ignored. *)
let set_view t view ~gen =
  if gen > t.mgen then begin
    t.mgen <- gen;
    t.view <- view
  end

let set_learners t l = t.learners <- l

let note_config t (e : Store.Wire.entry) =
  match e.Store.Wire.config with Some c -> t.on_config c | None -> ()

let send t ~dst msg =
  let m = { Msg.from = t.me; body = Msg.Stream { stream = t.stream_id; msg } } in
  Sim.Net.send t.net ~size:(Msg.size m) ~src:t.me ~dst m

(* Broadcast reaches every replica slot: non-voting learners replicate
   the log too (that is how they catch up), they just never count toward
   a quorum. Dead slots drop the message. *)
let broadcast t msg =
  let m = { Msg.from = t.me; body = Msg.Stream { stream = t.stream_id; msg } } in
  for dst = 0 to t.pool - 1 do
    if dst <> t.me then Sim.Net.send t.net ~size:(Msg.size m) ~src:t.me ~dst m
  done

let deliver t idx =
  let slot = Hashtbl.find t.slots idx in
  t.s_commits <- t.s_commits + 1;
  t.trunc_stalled <- false;
  note_config t slot.s_entry;
  t.on_commit ~idx slot.s_entry

(* Discard slots below [upto] as soon as the bound passes them — one
   [Hashtbl.remove] per slot, so there is nothing to gain by batching;
   [upto] must already be committed locally. *)
let truncate_below t upto =
  let upto = min upto (t.commit_idx + 1) in
  if (not t.no_truncate) && upto > t.truncated_below then begin
    for idx = t.truncated_below to upto - 1 do
      if Hashtbl.mem t.slots idx then begin
        Hashtbl.remove t.slots idx;
        t.s_truncated <- t.s_truncated + 1
      end
    done;
    t.truncated_below <- upto
  end

(* Leader: every voter (and we) has committed below this bound — or the
   slots beneath it are covered by a quorum-stable checkpoint
   ([trunc_floor]), in which case a peer that never committed them
   rebuilds from the checkpoint rather than the log. Either way no future
   Prepare that can *complete* starts beneath the bound. Only current
   voters and registered learners gate the bound: a removed member's
   frozen commit index must not pin the log forever, and empty spare
   slots never report at all. *)
let safe_trunc_bound t =
  let bound = ref t.commit_idx in
  let gate peer =
    if peer <> t.me && peer < Array.length t.peer_commit then
      bound := min !bound t.peer_commit.(peer)
  in
  List.iter gate (Member.voters t.view);
  List.iter gate t.learners;
  max 0 (max (!bound + 1) (min t.trunc_floor (t.commit_idx + 1)))

(* EWMA (alpha 1/8) of entries carried per proposed quorum round; the
   batcher's closed loop reads it to amortise the per-entry overhead. *)
let note_round t k =
  t.coalesce_ewma <- (0.875 *. t.coalesce_ewma) +. (0.125 *. float_of_int k)

(* Merge buffered same-epoch entries, oldest first, into one log entry:
   per-stream proposal order is preserved, so the concatenated
   transaction list stays timestamp-monotone and the merged [last_ts] is
   the newest tail — followers and the watermark see exactly what they
   would have seen from the individual entries, minus the per-entry
   consensus rounds. *)
let merge_entries entries =
  match entries with
  | [ e ] -> e
  | e0 :: _ ->
      {
        Store.Wire.epoch = e0.Store.Wire.epoch;
        last_ts =
          List.fold_left (fun acc e -> max acc e.Store.Wire.last_ts) 0 entries;
        txns = List.concat_map (fun e -> e.Store.Wire.txns) entries;
        (* A buffered membership change must survive the merge; keep the
           newest generation (changes are serialized, so at most one is
           ever in flight). *)
        config =
          List.fold_left
            (fun acc e ->
              match (acc, e.Store.Wire.config) with
              | None, c -> c
              | Some a, Some c when c.Store.Wire.m_gen > a.Store.Wire.m_gen ->
                  Some c
              | Some _, _ -> acc)
            None entries;
      }
  | [] -> invalid_arg "Stream.merge_entries: empty"

(* Leader: commit successive slots once a majority has accepted them under
   the current ballot, then tell the followers where commit now stands.
   A drained pipeline also releases the buffered proposals as one merged
   round. *)
let rec try_commit t =
  let rec advance () =
    match t.lstate with
    | Active | Preparing _ -> (
        let idx = t.commit_idx + 1 in
        match Hashtbl.find_opt t.slots idx with
        | Some slot
          when slot.s_epoch = t.leader_epoch && Member.quorum t.view slot.s_acks
          ->
            t.commit_idx <- idx;
            deliver t idx;
            advance ()
        | Some _ | None -> ())
    | Idle -> ()
  in
  let before = t.commit_idx in
  advance ();
  if t.commit_idx > before then begin
    let bound = safe_trunc_bound t in
    truncate_below t bound;
    broadcast t
      (Msg.Commit { epoch = t.leader_epoch; commit_idx = t.commit_idx; trunc_upto = bound });
    if t.lstate = Active && before < t.recovery_target && t.commit_idx >= t.recovery_target
    then t.on_caught_up ()
  end;
  match t.lstate with
  | Active when t.next_idx = t.commit_idx + 1 -> flush_coalesced t
  | Active | Preparing _ | Idle -> ()

and do_propose t entry =
  let idx = t.next_idx in
  t.next_idx <- idx + 1;
  t.s_proposals <- t.s_proposals + 1;
  note_config t entry;
  Hashtbl.replace t.slots idx
    { s_epoch = t.leader_epoch; s_entry = entry; s_acks = [ t.me ] };
  broadcast t
    (Msg.Accept { epoch = t.leader_epoch; idx; commit_idx = t.commit_idx; entry });
  try_commit t

and flush_coalesced t =
  if not (Queue.is_empty t.cbuf) then begin
    let k = Queue.length t.cbuf in
    let entries = List.of_seq (Queue.to_seq t.cbuf) in
    Queue.clear t.cbuf;
    t.cbuf_bytes <- 0;
    if k > 1 then t.s_coalesced <- t.s_coalesced + (k - 1);
    note_round t k;
    do_propose t (merge_entries entries)
  end

(* Follower: advance through slots accepted under ballot [e], up to the
   advertised commit index. A stale or missing slot triggers a fetch from
   the advertiser. *)
let advance_follower t ~e ~upto ~src =
  let continue = ref true in
  while !continue && t.commit_idx < upto do
    match Hashtbl.find_opt t.slots (t.commit_idx + 1) with
    | Some slot when slot.s_epoch = e ->
        t.commit_idx <- t.commit_idx + 1;
        deliver t t.commit_idx
    | Some _ | None -> continue := false
  done;
  if t.commit_idx < upto then begin
    let now = Sim.Engine.now (Sim.Net.engine t.net) in
    if (not t.fetch_inflight) || now >= t.fetch_deadline then begin
      t.fetch_inflight <- true;
      t.fetch_deadline <- now + t.fetch_timeout;
      t.s_fetches <- t.s_fetches + 1;
      send t ~dst:src (Msg.Fetch { from_idx = t.commit_idx + 1 })
    end
  end

let accepted_tail t ~from_idx =
  let acc = ref [] in
  Hashtbl.iter
    (fun idx slot ->
      if idx >= from_idx then
        acc := { Msg.a_idx = idx; a_epoch = slot.s_epoch; a_entry = slot.s_entry } :: !acc)
    t.slots;
  List.sort (fun a b -> compare a.Msg.a_idx b.Msg.a_idx) !acc

let finish_prepare t =
  (* Adopt, per slot, the value accepted under the highest ballot; fill
     interior gaps with no-ops; re-propose everything under our ballot. *)
  let best : (int, Msg.accepted_slot) Hashtbl.t = Hashtbl.create 64 in
  let max_idx = ref t.commit_idx in
  List.iter
    (fun slots ->
      List.iter
        (fun (s : Msg.accepted_slot) ->
          if s.a_idx > !max_idx then max_idx := s.a_idx;
          match Hashtbl.find_opt best s.a_idx with
          | Some cur when cur.Msg.a_epoch >= s.a_epoch -> ()
          | Some _ | None -> Hashtbl.replace best s.a_idx s)
        slots)
    t.promise_slots;
  t.promise_slots <- [];
  t.recovery_target <- !max_idx;
  t.lstate <- Active;
  if !max_idx <= t.commit_idx then t.on_caught_up ();
  for idx = t.commit_idx + 1 to !max_idx do
    let entry =
      match Hashtbl.find_opt best idx with
      | Some s -> s.Msg.a_entry
      | None -> Store.Wire.noop ~epoch:t.leader_epoch ~ts:0
    in
    note_config t entry;
    Hashtbl.replace t.slots idx
      { s_epoch = t.leader_epoch; s_entry = entry; s_acks = [ t.me ] };
    broadcast t
      (Msg.Accept { epoch = t.leader_epoch; idx; commit_idx = t.commit_idx; entry })
  done;
  t.next_idx <- !max_idx + 1;
  try_commit t;
  Queue.iter (fun e -> do_propose t e) t.pending;
  Queue.clear t.pending

let become_leader t ~epoch =
  if epoch < t.promised then invalid_arg "Stream.become_leader: stale epoch";
  t.promised <- epoch;
  t.leader_epoch <- epoch;
  t.fetch_inflight <- false;
  t.promise_slots <- [ accepted_tail t ~from_idx:(t.commit_idx + 1) ];
  let quorum = [ t.me ] in
  t.lstate <- Preparing { promises = quorum };
  if Member.quorum t.view quorum then finish_prepare t
  else broadcast t (Msg.Prepare { epoch; from_idx = t.commit_idx + 1 })

let step_down t =
  t.lstate <- Idle;
  Queue.clear t.pending;
  (* Buffered coalesced proposals were never proposed: like [pending],
     they are speculative work the new leader's recovery cannot see. *)
  Queue.clear t.cbuf;
  t.cbuf_bytes <- 0

let propose t entry =
  match t.lstate with
  | Active ->
      if t.next_idx > t.commit_idx + 1 then begin
        (* A round is in flight: buffer, to go out merged once the
           pipeline drains. An epoch change or the byte cap forces the
           buffer out immediately (still one merged round). *)
        (match Queue.peek_opt t.cbuf with
        | Some e0 when e0.Store.Wire.epoch <> entry.Store.Wire.epoch ->
            flush_coalesced t
        | Some _ | None -> ());
        Queue.add entry t.cbuf;
        t.cbuf_bytes <- t.cbuf_bytes + Store.Wire.byte_size entry;
        if t.cbuf_bytes >= t.coalesce_max_bytes then flush_coalesced t
      end
      else begin
        note_round t 1;
        do_propose t entry
      end
  | Preparing _ -> Queue.add entry t.pending
  | Idle -> () (* not leading: the proposal is speculative and lost *)

(* Leader-side loss recovery, driven from the heartbeat tick. A lost
   Prepare wedges the Preparing phase; a lost Accept leaves a slot short
   of its majority; a lost Commit leaves followers behind. All three are
   idempotent to re-send: receivers dedup promises/acks by sender and
   ignore stale indices. *)
let retransmit t =
  match t.lstate with
  | Idle -> ()
  | Preparing _ ->
      t.s_retransmits <- t.s_retransmits + 1;
      broadcast t (Msg.Prepare { epoch = t.leader_epoch; from_idx = t.commit_idx + 1 })
  | Active ->
      for idx = t.commit_idx + 1 to t.next_idx - 1 do
        match Hashtbl.find_opt t.slots idx with
        | Some slot
          when slot.s_epoch = t.leader_epoch
               && not (Member.quorum t.view slot.s_acks) ->
            t.s_retransmits <- t.s_retransmits + 1;
            broadcast t
              (Msg.Accept
                 { epoch = t.leader_epoch; idx; commit_idx = t.commit_idx; entry = slot.s_entry })
        | Some _ | None -> ()
      done;
      if t.commit_idx >= 0 then
        broadcast t
          (Msg.Commit
             { epoch = t.leader_epoch; commit_idx = t.commit_idx; trunc_upto = t.truncated_below })

(* Bootstrap path: install one already-chosen entry at [idx], as if it
   had been learned through the protocol — [on_commit] fires, so the
   watermark/replay machinery sees exactly the durable history a surviving
   replica saw. Only valid on a non-leading (fresh) stream, fed in
   stream order from a donor's journal. *)
let inject_committed_at t ~idx (entry : Store.Wire.entry) =
  if t.lstate <> Idle then invalid_arg "Stream.inject_committed_at: stream is leading";
  if idx <= t.commit_idx then
    invalid_arg "Stream.inject_committed_at: index already committed";
  (* A gap below [idx] means the donor truncated those slots under a
     checkpoint cover; this replica installs the checkpoint image instead,
     so record the same compaction floor rather than fake slots. *)
  if idx > t.commit_idx + 1 then begin
    t.commit_idx <- idx - 1;
    if t.truncated_below < idx then t.truncated_below <- idx
  end;
  Hashtbl.replace t.slots idx
    { s_epoch = entry.Store.Wire.epoch; s_entry = entry; s_acks = [] };
  t.commit_idx <- idx;
  if t.next_idx <= idx then t.next_idx <- idx + 1;
  if entry.Store.Wire.epoch > t.promised then t.promised <- entry.Store.Wire.epoch;
  deliver t idx

(* Checkpoint bootstrap: slots below [idx] are committed cluster-wide and
   reflected in the checkpoint image this replica just installed, but
   absent from every donor's log. Record them as this replica's compaction
   floor so tail injection and ordinary catch-up start at [idx] instead of
   fetching slots that no longer exist anywhere. *)
let set_bootstrap_floor t ~idx =
  if t.lstate <> Idle then
    invalid_arg "Stream.set_bootstrap_floor: stream is leading";
  if idx > t.commit_idx + 1 then begin
    t.commit_idx <- idx - 1;
    if t.next_idx <= t.commit_idx then t.next_idx <- idx;
    if t.truncated_below < idx then t.truncated_below <- idx
  end

(* Salvage path for a *voluntary* rebuild of an alive replica: its Paxos
   state is sound even when its database is tainted, and its accepted-but-
   uncommitted slots may hold the last copy of an entry committed at a
   since-dead leader. Export them from the old stream and graft them onto
   the freshly bootstrapped one. *)
type tail = int * Msg.accepted_slot list

let export_tail t = (t.promised, accepted_tail t ~from_idx:(t.commit_idx + 1))

let import_tail t (promised, slots) =
  if t.lstate <> Idle then invalid_arg "Stream.import_tail: stream is leading";
  if promised > t.promised then t.promised <- promised;
  List.iter
    (fun (s : Msg.accepted_slot) ->
      if s.a_idx > t.commit_idx then (
        match Hashtbl.find_opt t.slots s.a_idx with
        | Some slot when slot.s_epoch >= s.a_epoch -> ()
        | Some slot ->
            slot.s_epoch <- s.a_epoch;
            slot.s_entry <- s.a_entry;
            slot.s_acks <- [];
            note_config t s.a_entry
        | None ->
            Hashtbl.replace t.slots s.a_idx
              { s_epoch = s.a_epoch; s_entry = s.a_entry; s_acks = [] };
            note_config t s.a_entry;
            if t.next_idx <= s.a_idx then t.next_idx <- s.a_idx + 1))
    slots

let handle t msg ~from =
  match msg with
  | Msg.Prepare { epoch; from_idx } ->
      if epoch >= t.promised then begin
        t.promised <- epoch;
        if t.lstate <> Idle && epoch > t.leader_epoch then step_down t;
        send t ~dst:from
          (Msg.Promise
             {
               epoch;
               commit_idx = t.commit_idx;
               truncated_below = t.truncated_below;
               accepted = accepted_tail t ~from_idx;
             })
      end
      else begin
        t.s_nacks <- t.s_nacks + 1;
        send t ~dst:from (Msg.Nack { epoch = t.promised })
      end
  | Msg.Promise { epoch; accepted; truncated_below; commit_idx = _ } -> (
      match t.lstate with
      | Preparing p when epoch = t.leader_epoch ->
          if truncated_below > t.commit_idx + 1 then begin
            (* The promiser compacted slots we never committed: they are
               checkpoint-covered and gone from the log, so completing
               Prepare here would fill committed indices with no-ops.
               Abdicate and wait for a checkpoint rebuild. *)
            t.trunc_stalled <- true;
            step_down t
          end
          else if not (List.mem from p.promises) then begin
            p.promises <- from :: p.promises;
            t.promise_slots <- accepted :: t.promise_slots;
            if Member.quorum t.view p.promises then finish_prepare t
          end
      | Preparing _ | Active | Idle -> ())
  | Msg.Accept { epoch; idx; commit_idx; entry } ->
      if epoch >= t.promised then begin
        t.promised <- epoch;
        if t.lstate <> Idle && epoch > t.leader_epoch then begin
          step_down t;
          t.on_higher_epoch epoch
        end;
        (if idx > t.commit_idx then
           match Hashtbl.find_opt t.slots idx with
           | Some slot when slot.s_epoch > epoch -> ()
           | Some slot ->
               slot.s_epoch <- epoch;
               slot.s_entry <- entry;
               slot.s_acks <- [];
               note_config t entry
           | None ->
               Hashtbl.replace t.slots idx { s_epoch = epoch; s_entry = entry; s_acks = [] };
               note_config t entry);
        advance_follower t ~e:epoch ~upto:commit_idx ~src:from;
        send t ~dst:from (Msg.Accepted { epoch; idx; commit_idx = t.commit_idx })
      end
      else begin
        t.s_nacks <- t.s_nacks + 1;
        send t ~dst:from (Msg.Nack { epoch = t.promised })
      end
  | Msg.Accepted { epoch; idx; commit_idx } -> (
      if commit_idx > t.peer_commit.(from) then t.peer_commit.(from) <- commit_idx;
      match t.lstate with
      | (Active | Preparing _) when epoch = t.leader_epoch -> (
          match Hashtbl.find_opt t.slots idx with
          | Some slot when slot.s_epoch = epoch ->
              if not (List.mem from slot.s_acks) then
                slot.s_acks <- from :: slot.s_acks;
              try_commit t
          | Some _ | None -> ())
      | Active | Preparing _ | Idle -> ())
  | Msg.Commit { epoch; commit_idx; trunc_upto } ->
      if epoch >= t.promised then begin
        t.promised <- epoch;
        advance_follower t ~e:epoch ~upto:commit_idx ~src:from;
        truncate_below t trunc_upto
      end
  | Msg.Fetch { from_idx } ->
      let entries =
        List.filter (fun (s : Msg.accepted_slot) -> s.a_idx <= t.commit_idx)
          (accepted_tail t ~from_idx)
      in
      send t ~dst:from
        (Msg.Fetch_rep
           { commit_idx = t.commit_idx; truncated_below = t.truncated_below; entries })
  | Msg.Fetch_rep { commit_idx; truncated_below; entries } ->
      t.fetch_inflight <- false;
      List.iter
        (fun (s : Msg.accepted_slot) ->
          if s.a_idx > t.commit_idx then
            match Hashtbl.find_opt t.slots s.a_idx with
            | Some slot when slot.s_epoch > s.a_epoch -> ()
            | Some slot ->
                slot.s_epoch <- s.a_epoch;
                slot.s_entry <- s.a_entry;
                slot.s_acks <- [];
                note_config t s.a_entry
            | None ->
                Hashtbl.replace t.slots s.a_idx
                  { s_epoch = s.a_epoch; s_entry = s.a_entry; s_acks = [] };
                note_config t s.a_entry)
        entries;
      (* The reply's slots were committed at the donor: advance through
         them in order, but only through slots it carried. A slot we hold
         that the donor compacted away may be a deposed leader's stale
         accept, never chosen — committing it would break agreement. *)
      List.iter
        (fun (s : Msg.accepted_slot) ->
          if s.a_idx = t.commit_idx + 1 then begin
            t.commit_idx <- s.a_idx;
            deliver t s.a_idx
          end)
        entries;
      (* The donor is ahead yet compacted the very slot we need next: the
         gap can never be filled from the log. Flag for a checkpoint
         rebuild instead of refetching forever. *)
      if t.commit_idx < commit_idx && truncated_below > t.commit_idx + 1 then
        t.trunc_stalled <- true
  | Msg.Nack { epoch } ->
      if epoch > t.promised then begin
        t.promised <- epoch;
        if t.lstate <> Idle then step_down t;
        t.on_higher_epoch epoch
      end

let is_caught_up t = t.lstate = Active && t.commit_idx >= t.recovery_target
let commit_index t = t.commit_idx
let next_index t = t.next_idx

let retained_slots t = Hashtbl.length t.slots
let truncated_below t = t.truncated_below

let set_trunc_floor t idx = if idx > t.trunc_floor then t.trunc_floor <- idx
let trunc_floor t = t.trunc_floor
let set_no_truncate t b = t.no_truncate <- b
let trunc_stalled t = t.trunc_stalled
let coalesce_factor t = Float.max 1.0 t.coalesce_ewma

let stats t =
  {
    proposals = t.s_proposals;
    commits = t.s_commits;
    nacks = t.s_nacks;
    fetches = t.s_fetches;
    truncated = t.s_truncated;
    retransmits = t.s_retransmits;
    coalesced = t.s_coalesced;
  }
