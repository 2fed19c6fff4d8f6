type stage =
  | Execute
  | Serialize
  | Batch_submit
  | Replicate_durable
  | Under_watermark
  | Release
  | Replay
  | Redirect
  | Busy
  | Cached
  | Deadline_flush
  | Replay_lag
  | Client_park
  | Client_redirect
  | Read_serve
  | Read_staleness

let all_stages =
  [
    Execute;
    Serialize;
    Batch_submit;
    Replicate_durable;
    Under_watermark;
    Release;
    Replay;
    Redirect;
    Busy;
    Cached;
    Deadline_flush;
    Replay_lag;
    Client_park;
    Client_redirect;
    Read_serve;
    Read_staleness;
  ]

let stage_index = function
  | Execute -> 0
  | Serialize -> 1
  | Batch_submit -> 2
  | Replicate_durable -> 3
  | Under_watermark -> 4
  | Release -> 5
  | Replay -> 6
  | Redirect -> 7
  | Busy -> 8
  | Cached -> 9
  | Deadline_flush -> 10
  | Replay_lag -> 11
  | Client_park -> 12
  | Client_redirect -> 13
  | Read_serve -> 14
  | Read_staleness -> 15

let stage_name = function
  | Execute -> "execute"
  | Serialize -> "serialize"
  | Batch_submit -> "batch_submit"
  | Replicate_durable -> "replicate_durable"
  | Under_watermark -> "under_watermark"
  | Release -> "release"
  | Replay -> "replay"
  | Redirect -> "redirect"
  | Busy -> "busy"
  | Cached -> "cached"
  | Deadline_flush -> "deadline_flush"
  | Replay_lag -> "replay_lag"
  | Client_park -> "client_park"
  | Client_redirect -> "client_redirect"
  | Read_serve -> "read_serve"
  | Read_staleness -> "read_staleness"

type span = {
  sp_ts : int;
  sp_worker : int;
  sp_stage : stage;
  sp_start : int;
  sp_end : int;
  sp_dropped : bool;
}

(* Bounded ring: overwrites the oldest span once full, so a long run
   keeps the most recent [capacity] samples per worker. *)
module Ring = struct
  type 'a t = { buf : 'a option array; mutable pushed : int }

  let create capacity = { buf = Array.make capacity None; pushed = 0 }

  let push t x =
    t.buf.(t.pushed mod Array.length t.buf) <- Some x;
    t.pushed <- t.pushed + 1

  let to_list t =
    let cap = Array.length t.buf in
    let len = min t.pushed cap in
    let first = t.pushed - len in
    List.init len (fun i -> Option.get t.buf.((first + i) mod cap))
end

(* Timestamps of one in-flight sampled transaction; 0 = not reached. *)
type token = {
  tk_worker : int;
  tk_ts : int;
  tk_exec_start : int;
  tk_commit : int;
  mutable tk_serialized : int;
  mutable tk_flushed : int;
  mutable tk_durable : int;
}

type t = {
  eng : Sim.Engine.t;
  stats : Stats.t;
  interval : int;
  workers : int;
  rings : span Ring.t array; (* workers + 1; last = replay/dispositions *)
  exec_counters : int array; (* per worker *)
  mutable replay_counter : int;
  mutable disp_counter : int;
  pending : (int, token) Hashtbl.t; (* ts -> token *)
}

let create eng ~stats ~workers ~sample_interval ~capacity =
  if sample_interval < 0 then invalid_arg "Trace.create: negative sample_interval";
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  if workers < 1 then invalid_arg "Trace.create: need at least one worker";
  {
    eng;
    stats;
    interval = sample_interval;
    workers;
    rings = Array.init (workers + 1) (fun _ -> Ring.create capacity);
    exec_counters = Array.make workers 0;
    replay_counter = 0;
    disp_counter = 0;
    pending = Hashtbl.create 256;
  }

let enabled t = t.interval > 0
let has_pending t = Hashtbl.length t.pending > 0
let pending_count t = Hashtbl.length t.pending

let ring_of_worker t w = if w >= 0 && w < t.workers then t.rings.(w) else t.rings.(t.workers)

(* ---- leader pipeline ---- *)

let sample t ~worker ~ts ~exec_start =
  if t.interval = 0 then None
  else begin
    let w = if worker >= 0 && worker < t.workers then worker else t.workers - 1 in
    let n = t.exec_counters.(w) in
    t.exec_counters.(w) <- n + 1;
    if n mod t.interval <> 0 then None
    else begin
      let tok =
        {
          tk_worker = worker;
          tk_ts = ts;
          tk_exec_start = exec_start;
          tk_commit = Sim.Engine.now t.eng;
          tk_serialized = 0;
          tk_flushed = 0;
          tk_durable = 0;
        }
      in
      Hashtbl.replace t.pending ts tok;
      Some tok
    end
  end

let note_serialized t tok = if tok.tk_serialized = 0 then tok.tk_serialized <- Sim.Engine.now t.eng

let note_flushed t ~ts =
  match Hashtbl.find_opt t.pending ts with
  | Some tok when tok.tk_flushed = 0 -> tok.tk_flushed <- Sim.Engine.now t.eng
  | Some _ | None -> ()

let note_durable t ~ts =
  match Hashtbl.find_opt t.pending ts with
  | Some tok when tok.tk_durable = 0 -> tok.tk_durable <- Sim.Engine.now t.eng
  | Some _ | None -> ()

(* Emit one stage span. Boundaries stamped out of order (a flush can
   precede the submitting worker's serialization charge when the
   submitted transaction itself filled the batch) clamp to zero width. *)
let push_span t tok ~stage ~t0 ~t1 ~dropped =
  let ring = ring_of_worker t tok.tk_worker in
  let t1 = max t0 t1 in
  Ring.push ring
    {
      sp_ts = tok.tk_ts;
      sp_worker = tok.tk_worker;
      sp_stage = stage;
      sp_start = t0;
      sp_end = t1;
      sp_dropped = dropped;
    };
  if not dropped then
    Stats.note_stage t.stats ~stage:(stage_index stage) ~latency:(t1 - t0)

(* The transaction's completed stage boundaries, in pipeline order. *)
let boundaries tok =
  [
    (Execute, tok.tk_exec_start, tok.tk_commit);
    (Serialize, tok.tk_commit, tok.tk_serialized);
    (Batch_submit, tok.tk_serialized, tok.tk_flushed);
    (Replicate_durable, tok.tk_flushed, tok.tk_durable);
  ]

let emit t tok ~released ~at =
  let rec go last = function
    | [] -> last
    | (stage, t0, t1) :: rest ->
        if t1 = 0 then begin
          (* Stage in progress at drop time: truncate it there. *)
          push_span t tok ~stage ~t0:(max last t0) ~t1:at ~dropped:true;
          at
        end
        else begin
          push_span t tok ~stage ~t0 ~t1 ~dropped:(not released);
          go t1 rest
        end
  in
  let last = go tok.tk_exec_start (boundaries tok) in
  if released then begin
    push_span t tok ~stage:Under_watermark ~t0:last ~t1:at ~dropped:false;
    push_span t tok ~stage:Release ~t0:tok.tk_exec_start ~t1:at ~dropped:false
  end
  else if last < at then
    (* Durable but never released: the drop cut it under the watermark. *)
    push_span t tok ~stage:Under_watermark ~t0:last ~t1:at ~dropped:true

let note_released t tok =
  emit t tok ~released:true ~at:(Sim.Engine.now t.eng);
  Hashtbl.remove t.pending tok.tk_ts

let drop_all t =
  if has_pending t then begin
    let at = Sim.Engine.now t.eng in
    let toks = Hashtbl.fold (fun _ tok acc -> tok :: acc) t.pending [] in
    (* Hashtbl.fold order is unspecified; keep the rings deterministic. *)
    let toks = List.sort (fun a b -> compare a.tk_ts b.tk_ts) toks in
    List.iter (fun tok -> emit t tok ~released:false ~at) toks;
    Hashtbl.reset t.pending
  end

(* ---- follower / dispatcher ---- *)

let sample_replay t =
  if t.interval = 0 then false
  else begin
    let n = t.replay_counter in
    t.replay_counter <- n + 1;
    n mod t.interval = 0
  end

let note_replay t ~ts ~start ~stop =
  Ring.push t.rings.(t.workers)
    {
      sp_ts = ts;
      sp_worker = -1;
      sp_stage = Replay;
      sp_start = start;
      sp_end = max start stop;
      sp_dropped = false;
    };
  Stats.note_stage t.stats ~stage:(stage_index Replay) ~latency:(max 0 (stop - start))

(* Follower lag: one sample per applied entry. The span runs from the
   replica's replayed frontier to the durable frontier — both live on the
   transaction-timestamp axis, which rides virtual time — so its width IS
   the lag. The histogram takes every sample (entries are ~batch_size
   rarer than transactions); the ring keeps them subject to its bound. *)
let note_replay_lag t ~frontier ~durable =
  let durable = max frontier durable in
  if enabled t then
    Ring.push t.rings.(t.workers)
      {
        sp_ts = durable;
        sp_worker = -1;
        sp_stage = Replay_lag;
        sp_start = frontier;
        sp_end = durable;
        sp_dropped = false;
      };
  (* The stage histogram feeds [Cluster.stage_summary] and the bench-diff lag
     gate — record it even with tracing disabled, like the other stage
     stats; only the ring sample is tied to sampling. *)
  Stats.note_stage t.stats ~stage:(stage_index Replay_lag)
    ~latency:(durable - frontier)

(* Snapshot-read service: [Read_serve] is dequeue-to-reply latency of one
   served read, [Read_staleness] the gap between the replica's durable
   frontier and the snapshot pin it served at (both on the
   transaction-timestamp axis, like replay lag). Histograms take every
   serve — they feed the [reads:] diagnostics and the bench staleness
   metric — while the ring sample follows disposition sampling. *)
let note_read_serve t ~start ~stop ~staleness =
  Stats.note_stage t.stats ~stage:(stage_index Read_serve)
    ~latency:(max 0 (stop - start));
  Stats.note_stage t.stats ~stage:(stage_index Read_staleness)
    ~latency:(max 0 staleness);
  if t.interval > 0 then begin
    let n = t.disp_counter in
    t.disp_counter <- n + 1;
    if n mod t.interval = 0 then
      Ring.push t.rings.(t.workers)
        {
          sp_ts = 0;
          sp_worker = -1;
          sp_stage = Read_serve;
          sp_start = start;
          sp_end = max start stop;
          sp_dropped = false;
        }
  end

(* The count is bumped before, and independently of, the sampling
   decision: a disposition counter must read the same with tracing off. *)
let note_disposition t ?count stage =
  Option.iter (fun c -> Stats.add t.stats c 1) count;
  if t.interval > 0 then begin
    let n = t.disp_counter in
    t.disp_counter <- n + 1;
    if n mod t.interval = 0 then begin
      let now = Sim.Engine.now t.eng in
      Ring.push t.rings.(t.workers)
        {
          sp_ts = 0;
          sp_worker = -1;
          sp_stage = stage;
          sp_start = now;
          sp_end = now;
          sp_dropped = false;
        }
    end
  end

let spans t = List.concat_map Ring.to_list (Array.to_list t.rings)
