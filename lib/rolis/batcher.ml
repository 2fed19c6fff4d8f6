(* Fixed replication-layer cost per log entry (message handling,
   interrupts), amortised over the batch: what makes small batches slow
   in the Fig. 16 sweep. *)
let entry_overhead_ns = 200_000

(* Critical-section cost of appending to a shared stream: the strawman's
   bottleneck (68.7% CPU at 30 threads, §2.2). *)
let enqueue_cs_ns = 1_200

type t = {
  cfg : Config.t;
  eng : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  stats : Stats.t;
  trace : Trace.t;
  epoch : unit -> int;
  propose : Store.Wire.entry -> unit;
  mutex : Sim.Sync.Mutex.t option;
  (* Closed-loop feedback from the replication layer: average number of
     flushed entries the stream coalesces into one quorum round (>= 1),
     folded into the per-transaction amortization of [entry_overhead_ns]. *)
  coalesce_factor : unit -> float;
  mutable txns : Store.Wire.txn_log list; (* reverse order *)
  mutable count : int;
  mutable bytes : int;
  (* Smoothed inter-arrival gap (EWMA over virtual time, alpha = 1/8;
     0 = fewer than two submits seen) and the batch-size target derived
     from it. *)
  mutable last_arrival : int;
  mutable iat_ewma : int;
  mutable target : int;
  (* The pending batch's deadline flush; any flush (full, byte-cap,
     heartbeat) or [clear] cancels it. *)
  mutable deadline : Sim.Engine.timer option;
}

let create cfg ?(coalesce_factor = fun () -> 1.0) ~cpu ~stats ~trace ~epoch
    ~propose ~shared () =
  let eng = Sim.Cpu.engine_of cpu in
  {
    cfg;
    eng;
    cpu;
    stats;
    trace;
    epoch;
    propose;
    mutex = (if shared then Some (Sim.Sync.Mutex.create eng) else None);
    coalesce_factor;
    txns = [];
    count = 0;
    bytes = 0;
    last_arrival = 0;
    iat_ewma = 0;
    target = 1;
    deadline = None;
  }

let pending t = t.count

let cancel_deadline t =
  match t.deadline with
  | Some tm ->
      Sim.Engine.cancel t.eng tm;
      t.deadline <- None
  | None -> ()

(* Build and propose the pending batch. Atomic: no yields, so no
   transaction can slip in between this flush and a subsequent no-op.
   Also safe from an [Engine.schedule] thunk (the deadline event): the
   whole path down through [propose] and the network send only schedules
   future events, never suspends. *)
let flush t =
  if t.count > 0 then begin
    cancel_deadline t;
    if Trace.has_pending t.trace then
      List.iter
        (fun (txn : Store.Wire.txn_log) ->
          Trace.note_flushed t.trace ~ts:txn.Store.Wire.ts)
        t.txns;
    let entry = Store.Wire.make_entry ~epoch:(t.epoch ()) (List.rev t.txns) in
    t.txns <- [];
    t.count <- 0;
    t.bytes <- 0;
    Stats.add t.stats Stats.Entries_flushed 1;
    t.propose entry
  end

(* The deadline event: flush whatever the batch holds once the oldest
   pending transaction has waited [target_batch_delay_ns]. Every
   non-empty batch has one, so no batch outlives the budget whatever the
   stream's rate. *)
let schedule_deadline t ~now =
  t.deadline <-
    Some
      (Sim.Engine.schedule_timer t.eng
         (now + t.cfg.Config.target_batch_delay_ns)
         (fun () ->
           Trace.note_disposition t.trace ~count:Stats.Deadline_flushes
             Trace.Deadline_flush;
           flush t))

(* Sizing: expected arrivals inside the delay budget, clamped to
   [1, batch_size]. With no rate estimate yet (fewer than two submits
   observed) the target stays at 1 — latency-first until the stream shows
   a rate worth batching for. *)
let retarget t =
  if t.iat_ewma > 0 then
    t.target <-
      max 1
        (min t.cfg.Config.batch_size
           (t.cfg.Config.target_batch_delay_ns / t.iat_ewma))

let submit t txn =
  let now = Sim.Engine.now t.eng in
  if t.count = 0 then schedule_deadline t ~now;
  if t.last_arrival > 0 then begin
    let gap = now - t.last_arrival in
    t.iat_ewma <- (if t.iat_ewma = 0 then gap else ((7 * t.iat_ewma) + gap) / 8);
    retarget t
  end;
  t.last_arrival <- now;
  t.txns <- txn :: t.txns;
  t.count <- t.count + 1;
  t.bytes <- t.bytes + Store.Wire.txn_byte_size txn;
  if
    t.count >= t.cfg.Config.batch_size
    || t.count >= t.target
    || t.bytes >= t.cfg.Config.max_batch_bytes
  then flush t

let charge_submit_cost t ~bytes =
  (* Serialization (building the log entry) plus the replication layer's
     copy of it into the stream's log list + consensus CPU (Fig. 18's
     "+Serialization" and "+Replication" factors). *)
  let serialize = Silo.Costs.serialize_cost t.cfg.Config.costs ~bytes in
  (* Per-entry replication cost, amortised over the batch: the reason
     small batches hurt throughput (Fig. 16). It is spread over what the
     closed loop actually achieves — the current batch-size target times
     the replication layer's entry-coalescing factor. *)
  let amortize =
    max 1 (int_of_float (float_of_int t.target *. t.coalesce_factor ()))
  in
  let replicate =
    Silo.Costs.replicate_cost t.cfg.Config.costs ~bytes
    + (entry_overhead_ns / amortize)
  in
  Stats.add t.stats Stats.Serialized_bytes bytes;
  match t.mutex with
  | None -> Sim.Cpu.consume t.cpu (serialize + replicate)
  | Some mu ->
      (* Shared stream: serialization happens thread-locally, but the
         enqueue itself is a serialized critical section — the strawman's
         plateau (68.7% of CPU at 30 threads in the paper, §2.2). *)
      Sim.Cpu.consume t.cpu (serialize + replicate);
      Sim.Sync.Mutex.lock mu;
      Sim.Cpu.consume t.cpu enqueue_cs_ns;
      Sim.Sync.Mutex.unlock mu

let clear t =
  cancel_deadline t;
  t.txns <- [];
  t.count <- 0;
  t.bytes <- 0
