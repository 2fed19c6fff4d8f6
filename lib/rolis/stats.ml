(* Sized for Trace's stage set (16 stages today); a fixed bound keeps the
   array allocation-free on the hot path. *)
let max_stages = 20

type counter =
  | Executed
  | User_aborts
  | Released
  | Serialized_bytes
  | Entries_flushed
  | Deadline_flushes
  | Event_releases
  | Replayed_txns
  | Reads_served
  | Reads_parked
  | Reads_redirected
  | Read_misses
  | Busy_replies
  | Redirects
  | Parked_requests
  | Parked_ns

let slot = function
  | Executed -> 0
  | User_aborts -> 1
  | Released -> 2
  | Serialized_bytes -> 3
  | Entries_flushed -> 4
  | Deadline_flushes -> 5
  | Event_releases -> 6
  | Replayed_txns -> 7
  | Reads_served -> 8
  | Reads_parked -> 9
  | Reads_redirected -> 10
  | Read_misses -> 11
  | Busy_replies -> 12
  | Redirects -> 13
  | Parked_requests -> 14
  | Parked_ns -> 15

(* The windowed counters occupy the slots below [Busy_replies]; the
   client-facing ones from [Busy_replies] on are cumulative. *)
let n_windowed = slot Busy_replies
let n_counters = slot Parked_ns + 1

type t = {
  eng : Sim.Engine.t;
  mutable window_start : int;
  counts : int array;
  mutable spec_bytes : int;
  mutable spec_peak : int;
  mutable spec_sum : float;
  mutable spec_samples : int;
  mutable lat : Sim.Metrics.Hist.t;
  mutable series : Sim.Metrics.Series.t;
  mutable stage_hists : Sim.Metrics.Hist.t array;
}

let create eng =
  {
    eng;
    window_start = 0;
    counts = Array.make n_counters 0;
    spec_bytes = 0;
    spec_peak = 0;
    spec_sum = 0.0;
    spec_samples = 0;
    lat = Sim.Metrics.Hist.create ();
    series = Sim.Metrics.Series.create ~bucket_ns:(100 * Sim.Engine.ms);
    stage_hists = Array.init max_stages (fun _ -> Sim.Metrics.Hist.create ());
  }

let add t c n =
  let i = slot c in
  t.counts.(i) <- t.counts.(i) + n

let get t c = t.counts.(slot c)

let note_submitted t ~bytes =
  t.spec_bytes <- t.spec_bytes + bytes;
  if t.spec_bytes > t.spec_peak then t.spec_peak <- t.spec_bytes

let note_released t ~start ~latency ~bytes =
  add t Released 1;
  t.spec_bytes <- t.spec_bytes - bytes;
  (* Transactions executed before the measurement window opened carry
     warm-up queueing in their latency; count their release (throughput)
     but keep the contaminated sample out of the histogram. *)
  if start >= t.window_start then Sim.Metrics.Hist.add t.lat latency;
  Sim.Metrics.Series.add t.series ~at:(Sim.Engine.now t.eng) 1

let note_dropped_speculative t ~bytes = t.spec_bytes <- t.spec_bytes - bytes

let note_stage t ~stage ~latency =
  if stage >= 0 && stage < max_stages then
    Sim.Metrics.Hist.add t.stage_hists.(stage) latency

let stage_hist t stage =
  if stage < 0 || stage >= max_stages then invalid_arg "Stats.stage_hist: bad index";
  t.stage_hists.(stage)

let sample_speculative_memory t =
  t.spec_sum <- t.spec_sum +. float_of_int t.spec_bytes;
  t.spec_samples <- t.spec_samples + 1

let release_series t = t.series
let latency t = t.lat
let speculative_bytes t = t.spec_bytes

let avg_speculative_bytes t =
  if t.spec_samples = 0 then 0.0 else t.spec_sum /. float_of_int t.spec_samples

let peak_speculative_bytes t = t.spec_peak

let reset_window t =
  t.window_start <- Sim.Engine.now t.eng;
  Array.fill t.counts 0 n_windowed 0;
  t.spec_sum <- 0.0;
  t.spec_samples <- 0;
  t.lat <- Sim.Metrics.Hist.create ();
  t.series <- Sim.Metrics.Series.create ~bucket_ns:(100 * Sim.Engine.ms);
  t.stage_hists <- Array.init max_stages (fun _ -> Sim.Metrics.Hist.create ())

(* Kept for perf/ until the benchmark PR. *)
let busy_replies t = get t Busy_replies
let redirects t = get t Redirects
let parked_requests t = get t Parked_requests
