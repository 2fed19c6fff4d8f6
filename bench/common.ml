(* Shared helpers for the per-figure benchmark harnesses. *)

let ms = Sim.Engine.ms
let s = Sim.Engine.s

let header title detail =
  Printf.printf "\n=== %s ===\n%s\n\n%!" title detail

let fmt_tps v =
  if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.0fK" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let fmt_ms ns = Printf.sprintf "%.1f" (float_of_int ns /. 1e6)

(* Scaled-down data sizes keep simulated runs tractable; see
   EXPERIMENTS.md for the full-scale knobs. *)
let ycsb_params = { Workload.Ycsb.default with Workload.Ycsb.keys = 200_000 }

let tpcc_params ~workers =
  Workload.Tpcc.with_warehouses Workload.Tpcc.default (max 1 workers)

(* The paper's static batch-size point (§3.2, Fig. 16): a latency budget
   that never binds at the figures' loads (the original pipeline's 50 ms
   flush timer let a batch age up to 100 ms) and a byte cap that holds at
   least [batch_size] maximum-size transactions, so batches fill to
   [batch_size] instead of flushing on the deadline. *)
let static_delay = 100 * ms

let static_batching (cfg : Rolis.Config.t) =
  {
    cfg with
    Rolis.Config.target_batch_delay_ns = static_delay;
    max_batch_bytes =
      max cfg.Rolis.Config.max_batch_bytes
        (cfg.Rolis.Config.batch_size * Rolis.Config.max_txn_bytes);
  }

(* A standard Rolis cluster run; returns the cluster after the
   measurement window. Without [target_delay] it runs the static point;
   with it, that budget binds and the default byte cap applies. *)
let run_rolis ?(stream_mode = Rolis.Config.Per_worker) ?(batch = 1000)
    ?target_delay ?(networked = false) ?(disable_replay = false) ?(cores = 32)
    ?(warmup = 300 * ms) ~workers ~duration ~app () =
  (* The release pipeline takes ~2 batch-fill times to reach steady state;
     never measure before it has. (TPC-C callers keep this short: the
     warmed-up database grows at ~GB/s of simulated rows.) *)
  let warmup = max warmup (150 * ms) in
  let cfg =
    {
      Rolis.Config.default with
      Rolis.Config.workers;
      cores;
      stream_mode;
      batch_size = batch;
      networked_clients = networked;
      disable_replay;
    }
  in
  let cfg =
    match target_delay with
    | Some d -> { cfg with Rolis.Config.target_batch_delay_ns = d }
    | None -> static_batching cfg
  in
  let cluster = Rolis.Cluster.create cfg app in
  Rolis.Cluster.run cluster ~warmup ~duration ();
  cluster

let run_silo ?(cores = 32) ?(warmup = 100 * ms) ~workers ~duration ~app () =
  Baselines.Silo_only.run ~cores ~workers ~warmup ~duration ~app ()

(* Durations scale down in --quick mode. *)
let dur quick standard = if quick then standard / 4 else standard
let points quick all few = if quick then few else all

(* ---- structured results (--json mode, see Report.Schema) ----

   Every experiment records its datapoints here in addition to the
   printed transcript; main.ml collects them into BENCH_rolis.json
   (routing them through per-experiment part files when experiments run
   in forked children). Virtual-time results are deterministic for a
   fixed seed, so the JSON is byte-stable across runs and a committed
   baseline can be compared exactly. *)

let results : Report.Schema.result list ref = ref []

let emit ?(gated = true) ?(knobs = []) ~fig ~title ~x_label pts =
  results := !results @ [ { Report.Schema.fig; title; x_label; gated; knobs; points = pts } ]

let point ?(stages = []) ~series ~x metrics =
  { Report.Schema.series; x; metrics; stages }

let stage_summaries cluster =
  List.map
    (fun (stage, count, p50, p95, p99) ->
      {
        Report.Schema.stage;
        count;
        p50_ms = float_of_int p50 /. 1e6;
        p95_ms = float_of_int p95 /. 1e6;
        p99_ms = float_of_int p99 /. 1e6;
      })
    (Rolis.Cluster.stage_breakdown cluster)

(* The standard datapoint of a Rolis cluster run: released-transaction
   throughput, release-latency percentiles, and the per-stage pipeline
   breakdown from Trace sampling. *)
let cluster_point ?(extra = []) ~series ~x cluster =
  let lat = Rolis.Cluster.latency cluster in
  let ms_of q = float_of_int (Sim.Metrics.Hist.quantile lat q) /. 1e6 in
  point ~series ~x
    ~stages:(stage_summaries cluster)
    ([ ("tput", Rolis.Cluster.throughput cluster); ("p50_ms", ms_of 0.5); ("p95_ms", ms_of 0.95) ]
    @ extra)
