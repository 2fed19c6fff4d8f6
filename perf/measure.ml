(* Metric definitions: what one measurement window yields, and how the
   end-to-end and per-layer metrics are computed from it. Virtual-clock
   quantities are exact for a given seed; host-clock quantities are
   process CPU time (user + system), which a busy neighbour on the host
   perturbs less than wall time. *)

open Rolis

type metric = { name : string; value : float; unit_ : string; n : int }

let metric name unit_ ~n value = { name; value; unit_; n }
let ms_of_ns ns = float_of_int ns /. 1e6

let hist_of values =
  let h = Sim.Metrics.Hist.create () in
  List.iter (Sim.Metrics.Hist.add h) values;
  h

let q_ms h q = ms_of_ns (Sim.Metrics.Hist.quantile h q)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Longest interval in [points] (sorted times) with no point inside it. *)
let longest_gap points =
  let rec go best = function
    | a :: (b :: _ as rest) -> go (max best (b - a)) rest
    | [ _ ] | [] -> best
  in
  go 0 points

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ---- cumulative counters, read at both edges of the window ---- *)

type snap = {
  cpu : float;
  wall : float;
  body : float;
  minor_words : float;
  major_gcs : int;
  msgs : int;
  bytes : int;
  dropped : int;
  db_commits : int;
  db_conflicts : int;
  coalesced : int;
  retries : int;
  redirects : int;
  busy : int;
  timeouts : int;
  parks : int;
}

(* Client-side failure counters. A {!Shard} deployment keeps its driver
   sessions private, so there they come from the replicas and the
   cluster's client stats: Busy and Not_leader replies are counted where
   they are sent, and a timeout is a retry that neither explains (a
   request's first send after a park is not counted as a retry). *)
type client_counts = {
  c_retries : int;
  c_redirects : int;
  c_busy : int;
  c_timeouts : int;
  c_parks : int;
}

let sessions_counts sessions =
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 sessions in
  {
    c_retries = sum Client.retries;
    c_redirects = sum Client.redirects;
    c_busy = sum Client.busy_replies;
    c_timeouts = sum Client.timeouts;
    c_parks = sum Client.parked;
  }

let sum_replicas clusters f =
  Array.fold_left
    (fun acc c -> Array.fold_left (fun acc r -> acc + f r) acc (Cluster.replicas c))
    0 clusters

let shard_counts shard =
  let clusters = Shard.clusters shard in
  let retries = Shard.client_retries shard in
  let busy = sum_replicas clusters (fun r -> Stats.busy_replies (Replica.stats r)) in
  let redirects = sum_replicas clusters (fun r -> Stats.redirects (Replica.stats r)) in
  let parks =
    Array.fold_left
      (fun acc c -> acc + Stats.parked_requests (Cluster.client_stats c))
      0 clusters
  in
  {
    c_retries = retries;
    c_redirects = redirects;
    c_busy = busy;
    c_timeouts = max 0 (retries + parks - busy - redirects);
    c_parks = parks;
  }

let snap clusters (cc : client_counts) (body : Probe.Body.t) =
  let gc = Gc.quick_stat () in
  let net f = Array.fold_left (fun acc c -> acc + f (Cluster.network c)) 0 clusters in
  let db f = sum_replicas clusters (fun r -> f (Silo.Db.stats (Replica.db r))) in
  {
    cpu = Probe.host_cpu ();
    wall = Unix.gettimeofday ();
    body = body.Probe.Body.wall;
    minor_words = gc.Gc.minor_words;
    major_gcs = gc.Gc.major_collections;
    msgs = net Sim.Net.messages_sent;
    bytes = net Sim.Net.bytes_sent;
    dropped = net Sim.Net.messages_dropped;
    db_commits = db (fun s -> s.Silo.Db.commits);
    db_conflicts = db (fun s -> s.Silo.Db.conflict_aborts);
    coalesced = Array.fold_left (fun acc c -> acc + Cluster.coalesced_proposals c) 0 clusters;
    retries = cc.c_retries;
    redirects = cc.c_redirects;
    busy = cc.c_busy;
    timeouts = cc.c_timeouts;
    parks = cc.c_parks;
  }

(* ---- one measurement window ---- *)

(* Everything a window yields, end-to-end and per layer. Failover runs
   one window per trial; the others run one. *)
type window = {
  secs : float;  (** virtual length *)
  commit_secs : float;  (** the part of it [commits] were counted over *)
  commits : int;  (** committed logical write transactions *)
  commit_lat : int list;
  focus_count : int;
  focus_secs : float;
  focus_lat : int list;
  unavail : int;  (** ns *)
  completions : int;  (** requests that reached a terminal reply *)
  ops : int;  (** committed transactions + served reads *)
  failed : int;  (** requests abandoned without a result *)
  setup : float;  (** host s *)
  d : snap;  (** counter deltas over the window *)
  host : (float * int) list;  (** (host CPU s, ops) per slice of the window *)
  (* per layer *)
  stages : (Trace.stage * int array) list;
  released : int;
  entries_flushed : int;
  replayed : int;
  reads_served : int;
  reads_parked : int;
  reads_redirected : int;
  read_misses : int;
  wire_entries : int;
  wire_txns : int;
  wire_bytes : int;
  leader_util : float;
  follower_util : float;
  crashes : int;
  elections : int;
  failed_candidacies : int;
  stranded : int list;  (** latency of requests in flight at the crash *)
  restored : int * float;  (** requests completed once service resumed, over seconds *)
  cross : cross;
}

and cross = {
  x_committed : int;
  x_aborted : int;
  x_spans : (int * int * int * int) list;
      (** per joined committed cross-shard txn: prepare, decide, apply,
          ack durations in ns *)
  x_marks : int;  (** decision marks of the joined txns *)
  x_unjoined : int;
}

let no_cross = { x_committed = 0; x_aborted = 0; x_spans = []; x_marks = 0; x_unjoined = 0 }

let delta (a : snap) (b : snap) =
  {
    cpu = b.cpu -. a.cpu;
    wall = b.wall -. a.wall;
    body = b.body -. a.body;
    minor_words = b.minor_words -. a.minor_words;
    major_gcs = b.major_gcs - a.major_gcs;
    msgs = b.msgs - a.msgs;
    bytes = b.bytes - a.bytes;
    dropped = b.dropped - a.dropped;
    db_commits = b.db_commits - a.db_commits;
    db_conflicts = b.db_conflicts - a.db_conflicts;
    coalesced = b.coalesced - a.coalesced;
    retries = b.retries - a.retries;
    redirects = b.redirects - a.redirects;
    busy = b.busy - a.busy;
    timeouts = b.timeouts - a.timeouts;
    parks = b.parks - a.parks;
  }

(* Stage histogram of [stage] merged over every replica and both client
   stats of every cluster — the same sources [Cluster.stage_breakdown]
   reads, summed across a sharded deployment's clusters. *)
let stage_values clusters stage =
  let i = Trace.stage_index stage in
  Array.to_list clusters
  |> List.concat_map (fun c ->
         Stats.stage_hist (Cluster.client_stats c) i
         :: Stats.stage_hist (Cluster.client_read_stats c) i
         :: (Array.to_list (Cluster.replicas c)
            |> List.map (fun r -> Stats.stage_hist (Replica.stats r) i)))
  |> List.concat_map (fun h -> Array.to_list (Sim.Metrics.Hist.values h))
  |> Array.of_list

(* The 2PC rounds of a committed cross-shard op: its gen-to-gen span is
   tiled by the first durable report of its marks — the last
   participant's prepare, the coordinator's decision, the last
   participant's apply — and the ack that closes the op. [Some (prepared,
   decided, applied, participants)] when every mark is there and in
   order; [None] for an unjoined op. A step re-executed after a failover leaves a second
   mark; the first report per shard is the one the driver waited for. *)
let rounds (marks : Probe.Marks.t) (o : Probe.op) =
  let shards l = List.sort_uniq compare (List.map fst l) in
  let first_at l s = List.fold_left (fun m (s', t) -> if s' = s then min m t else m) max_int l in
  let last l = List.fold_left (fun acc s -> max acc (first_at l s)) 0 (shards l) in
  match Hashtbl.find_opt marks.Probe.Marks.xids o.xid with
  | Some { prepared = _ :: _ as p; decided = Some (true, dec); applied = _ :: _ as a }
    when shards p = shards a ->
      let prep = last p and app = last a in
      if o.start <= prep && prep <= dec && dec <= app && app <= o.stop then
        Some (prep, dec, app, List.length (shards p))
      else None
  | Some _ | None -> None

let aborted (marks : Probe.Marks.t) (o : Probe.op) =
  match Hashtbl.find_opt marks.Probe.Marks.xids o.xid with
  | Some { decided = Some (false, _); _ } -> true
  | Some _ | None -> false

let join_cross (ops : Probe.op list) marks =
  List.fold_left
    (fun acc (o : Probe.op) ->
      if o.kind <> Probe.Cross || aborted marks o then acc
      else
        match rounds marks o with
        | Some (prep, dec, app, parts) ->
            {
              acc with
              x_spans = (prep - o.start, dec - prep, app - dec, o.stop - app) :: acc.x_spans;
              x_marks = acc.x_marks + (2 * parts) + 1;
            }
        | None -> { acc with x_unjoined = acc.x_unjoined + 1 })
    no_cross ops

(* ---- end-to-end metrics ---- *)

(* Latency percentiles pool every window's requests; rates, service gaps
   and fractions are medians over windows (failover's trials); host time
   per op is a median over every window's slices. [setup_s] is the median
   of [setups] set-ups. *)
let end_to_end windows ~setup_s ~setups ~peak_heap_mb =
  let count f = List.fold_left (fun acc w -> acc + f w) 0 windows in
  let med f = median (List.map f windows) in
  let pooled f = hist_of (List.concat_map f windows) in
  let commits = count (fun w -> w.commits) in
  let focus = count (fun w -> w.focus_count) in
  let commit_lat = pooled (fun w -> w.commit_lat) in
  let focus_lat = pooled (fun w -> w.focus_lat) in
  let ncommit_lat = Sim.Metrics.Hist.count commit_lat in
  let nfocus_lat = Sim.Metrics.Hist.count focus_lat in
  let attempts = count (fun w -> w.completions + w.d.timeouts + w.d.busy + w.d.parks) in
  let ops = count (fun w -> w.ops) in
  let us_per_op =
    List.concat_map (fun w -> w.host) windows
    |> List.filter_map (fun (cpu, n) -> if n > 0 then Some (cpu *. 1e6 /. float_of_int n) else None)
  in
  [
    metric "commit_tps" "txn/s" ~n:commits (med (fun w -> float_of_int w.commits /. w.commit_secs));
    metric "commit_p50_ms" "ms" ~n:ncommit_lat (q_ms commit_lat 0.5);
    metric "commit_p99_ms" "ms" ~n:ncommit_lat (q_ms commit_lat 0.99);
    metric "focus_per_s" "op/s" ~n:focus
      (med (fun w -> float_of_int w.focus_count /. w.focus_secs));
    metric "focus_p50_ms" "ms" ~n:nfocus_lat (q_ms focus_lat 0.5);
    metric "focus_p99_ms" "ms" ~n:nfocus_lat (q_ms focus_lat 0.99);
    metric "unavail_ms" "ms" ~n:(List.length windows) (med (fun w -> ms_of_ns w.unavail));
    metric "ok_frac" "fraction" ~n:attempts
      (med (fun w ->
           let fails = w.d.timeouts + w.d.busy + w.d.parks in
           1.0 -. ratio fails (w.completions + fails)));
    metric "host_us_per_op" "us" ~n:ops (median us_per_op);
    metric "setup_s" "s" ~n:setups setup_s;
    metric "peak_heap_mb" "MB" ~n:1 peak_heap_mb;
  ]

(* ---- per-layer metrics ---- *)

(* Windows pool: histograms merge, counters add. [trace_overhead] is the
   traced run's window host time over the untraced run's. *)
let per_layer windows ~trace_overhead =
  let count f = List.fold_left (fun acc w -> acc + f w) 0 windows in
  let fsum f = List.fold_left (fun acc w -> acc +. f w) 0.0 windows in
  let stage s =
    hist_of
      (List.concat_map
         (fun w ->
           match List.assoc_opt s w.stages with Some a -> Array.to_list a | None -> [])
         windows)
  in
  let n_of h = Sim.Metrics.Hist.count h in
  let q name s q =
    let h = stage s in
    metric name "ms" ~n:(n_of h) (q_ms h q)
  in
  let ops = count (fun w -> w.ops) in
  let per_op name unit_ x = metric name unit_ ~n:ops (x /. float_of_int (max 1 ops)) in
  let secs = fsum (fun w -> w.secs) in
  let rate name unit_ x = metric name unit_ ~n:x (float_of_int x /. secs) in
  let cross = List.map (fun w -> w.cross) windows in
  let spans = List.concat_map (fun c -> c.x_spans) cross in
  let nspans = List.length spans in
  let xcount f = List.fold_left (fun acc c -> acc + f c) 0 cross in
  let span name pick qv =
    metric name "ms" ~n:nspans (q_ms (hist_of (List.map pick spans)) qv)
  in
  let d f = count (fun w -> f w.d) in
  let reads = count (fun w -> w.reads_served) in
  let crashes = count (fun w -> w.crashes) in
  let avg f = fsum f /. float_of_int (max 1 (List.length windows)) in
  let stranded name qv =
    let h = hist_of (List.concat_map (fun w -> w.stranded) windows) in
    metric name "ms" ~n:(n_of h) (q_ms h qv)
  in
  [
    q "silo.execute_p50_ms" Trace.Execute 0.5;
    q "silo.execute_p99_ms" Trace.Execute 0.99;
    metric "silo.conflict_aborts_per_commit" "ratio" ~n:(d (fun s -> s.db_commits))
      (ratio (d (fun s -> s.db_conflicts)) (d (fun s -> s.db_commits)));
    per_op "silo.body_host_us_per_op" "us" (fsum (fun w -> w.d.body) *. 1e6);
    q "wire.serialize_p50_ms" Trace.Serialize 0.5;
    metric "wire.bytes_per_txn" "B" ~n:(count (fun w -> w.wire_txns))
      (ratio (count (fun w -> w.wire_bytes)) (count (fun w -> w.wire_txns)));
    q "batcher.wait_p50_ms" Trace.Batch_submit 0.5;
    q "batcher.wait_p99_ms" Trace.Batch_submit 0.99;
    metric "batcher.txns_per_entry" "txn" ~n:(count (fun w -> w.entries_flushed))
      (ratio (count (fun w -> w.released)) (count (fun w -> w.entries_flushed)));
    q "paxos.durable_p50_ms" Trace.Replicate_durable 0.5;
    q "paxos.durable_p99_ms" Trace.Replicate_durable 0.99;
    rate "paxos.entries_per_s" "entry/s" (count (fun w -> w.wire_entries));
    metric "paxos.coalesced" "count" ~n:1 (float_of_int (d (fun s -> s.coalesced)));
    metric "paxos.elections_per_crash" "count" ~n:crashes
      (ratio (count (fun w -> w.elections)) crashes);
    metric "paxos.failed_candidacies" "count" ~n:crashes
      (float_of_int (count (fun w -> w.failed_candidacies)));
    metric "failover.unavail_max_ms" "ms" ~n:(List.length windows)
      (ms_of_ns (List.fold_left (fun m w -> max m w.unavail) 0 windows));
    stranded "failover.stranded_p50_ms" 0.5;
    stranded "failover.stranded_p99_ms" 0.99;
    metric "failover.restored_per_s" "op/s" ~n:(count (fun w -> fst w.restored))
      (float_of_int (count (fun w -> fst w.restored)) /. Float.max 1e-9 (fsum (fun w -> snd w.restored)));
    q "watermark.wait_p50_ms" Trace.Under_watermark 0.5;
    q "watermark.wait_p99_ms" Trace.Under_watermark 0.99;
    q "replay.apply_p50_ms" Trace.Replay 0.5;
    q "replay.lag_p50_ms" Trace.Replay_lag 0.5;
    q "replay.lag_p99_ms" Trace.Replay_lag 0.99;
    rate "replay.txns_per_s" "txn/s" (count (fun w -> w.replayed));
    q "reads.serve_p50_ms" Trace.Read_serve 0.5;
    q "reads.serve_p99_ms" Trace.Read_serve 0.99;
    q "reads.staleness_p50_ms" Trace.Read_staleness 0.5;
    q "reads.staleness_p99_ms" Trace.Read_staleness 0.99;
    metric "reads.miss_ratio" "ratio" ~n:reads (ratio (count (fun w -> w.read_misses)) reads);
    metric "reads.served_ratio" "ratio" ~n:reads
      (ratio reads (reads + count (fun w -> w.reads_parked + w.reads_redirected)));
    per_op "client.retries_per_op" "count" (float_of_int (d (fun s -> s.retries)));
    per_op "client.redirects_per_op" "count" (float_of_int (d (fun s -> s.redirects)));
    q "client.park_p99_ms" Trace.Client_park 0.99;
    span "shard.prepare_p50_ms" (fun (p, _, _, _) -> p) 0.5;
    span "shard.prepare_p99_ms" (fun (p, _, _, _) -> p) 0.99;
    span "shard.decide_p50_ms" (fun (_, c, _, _) -> c) 0.5;
    span "shard.decide_p99_ms" (fun (_, c, _, _) -> c) 0.99;
    span "shard.apply_p50_ms" (fun (_, _, a, _) -> a) 0.5;
    span "shard.apply_p99_ms" (fun (_, _, a, _) -> a) 0.99;
    span "shard.ack_p50_ms" (fun (_, _, _, k) -> k) 0.5;
    span "shard.ack_p99_ms" (fun (_, _, _, k) -> k) 0.99;
    metric "shard.rounds_per_cross" "count" ~n:nspans
      (ratio (xcount (fun c -> c.x_marks)) nspans);
    metric "shard.cross_abort_ratio" "ratio"
      ~n:(xcount (fun c -> c.x_committed + c.x_aborted))
      (ratio (xcount (fun c -> c.x_aborted)) (xcount (fun c -> c.x_committed + c.x_aborted)));
    metric "shard.unjoined_cross" "count" ~n:nspans
      (float_of_int (xcount (fun c -> c.x_unjoined)));
    per_op "net.msgs_per_op" "msg" (float_of_int (d (fun s -> s.msgs)));
    per_op "net.kbytes_per_op" "KB" (float_of_int (d (fun s -> s.bytes)) /. 1e3);
    metric "net.dropped" "msg" ~n:1 (float_of_int (d (fun s -> s.dropped)));
    metric "cpu.leader_util" "fraction" ~n:(List.length windows) (avg (fun w -> w.leader_util));
    metric "cpu.follower_util" "fraction" ~n:(List.length windows)
      (avg (fun w -> w.follower_util));
    per_op "host.minor_words_per_op" "words" (fsum (fun w -> w.d.minor_words));
    metric "host.major_gcs" "count" ~n:1 (float_of_int (d (fun s -> s.major_gcs)));
    metric "host.body_share" "fraction" ~n:ops
      (fsum (fun w -> w.d.body) /. Float.max 1e-9 (fsum (fun w -> w.d.wall)));
    metric "host.trace_overhead" "ratio" ~n:1 trace_overhead;
  ]
