(* The four workloads. Each starts from [Config.default] plus a common
   shape, loads closed-loop client sessions (simulated processes on the
   virtual clock, no OS threads or sockets) for a warmup and a
   measurement window, then quiesces, drains and runs the program's own
   correctness oracles outside the timed window. *)

open Rolis

let ms = Sim.Engine.ms

type size = {
  scale : float;  (** measurement-window multiplier, [--seconds / 10] *)
  smoke : bool;  (** tiny data and windows, for the test suite *)
}

(* Windows are sized so that at [--seconds 10] each workload measures
   about ten seconds of host time on a 2-core x86 box. *)
let scaled size ns = max ms (int_of_float (float_of_int ns *. size.scale))

(* Common shape: 4 workers on 8 cores; adaptive batching capped at 64
   transactions, because the fixed policy's 1000-txn / 50 ms flush puts
   ~100 ms of batching delay on every session request; default costs and
   replay; 3 replicas. *)
let config ~seed ~traced ~clients ~archive =
  {
    Config.default with
    Config.workers = 4;
    cores = 8;
    batch_policy = Config.Adaptive;
    batch_size = 64;
    replicas = 3;
    clients;
    archive_entries = archive;
    seed = Int64.of_int seed;
    trace_sample_interval = (if traced then 64 else 0);
  }

type dep = {
  eng : Sim.Engine.t;
  clusters : Cluster.t array;
  shard : Shard.t option;  (** [None]: a bare cluster with spawned sessions *)
  writers : Client.t array;
  readers : Client.t array;
  stop : bool ref;  (** stops [writers] and [readers] *)
  traced : bool;  (** [marks] and [body] are hooked in *)
  ops : Probe.Ops.t;
  marks : Probe.Marks.t;
  body : Probe.Body.t;
}

let advance d dt = Sim.Engine.run ~until:(Sim.Engine.now d.eng + dt) d.eng

(* [small] cuts TPC-C's catalogue, customers and initial orders to a
   tenth, for runs whose subject is not the database: the smoke test, and
   failover, whose set-up would otherwise cost more host time than the
   failover itself. *)
let tpcc_params ~small warehouses =
  let p = Workload.Tpcc.with_warehouses Workload.Tpcc.default warehouses in
  if small then
    {
      p with
      Workload.Tpcc.items = 1_000;
      customers_per_district = 30;
      init_orders_per_district = 30;
    }
  else p

(* TPC-C client sessions through [Rolis.Shard] — [shards = 1] is the
   single-group deployment behind the same driver machinery. *)
let deploy_tpcc ~traced ~seed ~shards ~warehouses ~sessions ~cross_pct ~archive ~small =
  let p = tpcc_params ~small warehouses in
  let router = Router.tpcc ~warehouses ~shards in
  let cfg = { (config ~seed ~traced ~clients:sessions ~archive) with Config.shards; cross_pct } in
  let ops = Probe.Ops.create ~drivers:sessions in
  let marks = Probe.Marks.create () in
  let body = Probe.Body.create () in
  let app = Workload.Tpcc.client_app p in
  let app = if traced then Probe.Body.wrap body app else app in
  let on_durable =
    if traced then
      Some (fun ~shard ~replica:_ ~stream ~idx e -> Probe.Marks.observe marks ~shard ~stream ~idx e)
    else None
  in
  let sh =
    Shard.create ?on_durable ~veto:(Workload.Tpcc.veto p) cfg router
      (fun ~shard:_ -> app)
      ~gen:
        (Probe.Ops.shard_gen ops (fun ~rng ~driver:_ ->
             Workload.Tpcc.shard_gen p router ~cross_pct ~rng))
  in
  marks.Probe.Marks.eng <- Some (Shard.engine sh);
  ( p,
    {
      eng = Shard.engine sh;
      clusters = Shard.clusters sh;
      shard = Some sh;
      writers = [||];
      readers = [||];
      stop = ref false;
      traced;
      ops;
      marks;
      body;
    } )

let ycsb_writers size = if size.smoke then 4 else 32
let ycsb_readers size = if size.smoke then 3 else 24

(* YCSB on one cluster: write sessions issue 4-key RMW transactions
   (payloads from [Ycsb.shard_gen] over a one-shard router), read-only
   sessions issue 20-key snapshot reads homed round-robin on the three
   replicas. *)
let deploy_ycsb ~traced ~seed size =
  let keys = if size.smoke then 5_000 else 200_000 in
  let pw = { Workload.Ycsb.default with Workload.Ycsb.keys; read_ratio = 0.0 } in
  let pr = { pw with Workload.Ycsb.ops_per_txn = 20 } in
  let router = Router.ycsb ~keys ~shards:1 in
  let clients = ycsb_writers size + ycsb_readers size in
  let cfg = { (config ~seed ~traced ~clients ~archive:true) with Config.follower_reads = true } in
  let ops = Probe.Ops.create ~drivers:clients in
  let marks = Probe.Marks.create () in
  let body = Probe.Body.create () in
  let app = Workload.Ycsb.client_app pw in
  let app = if traced then Probe.Body.wrap body app else app in
  let on_durable =
    if traced then
      Some (fun ~replica:_ ~stream ~idx e -> Probe.Marks.observe marks ~shard:0 ~stream ~idx e)
    else None
  in
  let cluster = Cluster.create ?on_durable cfg app in
  let eng = Cluster.engine cluster in
  marks.Probe.Marks.eng <- Some eng;
  let net = Cluster.network cluster in
  let stop = ref false in
  let writers =
    Array.init (ycsb_writers size) (fun cid ->
        let g =
          Workload.Ycsb.shard_gen pw router ~cross_pct:0.0 ~rng:(Sim.Rng.split (Sim.Engine.rng eng))
        in
        let payload () =
          match g () with
          | Shard.Single (_, p) -> p
          | Shard.Multi _ -> invalid_arg "one-shard router produced a Multi"
        in
        Client.spawn net ~cfg ~cid ~stopped:stop ~stats:(Cluster.client_stats cluster)
          ~gen:(Probe.Ops.session_gen ops ~cid Probe.Txn payload)
          ())
  in
  let readers =
    Array.init (ycsb_readers size) (fun i ->
        let cid = ycsb_writers size + i in
        let g = Workload.Ycsb.read_payload_gen pr (Sim.Rng.split (Sim.Engine.rng eng)) in
        Client.spawn net ~cfg ~cid ~stopped:stop ~ro:true ~prefer:[| 0; 1; 2 |]
          ~stats:(Cluster.client_read_stats cluster)
          ~gen:(Probe.Ops.session_gen ops ~cid Probe.Read g)
          ())
  in
  { eng; clusters = [| cluster |]; shard = None; writers; readers; stop; traced; ops; marks; body }

(* ---- one measurement window ---- *)

let acked sessions = Array.fold_left (fun acc c -> acc + Client.acked_count c) 0 sessions

let client_counts d =
  match d.shard with
  | Some sh -> Measure.shard_counts sh
  | None -> Measure.sessions_counts (Array.append d.writers d.readers)

let utilization d ~w0 ~w1 =
  let cap c = float_of_int ((Cluster.config c).Config.cores * (w1 - w0)) in
  let util c r = Sim.Cpu.busy_ns (Replica.cpu r) /. cap c in
  let mean = function
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  let leaders, followers =
    Array.fold_left
      (fun (ls, fs) c ->
        let lead = Option.map Replica.id (Cluster.leader c) in
        Array.fold_left
          (fun (ls, fs) r ->
            if Some (Replica.id r) = lead then (util c r :: ls, fs)
            else if Replica.is_alive r then (ls, util c r :: fs)
            else (ls, fs))
          (ls, fs) (Cluster.replicas c))
      ([], []) d.clusters
  in
  (mean leaders, mean followers)

let latencies kinds ops =
  List.filter_map
    (fun (o : Probe.op) -> if List.mem o.kind kinds then Some (o.stop - o.start) else None)
    ops

(* Committed transactions plus served reads so far. *)
let ops_done d =
  match d.shard with
  | Some sh -> Shard.committed sh
  | None -> acked d.writers + acked d.readers

(* Advance through [window] in [slices] equal steps, recording each
   step's host CPU seconds and completed operations: a burst of load from
   a neighbour on the host then spoils one slice, not the median. *)
let sliced d window ~slices =
  List.init slices (fun _ ->
      let c0 = Probe.host_cpu () and o0 = ops_done d in
      advance d (window / slices);
      (Probe.host_cpu () -. c0, ops_done d - o0))

(* [run ~w0] advances virtual time through the window and returns the
   instant service gaps count from (the window start, or the crash) and
   the window's host slices ([[]]: the window is one slice). [focus]
   picks the workload's headline operations: count, seconds and
   latencies. *)
let measure d ~setup ~run ~focus =
  (match d.shard with
  | Some sh -> Shard.reset_window sh
  | None -> Array.iter Cluster.reset_window d.clusters);
  let w0 = Sim.Engine.now d.eng in
  Probe.Ops.keep_from d.ops w0;
  d.marks.Probe.Marks.counting <- true;
  let s0 = Measure.snap d.clusters (client_counts d) d.body in
  let wacked0 = acked d.writers and racked0 = acked d.readers in
  Array.iter Cluster.open_window d.clusters;
  let since, host = run ~w0 in
  Array.iter Cluster.close_window d.clusters;
  let w1 = Sim.Engine.now d.eng in
  let s1 = Measure.snap d.clusters (client_counts d) d.body in
  d.marks.Probe.Marks.counting <- false;
  let within = Probe.Ops.within d.ops ~w0 ~w1 in
  let commits, commit_lat =
    match d.shard with
    | Some sh -> (Shard.committed sh, Array.to_list (Sim.Metrics.Hist.values (Shard.latency sh)))
    | None -> (acked d.writers - wacked0, latencies [ Probe.Txn ] within)
  in
  let reads = acked d.readers - racked0 in
  let read_ops = List.length (latencies [ Probe.Read ] within) in
  let focus_count, focus_secs, focus_lat = focus d within ~w0 ~w1 ~since ~reads in
  let longest_gap a b =
    let stops =
      List.filter_map
        (fun (o : Probe.op) -> if o.stop > a && o.stop <= b then Some o.stop else None)
        within
    in
    Measure.longest_gap ((a :: stops) @ [ b ])
  in
  (* The longest stretch with no request completing anywhere: from the
     crash on, in a failover trial; in a steady window, the median over
     ten equal sub-windows, which one stall cannot swing. *)
  let unavail =
    if since > w0 then longest_gap since w1
    else
      let cut i = w0 + ((w1 - w0) * i / 10) in
      int_of_float
        (Measure.median (List.init 10 (fun i -> float_of_int (longest_gap (cut i) (cut (i + 1))))))
  in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 d.clusters in
  let leader_util, follower_util = utilization d ~w0 ~w1 in
  let cross =
    match d.shard with
    | None -> Measure.no_cross
    | Some sh ->
        let joined =
          if d.traced && Shard.shards sh > 1 then Measure.join_cross within d.marks
          else Measure.no_cross
        in
        { joined with x_committed = Shard.cross_committed sh; x_aborted = Shard.cross_aborted sh }
  in
  {
    Measure.secs = float_of_int (w1 - w0) /. 1e9;
    commit_secs = float_of_int (w1 - w0) /. 1e9;
    commits;
    commit_lat;
    focus_count;
    focus_secs;
    focus_lat;
    unavail;
    completions = List.length within;
    ops = commits + reads;
    failed = max 0 (read_ops - reads);
    setup;
    d = Measure.delta s0 s1;
    host = (if host = [] then [ (s1.Measure.cpu -. s0.Measure.cpu, commits + reads) ] else host);
    stages = List.map (fun st -> (st, Measure.stage_values d.clusters st)) Trace.all_stages;
    released = sum Cluster.released;
    entries_flushed = sum Cluster.entries_flushed;
    replayed = sum Cluster.replayed_txns;
    reads_served = sum Cluster.reads_served;
    reads_parked = sum Cluster.reads_parked;
    reads_redirected = sum Cluster.reads_redirected;
    read_misses = sum Cluster.read_misses;
    wire_entries = d.marks.Probe.Marks.entries;
    wire_txns = d.marks.Probe.Marks.txns;
    wire_bytes = d.marks.Probe.Marks.bytes;
    leader_util;
    follower_util;
    crashes = 0;
    elections = 0;
    failed_candidacies = 0;
    stranded = [];
    restored = (0, 0.0);
    cross;
  }

(* ---- quiesce, drain and the oracles ---- *)

let describe vs = List.map (fun v -> Format.asprintf "%a" Check.pp_violation v) vs

let quiesce d =
  let idle =
    match d.shard with
    | Some sh ->
        (* Generous: an election can take many split-vote rounds (see
           perf/README.md, known issue 1); the service gap is measured,
           and only a deployment that never recovers is a violation. *)
        Shard.quiesce ~timeout:(60 * Sim.Engine.s) sh
    | None ->
        d.stop := true;
        true
  in
  (* Heartbeat no-ops carry every watermark past the last transaction and
     followers finish replay. *)
  advance d (1_500 * ms);
  if idle then [] else [ "quiesce: a driver never finished its in-flight request" ]

let base_checks ?tpcc d =
  Array.to_list d.clusters
  |> List.concat_map (fun c ->
         describe (Check.watermark_agreement c @ Check.convergence c)
         @
         match tpcc with
         | None -> []
         | Some p ->
             Array.to_list (Cluster.replicas c)
             |> List.filter Replica.is_alive
             |> List.concat_map (fun r ->
                    List.map
                      (Printf.sprintf "tpcc consistency (replica %d): %s" (Replica.id r))
                      (Workload.Tpcc.consistency_errors p (Replica.db r))))

(* ---- span dump (traced runs) ---- *)

type span = {
  name : string;
  id : string;
  parent : string option;
  start_ns : int;
  end_ns : int;
  clock : string;
}

let ring_spans d ~prefix =
  Array.to_list d.clusters
  |> List.mapi (fun si c ->
         Array.to_list (Cluster.replicas c)
         |> List.concat_map (fun r ->
                let base = Printf.sprintf "%s.s%d.r%d" prefix si (Replica.id r) in
                let txn ts = Printf.sprintf "%s.txn%d" base ts in
                List.mapi
                  (fun k (sp : Trace.span) ->
                    let pipeline =
                      match sp.sp_stage with
                      | Trace.Execute | Serialize | Batch_submit | Replicate_durable
                      | Under_watermark ->
                          sp.sp_ts > 0
                      | _ -> false
                    in
                    {
                      name = "rolis." ^ Trace.stage_name sp.sp_stage;
                      id =
                        (if sp.sp_stage = Trace.Release && sp.sp_ts > 0 then txn sp.sp_ts
                         else Printf.sprintf "%s.%d" base k);
                      parent = (if pipeline then Some (txn sp.sp_ts) else None);
                      start_ns = sp.sp_start;
                      end_ns = sp.sp_end;
                      clock = "virtual";
                    })
                  (Trace.spans (Replica.trace r))))
  |> List.concat

(* The benchmark's own spans: one per sampled client operation (every
   64th per driver, as the program samples) and every cross-shard one,
   with its 2PC rounds as children. *)
let op_spans d ~prefix within =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun (o : Probe.op) ->
      let k = Option.value (Hashtbl.find_opt seen o.driver) ~default:0 in
      Hashtbl.replace seen o.driver (k + 1);
      let id = Printf.sprintf "%s.op.%d.%d" prefix o.driver o.start in
      let span name ?parent a b =
        { name; id; parent; start_ns = a; end_ns = b; clock = "virtual" }
      in
      let own = span "client.op" o.start o.stop in
      match (o.kind, Measure.rounds d.marks o) with
      | Probe.Cross, Some (prep, dec, app, _) ->
          let child name a b = { (span name ~parent:id a b) with id = id ^ "." ^ name } in
          [
            { own with name = "client.cross" };
            child "2pc.prepare" o.start prep;
            child "2pc.decide" prep dec;
            child "2pc.apply" dec app;
            child "2pc.ack" app o.stop;
          ]
      | _ -> if k mod 64 = 0 then [ own ] else [])
    within

let write_spans path spans =
  let oc = open_out path in
  List.iter
    (fun sp ->
      output_string oc
        (Report.Json.to_string
           (Report.Json.Obj
              [
                ("name", Report.Json.String sp.name);
                ("id", Report.Json.String sp.id);
                ( "parent",
                  match sp.parent with Some p -> Report.Json.String p | None -> Report.Json.Null );
                ("start_ns", Report.Json.Int sp.start_ns);
                ("end_ns", Report.Json.Int sp.end_ns);
                ("clock", Report.Json.String sp.clock);
              ]));
      output_char oc '\n')
    spans;
  close_out oc

(* Host-clock phases of a run, in ns since the child started. *)
type phases = { origin : float; mutable marks : (string * float * float) list }

let phase ph name f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  ph.marks <- (name, t0, Unix.gettimeofday ()) :: ph.marks;
  v

let phase_spans ph ~prefix =
  let ns t = int_of_float ((t -. ph.origin) *. 1e9) in
  List.rev_map
    (fun (name, a, b) ->
      {
        name = "perf." ^ name;
        id = Printf.sprintf "%s.host.%s" prefix name;
        parent = None;
        start_ns = ns a;
        end_ns = ns b;
        clock = "host";
      })
    ph.marks

(* ---- the workloads ---- *)

type result = {
  windows : Measure.window list;
  peak_heap_mb : float;
  violations : string list;
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Set-up is timed on the host's CPU clock. *)
let timed_setup f =
  let c0 = Probe.host_cpu () in
  let v = f () in
  (v, Probe.host_cpu () -. c0)

let new_order_focus _d within ~w0 ~w1 ~since:_ ~reads:_ =
  let lat = latencies [ Probe.New_order ] within in
  (List.length lat, float_of_int (w1 - w0) /. 1e9, lat)

let read_focus _d within ~w0 ~w1 ~since:_ ~reads =
  (reads, float_of_int (w1 - w0) /. 1e9, latencies [ Probe.Read ] within)

let cross_focus d _within ~w0 ~w1 ~since:_ ~reads:_ =
  let sh = Option.get d.shard in
  ( Shard.cross_committed sh,
    float_of_int (w1 - w0) /. 1e9,
    Array.to_list (Sim.Metrics.Hist.values (Shard.cross_latency sh)) )

(* A steady-state workload: one deployment, warmup, one window. *)
let steady ~traced ~spans ~name ~warmup ~window ~deploy ~focus ~checks =
  let ph = { origin = Unix.gettimeofday (); marks = [] } in
  let (extra, d), setup = phase ph "setup" (fun () -> timed_setup deploy) in
  phase ph "warmup" (fun () -> advance d warmup);
  let w =
    phase ph "window" (fun () ->
        measure d ~setup ~focus ~run:(fun ~w0 -> (w0, sliced d window ~slices:10)))
  in
  let peak = peak_heap_mb () in
  let traced_spans =
    if traced then
      op_spans d ~prefix:name (Probe.Ops.within d.ops ~w0:0 ~w1:(Sim.Engine.now d.eng))
      @ ring_spans d ~prefix:name
    else []
  in
  let violations =
    phase ph "checks" (fun () ->
        let q = quiesce d in
        q @ checks extra d)
  in
  Option.iter
    (fun dir ->
      write_spans
        (Filename.concat dir (name ^ ".spans.jsonl"))
        (phase_spans ph ~prefix:name @ traced_spans))
    spans;
  { windows = [ w ]; peak_heap_mb = peak; violations }

let tpcc_deploy ~traced ~seed size =
  deploy_tpcc ~traced ~seed ~shards:1 ~warehouses:4
    ~sessions:(if size.smoke then 32 else 384)
    ~cross_pct:0.0 ~archive:false ~small:size.smoke

let tpcc ~traced ~spans ~seed size =
  steady ~traced ~spans ~name:"tpcc"
    ~warmup:((if size.smoke then 10 else 50) * ms)
    ~window:(scaled size (180 * ms))
    ~deploy:(fun () -> tpcc_deploy ~traced ~seed size)
    ~focus:new_order_focus
    ~checks:(fun p d -> base_checks ~tpcc:p d)

let ycsb_reads ~traced ~spans ~seed size =
  steady ~traced ~spans ~name:"ycsb_reads"
    ~warmup:((if size.smoke then 150 else 300) * ms)
    ~window:(scaled size (500 * ms))
    ~deploy:(fun () -> ((), deploy_ycsb ~traced ~seed size))
    ~focus:read_focus
    ~checks:(fun () d ->
      let c = d.clusters.(0) in
      base_checks d
      @ describe
          (Check.snapshot_reads c
          @ Check.exactly_once c
              ~acked:(Array.to_list d.writers |> List.concat_map Client.acked_seqs)))

let cross_deploy ~traced ~seed size =
  deploy_tpcc ~traced ~seed ~shards:2 ~warehouses:4
    ~sessions:(if size.smoke then 16 else 64)
    ~cross_pct:0.10 ~archive:true ~small:size.smoke

let tpcc_cross ~traced ~spans ~seed size =
  steady ~traced ~spans ~name:"tpcc_cross"
    ~warmup:((if size.smoke then 20 else 100) * ms)
    ~window:(scaled size (1_500 * ms))
    ~deploy:(fun () -> cross_deploy ~traced ~seed size)
    ~focus:cross_focus
    ~checks:(fun p d -> base_checks ~tpcc:p d @ describe (Check.cross_shard d.clusters))

let max_epoch c =
  Array.fold_left
    (fun m r -> if Replica.is_alive r then max m (Paxos.Election.epoch (Replica.election r)) else m)
    0 (Cluster.replicas c)

(* One failover trial: 8 sessions of small TPC-C, steady from 100 ms;
   at 300 ms crash whichever replica leads, then observe until service
   has been back for [settle] (or for 3 s if it never returns), sampling
   every replica's failed-candidacy counter — it resets whenever the
   replica hears a leader. While no request completes the simulation
   costs almost nothing, so one trial takes well under a host second and
   thirty-two of them settle the median of a per-trial outage that
   varies by a factor of two. *)
let crash_at = 300 * ms
let settle = 300 * ms

let failover_trial ~traced ~spans ~seed ~trial =
  let give_up = crash_at + (3 * Sim.Engine.s) in
  let prefix = Printf.sprintf "failover.t%d" trial in
  let ph = { origin = Unix.gettimeofday (); marks = [] } in
  let (p, d), setup =
    phase ph "setup" (fun () ->
        timed_setup (fun () ->
            deploy_tpcc ~traced ~seed:(seed + trial) ~shards:1 ~warehouses:4 ~sessions:8
              ~cross_pct:0.0 ~archive:true ~small:true))
  in
  let c = d.clusters.(0) in
  let w0 = 100 * ms in
  phase ph "warmup" (fun () -> advance d w0);
  let elections = ref 0 and failed = ref 0 and crashes = ref 0 in
  let sh = Option.get d.shard in
  let steady = ref (0, []) and resumed = ref None and ended = ref 0 in
  let run ~w0:_ =
    Sim.Engine.run ~until:crash_at d.eng;
    steady := (Shard.committed sh, Array.to_list (Sim.Metrics.Hist.values (Shard.latency sh)));
    let before = max_epoch c in
    Option.iter
      (fun r ->
        incr crashes;
        Cluster.crash_replica c (Replica.id r))
      (Cluster.leader c);
    let last = Array.map (fun _ -> 0) (Cluster.replicas c) in
    let over () =
      let now = Sim.Engine.now d.eng in
      now >= give_up || match !resumed with Some t -> now >= t + settle | None -> false
    in
    while not (over ()) do
      (* Acks the old leader sent just before it died still land after
         the crash; service has resumed with the first completion once a
         new leader serves. *)
      let before_step = Sim.Engine.now d.eng in
      advance d (10 * ms);
      if !resumed = None && Cluster.leader c <> None then
        resumed := Probe.Ops.first_stop_after d.ops before_step;
      Array.iteri
        (fun i r ->
          let n = Paxos.Election.failed_candidacies (Replica.election r) in
          if n > last.(i) then failed := !failed + (n - last.(i));
          last.(i) <- n)
        (Cluster.replicas c)
    done;
    elections := max_epoch c - before;
    ended := Sim.Engine.now d.eng;
    (crash_at, [])
  in
  let no_focus _ _ ~w0:_ ~w1:_ ~since:_ ~reads:_ = (0, 1.0, []) in
  let w = phase ph "window" (fun () -> measure d ~setup ~focus:no_focus ~run) in
  let peak = peak_heap_mb () in
  let traced_spans =
    if traced then
      op_spans d ~prefix (Probe.Ops.within d.ops ~w0:0 ~w1:(Sim.Engine.now d.eng))
      @ ring_spans d ~prefix
    else []
  in
  let violations =
    phase ph "checks" (fun () ->
        let q = quiesce d in
        q @ base_checks ~tpcc:p d @ describe (Check.exactly_once c ~acked:(Shard.acked_seqs sh 0)))
  in
  (* The gated failover metrics are the outage and the failed attempts;
     commits — and the focus, which is the same here — are the steady
     service before the crash, which every trial repeats closely. The
     service after the crash varies too much from trial to trial to gate
     on and goes to the per-layer table: the requests the crash stranded,
     and the service in the first [settle] after it resumed. *)
  let commits, commit_lat = !steady in
  let within = Probe.Ops.within d.ops ~w0:crash_at ~w1:!ended in
  let stranded =
    match !resumed with
    | None -> []
    | Some r ->
        List.filter_map
          (fun (o : Probe.op) ->
            if o.start <= crash_at && o.stop >= r then Some (o.stop - o.start) else None)
          within
  in
  let restored =
    match !resumed with
    | None -> (0, 0.0)
    | Some r ->
        ( List.length (List.filter (fun (o : Probe.op) -> o.start >= r) within),
          float_of_int (!ended - r) /. 1e9 )
  in
  let steady_secs = float_of_int (crash_at - w0) /. 1e9 in
  ( {
      w with
      commits;
      commit_lat;
      commit_secs = steady_secs;
      focus_count = commits;
      focus_secs = steady_secs;
      focus_lat = commit_lat;
      crashes = !crashes;
      elections = !elections;
      failed_candidacies = !failed;
      stranded;
      restored;
    },
    List.map (Printf.sprintf "trial %d (seed %d): %s" trial (seed + trial)) violations,
    Option.map (fun _ -> phase_spans ph ~prefix @ traced_spans) spans,
    peak )

let failover_trials size =
  if size.smoke then 1 else max 1 (int_of_float (Float.round (32.0 *. size.scale)))

(* Each trial runs in its own child: [Workload.Tpcc] keeps every
   database it has served in a process-wide table, so trials sharing a
   process would each add their whole deployment to the heap. *)
let failover ~traced ~spans ~seed size =
  let trials =
    List.init (failover_trials size) (fun trial ->
        match Child.run (fun () -> failover_trial ~traced ~spans ~seed ~trial) with
        | Ok r -> r
        | Error e -> failwith (Printf.sprintf "failover trial %d: %s" trial e))
  in
  Option.iter
    (fun dir ->
      write_spans
        (Filename.concat dir "failover.spans.jsonl")
        (List.concat_map (fun (_, _, sp, _) -> Option.value sp ~default:[]) trials))
    spans;
  {
    windows = List.map (fun (w, _, _, _) -> w) trials;
    peak_heap_mb = List.fold_left (fun m (_, _, _, h) -> Float.max m h) 0.0 trials;
    violations = List.concat_map (fun (_, v, _, _) -> v) trials;
  }

type t = {
  name : string;
  run : traced:bool -> spans:string option -> seed:int -> size -> result;
  setup_only : (seed:int -> size -> unit) option;
      (** an extra set-up for the [setup_s] median; [None] when the run
          already sets up several times *)
}

let all =
  [
    {
      name = "tpcc";
      run = tpcc;
      setup_only = Some (fun ~seed size -> ignore (tpcc_deploy ~traced:false ~seed size));
    };
    {
      name = "ycsb_reads";
      run = ycsb_reads;
      setup_only = Some (fun ~seed size -> ignore (deploy_ycsb ~traced:false ~seed size));
    };
    {
      name = "tpcc_cross";
      run = tpcc_cross;
      setup_only = Some (fun ~seed size -> ignore (cross_deploy ~traced:false ~seed size));
    };
    { name = "failover"; run = failover; setup_only = None };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
