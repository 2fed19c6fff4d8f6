(* Watermark-snapshot follower reads: aggregate read capacity vs number
   of serving replicas, plus a WAN routing arm.

   Read-only client sessions drive pinned snapshot reads (100 keys per
   request, so one read costs ~16 us of replica CPU against a ~66 us
   network RTT) at a fixed pool of serving replicas selected by the
   sessions' [prefer] lists. With 2 read workers per replica the
   leader-only arm saturates server-side; spreading the same sessions
   over 2 and then 3 serving replicas multiplies aggregate read
   throughput while the write path — the embedded generator on the
   leader — is untouched. YCSB-C is the pure read-capacity axis; YCSB-B
   adds a 5% RMW write stream so version retention and snapshot-miss
   retries are exercised under load.

   The WAN arm applies the [wan3] profile (3 regions, ~30 ms
   cross-region, ~25 us intra) and compares local-region routing — every
   session reads the replica in its own region — against leader-only
   routing, where two thirds of the sessions pay the cross-region RTT on
   every read. *)

open Common

let ycsb_c = { Workload.Ycsb.workload_c with Workload.Ycsb.keys = 200_000 }
let ycsb_b = { Workload.Ycsb.workload_b with Workload.Ycsb.keys = 200_000 }

(* Read-session payload: many keys per request so the read's CPU cost is
   comparable to the network RTT and server capacity is what the sweep
   measures. Read keys are drawn uniformly even on the zipfian YCSB-B
   arm: a key rewritten faster than the snapshot pin advances is
   permanently unservable with the depth-1 prior-version slot (DESIGN
   §4f), and 100 zipfian draws always include one — uniform scans read
   around the hot set while the zipfian RMW write stream keeps version
   retention and snapshot-miss retries under pressure. *)
let read_p p = { p with Workload.Ycsb.ops_per_txn = 100; theta = None }

let n_sessions = 24

let run_arm ~quick ~app_p ~wan ~prefer_of =
  let cfg =
    {
      Rolis.Config.default with
      Rolis.Config.workers = 4;
      cores = 16;
      follower_reads = true;
      clients = n_sessions;
      wan_profile = (if wan then "wan3" else "");
    }
  in
  let cluster = Rolis.Cluster.create cfg (Workload.Ycsb.app app_p) in
  let eng = Rolis.Cluster.engine cluster in
  let sessions =
    Array.init n_sessions (fun cid ->
        let rng = Sim.Rng.split (Sim.Engine.rng eng) in
        Rolis.Client.spawn (Rolis.Cluster.network cluster) ~cfg ~cid ~ro:true
          ~prefer:(prefer_of cid)
          ~stats:(Rolis.Cluster.client_read_stats cluster)
          ~gen:(Workload.Ycsb.read_payload_gen (read_p app_p) rng)
          ())
  in
  Rolis.Cluster.run cluster ~warmup:(300 * ms) ~duration:(dur quick (400 * ms)) ();
  let start, stop = Rolis.Cluster.window cluster in
  let secs = float_of_int (stop - start) /. float_of_int s in
  ignore sessions;
  let served = Rolis.Cluster.count cluster Rolis.Stats.Reads_served in
  let read_tput = float_of_int served /. secs in
  (cluster, read_tput)

let serving_sweep ~quick ~name ~app_p =
  Printf.printf "  %-8s %-8s %12s %12s %12s %10s %8s\n" "workload" "serving"
    "read tput" "write tput" "stale p95" "misses" "speedup";
  let base = ref 0.0 in
  List.map
    (fun serving ->
      (* Sessions round-robin over the first [serving] replicas; the
         leader (replica 0) always serves too, so serving = 1 is the
         leader-only baseline every system without follower reads is
         stuck at. *)
      let cluster, read_tput =
        run_arm ~quick ~app_p ~wan:false ~prefer_of:(fun _ ->
            Array.init serving (fun i -> i))
      in
      if serving = 1 then base := read_tput;
      let speedup = if !base > 0.0 then read_tput /. !base else 1.0 in
      let stale_p95_ms =
        match Rolis.Cluster.stage_summary cluster Rolis.Trace.Read_staleness with
        | Some (_, _, p95, _) -> float_of_int p95 /. 1e6
        | None -> 0.0
      in
      let misses = Rolis.Cluster.count cluster Rolis.Stats.Read_misses in
      Printf.printf "  %-8s %-8d %12s %12s %9.2f ms %10d %7.2fx\n%!" name
        serving (fmt_tps read_tput)
        (fmt_tps (Rolis.Cluster.throughput cluster))
        stale_p95_ms misses speedup;
      point ~series:name ~x:(float_of_int serving)
        [
          ("read_tput", read_tput);
          ("tput", Rolis.Cluster.throughput cluster);
          ("stale_p95_ms", stale_p95_ms);
          ("misses", float_of_int misses);
          ("speedup", speedup);
        ])
    [ 1; 2; 3 ]

let wan_arm ~quick =
  (* wan3 regions are assigned round-robin over the pool + client nodes:
     with 3 replicas, replica r is region r and client session cid sits
     in region cid mod 3 — so "local" routing is prefer = [| cid mod 3 |]. *)
  let arm ~label ~prefer_of =
    let cluster, read_tput = run_arm ~quick ~app_p:ycsb_c ~wan:true ~prefer_of in
    Printf.printf "  %-12s %12s reads/s  (served %d, redirected %d)\n%!" label
      (fmt_tps read_tput)
      (Rolis.Cluster.count cluster Rolis.Stats.Reads_served)
      (Rolis.Cluster.count cluster Rolis.Stats.Reads_redirected);
    point ~series:("wan3_" ^ label) ~x:3.0 [ ("read_tput", read_tput) ]
  in
  Printf.printf "  WAN (wan3: 3 regions, ~30 ms cross-region):\n";
  let local = arm ~label:"local" ~prefer_of:(fun cid -> [| cid mod 3 |]) in
  let leader = arm ~label:"leader" ~prefer_of:(fun _ -> [| 0 |]) in
  [ local; leader ]

let run ~quick =
  header "Follower reads: read capacity vs serving replicas"
    "Read-only sessions pinned at the watermark snapshot, routed at 1/2/3\n\
     serving replicas under epoch-guarded leases. Writes ride the leader's\n\
     embedded generator throughout — identical across arms.";
  let c_pts = serving_sweep ~quick ~name:"ycsbc" ~app_p:ycsb_c in
  let b_pts = serving_sweep ~quick ~name:"ycsbb" ~app_p:ycsb_b in
  let w_pts = wan_arm ~quick in
  emit ~fig:"reads" ~title:"follower-read capacity (serving replicas + WAN)"
    ~x_label:"serving replicas"
    ~knobs:
      [
        ("read_sessions", string_of_int n_sessions);
        ("keys_per_read", "100");
        ("wan_profile", "wan3");
      ]
    (c_pts @ b_pts @ w_pts)
