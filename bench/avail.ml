(* Availability under planned operations (live reconfiguration).

   Each scenario runs the client-driven bank cluster through one
   management-plane operation — planned leader handoff, add-replica,
   remove-replica, a rolling restart of every member — plus a no-op
   baseline and an *unplanned* leader crash for contrast, and measures
   what the clients saw: request-latency percentiles, total time spent
   parked (requests that exhausted their retry budget — the availability
   gap), and leader redirects.

   The headline claim: a planned handoff shows no election-timeout gap
   (the drained leader grants its successor immediate candidacy), while
   the unplanned crash pays the full timeout before anyone stands. *)

open Common

let accounts = 48
let n_clients = 8

let cluster_cfg ~spares =
  {
    Rolis.Config.default with
    Rolis.Config.replicas = 3;
    workers = 4;
    cores = 8;
    batch_size = 50;
    costs =
      {
        Silo.Costs.default with
        Silo.Costs.txn_begin_ns = 50_000;
        abort_ns = 5_000;
      };
    physical_serialization = true;
    archive_entries = true;
    heartbeat_interval = 50 * ms;
    election_timeout = 300 * ms;
    clients = n_clients;
    checkpoint_interval = 400 * ms;
    checkpoint_retention = 300 * ms;
    spare_replicas = spares;
    min_members = 2;
  }

type measure = {
  p50_ms : float;
  p99_ms : float;
  parked_ms : float;
  redirects : int;
  acked : int;
  op_ms : float; (* wall (virtual) time the operation took; 0 = baseline *)
  ok : bool; (* the operation completed *)
}

(* Run one scenario: warm up, launch [op] from a spawned process 300 ms
   into the measurement window, measure for [duration]. [op] returns
   whether it completed; the baseline passes [None]. *)
let scenario ~spares ~duration op =
  let stopped = ref false in
  let cfg = cluster_cfg ~spares in
  let cluster =
    Rolis.Cluster.create cfg (Rolis.Chaos.bank_app ~accounts ())
  in
  let eng = Rolis.Cluster.engine cluster in
  let net = Rolis.Cluster.network cluster in
  let sessions =
    Array.init n_clients (fun cid ->
        let crng = Sim.Rng.split (Sim.Engine.rng eng) in
        Rolis.Client.spawn net ~cfg ~cid ~stopped
          ~stats:(Rolis.Cluster.client_stats cluster)
          ~gen:(fun () -> Rolis.Chaos.bank_payload crng ~accounts)
          ())
  in
  Rolis.Cluster.run cluster ~warmup:(600 * ms) ~duration:0 ();
  let cs = Rolis.Cluster.client_stats cluster in
  let parked0 = Rolis.Stats.get cs Rolis.Stats.Parked_ns in
  let op_ns = ref 0 and op_ok = ref (op = None) in
  (match op with
  | None -> ()
  | Some f ->
      ignore
        (Sim.Engine.spawn eng ~name:"avail-op" (fun () ->
             Sim.Engine.sleep (300 * ms);
             let t0 = Sim.Engine.time () in
             op_ok := f cluster;
             op_ns := Sim.Engine.time () - t0)));
  Rolis.Cluster.run cluster ~duration ();
  (* Merge the per-session client-observed latency histograms. *)
  let lat =
    Sim.Metrics.Hist.merge
      (Array.to_list sessions |> List.map Rolis.Client.latency)
  in
  let q p = float_of_int (Sim.Metrics.Hist.quantile lat p) /. 1e6 in
  {
    p50_ms = q 0.5;
    p99_ms = q 0.99;
    parked_ms = float_of_int (Rolis.Stats.get cs Rolis.Stats.Parked_ns - parked0) /. 1e6;
    redirects = Array.fold_left (fun a c -> a + Rolis.Client.redirects c) 0 sessions;
    acked = Array.fold_left (fun a c -> a + Rolis.Client.acked_count c) 0 sessions;
    op_ms = float_of_int !op_ns /. 1e6;
    ok = !op_ok;
  }

let rolling cluster =
  List.for_all
    (fun i ->
      Rolis.Cluster.crash_replica cluster i;
      Sim.Engine.sleep (400 * ms);
      Rolis.Cluster.restart_replica cluster i;
      Sim.Engine.sleep (400 * ms);
      true)
    (Rolis.Cluster.members cluster)

let crash_leader cluster =
  match Rolis.Cluster.leader cluster with
  | None -> false
  | Some l ->
      Rolis.Cluster.crash_replica cluster (Rolis.Replica.id l);
      true

let run ~quick =
  header "Availability through planned operations (live reconfiguration)"
    "Client p99 latency, parked time and redirects through handoff /\n\
     add-replica / remove-replica / rolling-restart; planned handoff must\n\
     show no election-timeout gap (election_timeout = 300 ms).";
  let duration = if quick then 2 * s else 4 * s in
  let scenarios =
    [
      ("baseline", 0, duration, None);
      ("handoff", 0, duration, Some (fun c -> Rolis.Cluster.handoff c ~target:1));
      ("crash", 0, duration, Some crash_leader);
      ("add", 1, duration, Some (fun c -> Rolis.Cluster.add_replica c 3));
      ("remove", 0, duration, Some (fun c -> Rolis.Cluster.remove_replica c 2));
      (* A rolling restart cycles all three members at 400 ms spacing:
         give it the window it needs to finish inside. *)
      ("rolling", 0, duration + (3 * s), Some rolling);
    ]
  in
  let results =
    List.map
      (fun (name, spares, duration, op) ->
        (name, (duration, scenario ~spares ~duration op)))
      scenarios
  in
  Printf.printf "  %-10s %8s %8s %10s %9s %7s %8s\n" "scenario" "p50 ms"
    "p99 ms" "parked ms" "redirects" "acked" "op ms";
  List.iter
    (fun (name, (_, m)) ->
      Printf.printf "  %-10s %8.1f %8.1f %10.1f %9d %7d %8.1f%s\n" name m.p50_ms
        m.p99_ms m.parked_ms m.redirects m.acked m.op_ms
        (if m.ok then "" else "  [INCOMPLETE]"))
    results;
  let find n = snd (List.assoc n results) in
  let baseline = find "baseline"
  and handoff = find "handoff"
  and crash = find "crash" in
  (* The no-election-gap claim, quantified: an unplanned crash stalls the
     tail of the client latency distribution by at least the election
     timeout; a planned handoff (drain + Timeout_now grant) must stay at
     the baseline tail. *)
  let timeout_ms = 300.0 in
  let gapless = handoff.p99_ms < baseline.p99_ms +. timeout_ms in
  Printf.printf
    "  p99 through handoff %.1f ms (baseline %.1f ms, unplanned crash %.1f \
     ms) — handoff %s the election-timeout gap\n\
     %!"
    handoff.p99_ms baseline.p99_ms crash.p99_ms
    (if gapless then "avoids" else "DOES NOT avoid");
  emit ~fig:"avail" ~title:"availability through planned operations"
    ~x_label:"scenario"
    ~knobs:
      [
        ("election_timeout_ms", "300");
        ("duration_ms", string_of_int (duration / ms));
      ]
    (List.mapi
       (fun i (name, (dur, m)) ->
         point ~series:name ~x:(float_of_int i)
           [
             ("p99_ms", m.p99_ms);
             ("parked_ms", m.parked_ms);
             ("acked_tput", float_of_int m.acked *. 1e9 /. float_of_int dur);
           ])
       results);
  Gc.compact ()
