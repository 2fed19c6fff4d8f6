(* Sharded scale-out: aggregate TPC-C throughput at 1/2/4 shard groups,
   plus the cross-shard 2PC penalty curve.

   Every arm runs the identical client-driven deployment (Rolis.Shard):
   a fixed fleet of closed-loop drivers, each holding one session per
   shard, issuing seed-carrying TPC-C client ops through a
   warehouse-range router. Per-shard capacity is deliberately small — a
   chaos-style txn_begin cost with 4 workers on 8 cores and physical
   serialization — so the 1-shard arm saturates server-side and adding
   shards adds real capacity; the driver fleet is provisioned to keep 4
   shards busy. Warehouses scale with the deployment (4 per shard): the
   scale-out claim is aggregate capacity over a partitioned database,
   the paper's multi-group deployment argument.

   The penalty curve holds 4 shards fixed and dials the fraction of
   cross-shard transactions (remote NewOrder / remote Payment pairs
   committed through replicated 2PC) through 0/1/5/15%: each cross
   transaction costs three sequential replicated rounds instead of one,
   so aggregate throughput degrades smoothly — and monotonically — with
   the cross fraction. *)

open Common

let drivers = 96
let workers = 4
let warehouses_per_shard = 4

let deploy ~shards ~cross_pct =
  let warehouses = warehouses_per_shard * shards in
  let p = Workload.Tpcc.with_warehouses Workload.Tpcc.default warehouses in
  let router = Rolis.Router.tpcc ~warehouses ~shards in
  let cfg =
    {
      Rolis.Config.default with
      Rolis.Config.workers;
      cores = 2 * workers;
      batch_size = 64;
      costs =
        { Silo.Costs.default with Silo.Costs.txn_begin_ns = 250_000 };
      physical_serialization = true;
      clients = drivers;
      shards;
      cross_pct;
    }
  in
  Rolis.Shard.create ~veto:(Workload.Tpcc.veto p) cfg router
    (fun ~shard:_ -> Workload.Tpcc.client_app p)
    ~gen:(fun ~rng ~driver:_ ->
      Workload.Tpcc.shard_gen p router ~cross_pct ~rng)

let arm ?(duration = 400 * ms) ~quick ~shards ~cross_pct () =
  let dep = deploy ~shards ~cross_pct in
  Rolis.Shard.run dep ~warmup:(200 * ms) ~duration:(dur quick duration) ();
  dep

let shard_point ~series ~x dep =
  let lat = Rolis.Shard.latency dep in
  let ms_of h q = float_of_int (Sim.Metrics.Hist.quantile h q) /. 1e6 in
  let xlat = Rolis.Shard.cross_latency dep in
  point ~series ~x
    [
      ("tput", Rolis.Shard.throughput dep);
      ("p50_ms", ms_of lat 0.5);
      ("p95_ms", ms_of lat 0.95);
      ("cross_committed", float_of_int (Rolis.Shard.cross_committed dep));
      ("cross_aborted", float_of_int (Rolis.Shard.cross_aborted dep));
      ("cross_p50_ms", ms_of xlat 0.5);
    ]

let run ~quick =
  header "Sharded scale-out: aggregate throughput + cross-shard 2PC penalty"
    "Each shard is a complete Rolis cluster behind a warehouse-range\n\
     router; a fixed closed-loop driver fleet saturates the 1-shard arm,\n\
     so extra shards translate into aggregate capacity. Cross-shard\n\
     NewOrder/Payment pairs commit through 2PC whose prepare and decision\n\
     records are replicated entries in the participants' own logs.";
  (* -- scale: 1 / 2 / 4 shards at 0% cross -- *)
  Printf.printf "  %-7s %12s %10s %10s %9s\n" "shards" "agg tput" "p50"
    "p95" "speedup";
  let base = ref 0.0 in
  let scale_pts =
    List.map
      (fun shards ->
        let dep = arm ~quick ~shards ~cross_pct:0.0 () in
        let tput = Rolis.Shard.throughput dep in
        if shards = 1 then base := tput;
        let speedup = if !base > 0.0 then tput /. !base else 1.0 in
        let lat = Rolis.Shard.latency dep in
        Printf.printf "  %-7d %12s %7.2f ms %7.2f ms %8.2fx\n%!" shards
          (fmt_tps tput)
          (float_of_int (Sim.Metrics.Hist.quantile lat 0.5) /. 1e6)
          (float_of_int (Sim.Metrics.Hist.quantile lat 0.95) /. 1e6)
          speedup;
        let pt = shard_point ~series:"scale" ~x:(float_of_int shards) dep in
        { pt with Report.Schema.metrics = ("speedup", speedup) :: pt.Report.Schema.metrics })
      [ 1; 2; 4 ]
  in
  (* -- penalty: 4 shards, cross fraction swept -- *)
  Printf.printf "\n  %-7s %12s %12s %10s %9s\n" "cross%" "agg tput"
    "cross txns" "cross p50" "penalty";
  let full = ref 0.0 in
  let penalty_pts =
    List.map
      (fun pct ->
        (* The 1% point moves aggregate throughput by only a few percent,
           so the penalty arms get a doubled window to stay monotone. *)
        let dep =
          arm ~duration:(800 * ms) ~quick ~shards:4 ~cross_pct:(pct /. 100.0) ()
        in
        let tput = Rolis.Shard.throughput dep in
        if pct = 0.0 then full := tput;
        let penalty =
          if !full > 0.0 then 100.0 *. (1.0 -. (tput /. !full)) else 0.0
        in
        let xlat = Rolis.Shard.cross_latency dep in
        Printf.printf "  %-7.0f %12s %12d %7.2f ms %8.1f%%\n%!" pct
          (fmt_tps tput)
          (Rolis.Shard.cross_committed dep)
          (float_of_int (Sim.Metrics.Hist.quantile xlat 0.5) /. 1e6)
          penalty;
        let pt = shard_point ~series:"penalty" ~x:pct dep in
        { pt with Report.Schema.metrics = ("penalty_pct", penalty) :: pt.Report.Schema.metrics })
      [ 0.0; 1.0; 5.0; 15.0 ]
  in
  emit ~fig:"shards" ~title:"sharded scale-out + cross-shard penalty"
    ~x_label:"shards / cross %"
    ~knobs:
      [
        ("drivers", string_of_int drivers);
        ("workers_per_shard", string_of_int workers);
        ("warehouses_per_shard", string_of_int warehouses_per_shard);
      ]
    (scale_pts @ penalty_pts)
