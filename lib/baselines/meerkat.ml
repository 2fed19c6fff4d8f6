type result = { tps : float; committed : int; aborted : int; p50_latency : int }

(* Per-transaction CPU across the three replicas (coordinator execution +
   eRPC handling + validation on every replica), charged to the
   system-wide core pool. Calibrated so 28 threads give ~2.6M TPS on
   YCSB-T and ~1.2M on YCSB++, as measured in the paper. *)
let base_cost = 3_600
let per_op_cost = 2_200
let abort_backoff = 30_000

let run ?(seed = 42L) ?(keys_per_thread = 10_000) ?(pipeline = 16)
    ?(params = Workload.Ycsb.ycsb_t) ~threads ~duration () =
  let eng = Sim.Engine.create ~seed () in
  let cpu = Sim.Cpu.create eng ~cores:threads () in
  (* DPDK-class network: ~10us one way, thin tail. *)
  let net =
    Sim.Net.create eng ~nodes:3
      ~latency:(Sim.Net.Exp_jitter { base = 8 * Sim.Engine.us; jitter_mean = 3 * Sim.Engine.us })
  in
  let nkeys = keys_per_thread * threads in
  let key i = Store.Keycodec.encode [ Store.Keycodec.I i ] in
  (* The three replica stores are identical by construction (the
     simulator applies installs atomically and unanimously), so one
     physical copy stands in for all of them; the per-replica CPU and the
     validation round trip are still charged. *)
  let store = Store.Btree.create () in
  for i = 0 to nkeys - 1 do
    ignore
      (Store.Btree.insert store (key i)
         (Store.Record.make (Workload.Row.pad params.Workload.Ycsb.value_size)))
  done;
  let committed = ref 0 and aborted = ref 0 in
  let lat = Sim.Metrics.Hist.create () in
  let ops = params.Workload.Ycsb.ops_per_txn in
  for _t = 0 to threads - 1 do
    for _c = 1 to pipeline do
      let rng = Sim.Rng.split (Sim.Engine.rng eng) in
      ignore
        (Sim.Engine.spawn eng ~name:"meerkat-client" (fun () ->
             Sim.Cpu.register cpu;
             while true do
               let t_start = Sim.Engine.time () in
               let rec attempt () =
                 let read_only =
                   Sim.Rng.float rng 1.0 < params.Workload.Ycsb.read_ratio
                 in
                 let keys = List.init ops (fun _ -> key (Sim.Rng.int rng nkeys)) in
                 (* Execute locally: record read versions. *)
                 let read_set =
                   List.map
                     (fun k ->
                       match Store.Btree.find store k with
                       | Some r -> (k, Store.Record.version r)
                       | None -> (k, -1))
                     keys
                 in
                 (* Coordinator + replica CPU for execution, validation
                    and replication of this transaction. *)
                 Sim.Cpu.consume cpu (base_cost + (ops * per_op_cost));
                 (* One validation round trip to the farthest replica. *)
                 Sim.Engine.sleep (2 * Sim.Net.sample_latency net ~src:0 ~dst:1);
                 (* Atomic validation across the three stores. *)
                 let ok =
                   List.for_all
                     (fun (k, v) ->
                       match Store.Btree.find store k with
                       | Some r -> Store.Record.version r = v
                       | None -> false)
                     read_set
                 in
                 if not ok then begin
                   incr aborted;
                   Sim.Engine.sleep abort_backoff;
                   attempt ()
                 end
                 else if not read_only then
                   (* Unanimous validation succeeded: install (a newer
                      stamp, the same value) on every replica. *)
                   List.iter
                     (fun (k, _) ->
                       match Store.Btree.find store k with
                       | Some r ->
                           Store.Record.install r ~epoch:0 ~ts:(Store.Record.ts r + 1)
                             ~value:(Some r.Store.Record.value)
                       | None -> ())
                     read_set
               in
               attempt ();
               incr committed;
               Sim.Metrics.Hist.add lat (Sim.Engine.time () - t_start)
             done))
    done
  done;
  let warmup = 100 * Sim.Engine.ms in
  Sim.Engine.run ~until:warmup eng;
  committed := 0;
  aborted := 0;
  Sim.Metrics.Hist.clear lat;
  Sim.Engine.run ~until:(warmup + duration) eng;
  {
    tps = float_of_int !committed *. 1e9 /. float_of_int duration;
    committed = !committed;
    aborted = !aborted;
    p50_latency = Sim.Metrics.Hist.quantile lat 0.5;
  }
