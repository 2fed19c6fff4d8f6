(* Figure 9 (table): measured read/write operations per transaction type
   for TPC-C and YCSB++. The numbers come from instrumented runs of each
   transaction kind, not from static declarations. *)

open Common

let run ~quick =
  ignore quick;
  header "Figure 9 (table): per-type operation profile"
    "Paper (avg+): NEW ~23r/23w, PAY 4r/4w, ORDER ~13r/0w, STOCK ~201r/0w,\n\
     DLVR ~130r/130w; YCSB++ READ 4r/0w, RMW 4r/4w. Convention as in the\n\
     paper: each scan (and each get) counts as one read operation.";
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:4 () in
  let db = Silo.Db.create eng cpu () in
  let params = tpcc_params ~workers:4 in
  Workload.Tpcc.setup params db;
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  let run_kind kind =
    let payload = Workload.Tpcc.payload rng ~w:1 kind in
    Silo.Db.run db ~worker:0 (Workload.Tpcc.op params db ~payload)
  in
  Printf.printf "  %-12s %10s %10s   (mix %%)\n" "type" "reads" "writes";
  let share kind =
    let m = params.Workload.Tpcc.mix in
    match kind with
    | Workload.Tpcc.New_order -> m.Workload.Tpcc.new_order
    | Workload.Tpcc.Payment -> m.Workload.Tpcc.payment
    | Workload.Tpcc.Order_status -> m.Workload.Tpcc.order_status
    | Workload.Tpcc.Stock_level -> m.Workload.Tpcc.stock_level
    | Workload.Tpcc.Delivery -> m.Workload.Tpcc.delivery
  in
  let pts = ref [] in
  let record ~series ~reads ~writes ~mix =
    pts :=
      point ~series ~x:0.0
        [ ("reads", reads); ("writes", writes); ("mix_pct", mix) ]
      :: !pts
  in
  let _p =
    Sim.Engine.spawn eng (fun () ->
        (* Feed the new-order queues first so Delivery sees its full
           10-districts-with-work shape. *)
        for _ = 1 to 400 do
          ignore (run_kind Workload.Tpcc.New_order)
        done;
        List.iter
          (fun kind ->
            let samples = if kind = Workload.Tpcc.Delivery then 20 else 100 in
            let reads = ref 0 and writes = ref 0 and n = ref 0 in
            for _ = 1 to samples do
              let r = run_kind kind in
              if r.Silo.Db.tid <> None then begin
                reads := !reads + r.Silo.Db.reads;
                writes := !writes + r.Silo.Db.writes;
                incr n
              end
            done;
            let avg_r = float_of_int !reads /. float_of_int (max 1 !n) in
            let avg_w = float_of_int !writes /. float_of_int (max 1 !n) in
            Printf.printf "  %-12s %10.1f %10.1f   (%d%%)\n"
              (Workload.Tpcc.kind_name kind)
              avg_r avg_w (share kind);
            record ~series:(Workload.Tpcc.kind_name kind) ~reads:avg_r ~writes:avg_w
              ~mix:(float_of_int (share kind)))
          Workload.Tpcc.all_kinds;
        (* YCSB++: READ and RMW. *)
        let ydb = Silo.Db.create eng cpu () in
        let yp = { ycsb_params with Workload.Ycsb.keys = 10_000 } in
        Workload.Ycsb.setup yp ydb;
        let profile ~read_ratio label =
          let app = Workload.Ycsb.app { yp with Workload.Ycsb.read_ratio } in
          let body = app.Rolis.App.make_worker ydb ~rng ~worker:0 in
          let reads = ref 0 and writes = ref 0 and n = ref 0 in
          for _ = 1 to 100 do
            let r = Silo.Db.run ydb ~worker:0 body in
            if r.Silo.Db.tid <> None then begin
              reads := !reads + r.Silo.Db.reads;
              writes := !writes + r.Silo.Db.writes;
              incr n
            end
          done;
          let avg_r = float_of_int !reads /. float_of_int (max 1 !n) in
          let avg_w = float_of_int !writes /. float_of_int (max 1 !n) in
          Printf.printf "  %-12s %10.1f %10.1f   (50%%)\n" label avg_r avg_w;
          record ~series:label ~reads:avg_r ~writes:avg_w ~mix:50.0
        in
        profile ~read_ratio:1.0 "YCSB READ";
        profile ~read_ratio:0.0 "YCSB RMW")
  in
  Sim.Engine.run eng;
  emit ~fig:"fig09" ~title:"per-type operation profile" ~x_label:"n/a"
    (List.rev !pts);
  Printf.printf "%!"
