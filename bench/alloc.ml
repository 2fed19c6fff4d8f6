(* Allocation-discipline micro bench: words allocated per committed
   transaction (TPC-C and YCSB++ execute+commit) and per wire encode.

   [Gc.allocated_bytes] counts every word the program ever allocated, so
   the delta across a seeded virtual-time window is exact — not a timing,
   not a sample. For a fixed seed and compiler version the counts are
   bit-reproducible across machines, which is what lets them be emitted
   as *gated* metrics and diffed against the committed baseline like any
   throughput figure (the [_words] suffix gates lower-is-better). The
   parameters below are deliberately identical in --quick and full mode:
   the metric is a constant of the code, not of the sweep size. *)

open Common

let seed = 42L

(* Execute+commit words/txn: an inline Silo-only loop (mirroring
   [Baselines.Silo_only.run]) so the measurement brackets exclude engine
   construction and table loading and cover exactly the warmed-up
   execute+commit+log window. *)
let exec_words ~app ~workers ~cores ~warmup ~duration =
  let eng = Sim.Engine.create ~seed () in
  let cpu = Sim.Cpu.create eng ~cores () in
  let db = Silo.Db.create eng cpu () in
  app.Rolis.App.setup db;
  for w = 0 to workers - 1 do
    let body =
      app.Rolis.App.make_worker db ~rng:(Sim.Rng.split (Sim.Engine.rng eng)) ~worker:w
    in
    ignore
      (Sim.Engine.spawn eng ~name:(Printf.sprintf "alloc-worker%d" w)
         (fun () ->
           Sim.Cpu.register cpu;
           while true do
             ignore (Silo.Db.run db ~worker:w body)
           done))
  done;
  Sim.Engine.run ~until:warmup eng;
  Silo.Db.reset_stats db;
  let a0 = Gc.allocated_bytes () in
  Sim.Engine.run ~until:(warmup + duration) eng;
  let a1 = Gc.allocated_bytes () in
  let commits = (Silo.Db.stats db).Silo.Db.commits in
  ((a1 -. a0) /. 8., commits)

(* Wire-encode words/entry over a representative TPC-C-sized entry
   (100 txns x 8 writes of 100-byte values ~ 93 KiB encoded), staged
   through a warmed scratch arena. *)
let encode_words () =
  let value = String.make 100 'v' in
  let txns =
    List.init 100 (fun i ->
        {
          Store.Wire.ts = 1000 + i;
          req = (if i mod 2 = 0 then Some (i, i) else None);
          decision = None;
          writes =
            List.init 8 (fun j ->
                {
                  Store.Wire.table = j mod 4;
                  key = Printf.sprintf "k%06d" ((i * 8) + j);
                  value = (if j = 7 then None else Some value);
                });
        })
  in
  let entry = Store.Wire.make_entry ~epoch:1 txns in
  let scratch = Store.Wire.Scratch.create () in
  ignore (Store.Wire.encode_into scratch entry);
  (* arena warmed *)
  let iters = 1000 in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to iters do
    ignore (Store.Wire.encode_into scratch entry)
  done;
  let a1 = Gc.allocated_bytes () in
  ((a1 -. a0) /. 8. /. float_of_int iters, Store.Wire.byte_size entry)

let run ~quick:_ =
  header "Allocation discipline: words allocated per transaction"
    "Deterministic Gc counters around seeded virtual-time windows; the\n\
     words/txn metrics are gated (lower is better) against the committed\n\
     baseline, so commit-path allocation regressions fail CI.";
  let tpcc_app = Workload.Tpcc.app (tpcc_params ~workers:4) in
  let tw, tc = exec_words ~app:tpcc_app ~workers:4 ~cores:8 ~warmup:(50 * ms) ~duration:(100 * ms) in
  Printf.printf "  %-22s %12.0f words/txn  (%d txns)\n%!" "TPC-C exec+commit"
    (tw /. float_of_int tc) tc;
  Gc.compact ();
  let ycsb_app = Workload.Ycsb.app ycsb_params in
  let yw, yc = exec_words ~app:ycsb_app ~workers:4 ~cores:8 ~warmup:(50 * ms) ~duration:(100 * ms) in
  Printf.printf "  %-22s %12.0f words/txn  (%d txns)\n%!" "YCSB++ exec+commit"
    (yw /. float_of_int yc) yc;
  Gc.compact ();
  let ew, ebytes = encode_words () in
  Printf.printf "  %-22s %12.0f words/entry (%d bytes encoded)\n%!"
    "wire encode (scratch)" ew ebytes;
  emit ~fig:"alloc" ~title:"words allocated per transaction / encode"
    ~x_label:"workload"
    ~knobs:[ ("seed", Int64.to_string seed) ]
    [
      point ~series:"tpcc" ~x:1.0
        [ ("exec_words", tw /. float_of_int tc); ("txns", float_of_int tc) ];
      point ~series:"ycsb" ~x:2.0
        [ ("exec_words", yw /. float_of_int yc); ("txns", float_of_int yc) ];
      point ~series:"wire" ~x:3.0 [ ("encode_words", ew) ];
    ]
