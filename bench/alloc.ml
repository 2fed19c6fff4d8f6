(* Allocation-discipline micro bench: words allocated per committed
   transaction (TPC-C and YCSB++ execute+commit), per wire encode and per
   follower replay of one log entry.

   Every arm counts with [words_now]: [Gc.minor_words] (exact at any
   point) plus the words allocated directly in the major heap. That is
   exact whatever the minor-heap size — [Gc.allocated_bytes] is not, as
   it only catches up at minor collections, so a delta taken with it
   moves with where collections fall (OCAMLRUNPARAM=s=...). The delta
   across a seeded virtual-time window is therefore a count, not a
   timing and not a sample. For a fixed seed and compiler version the
   counts are bit-reproducible across machines, which is what lets them
   be emitted as *gated* metrics and diffed against the committed
   baseline like any throughput figure (the [_words] suffix gates
   lower-is-better). The parameters below are deliberately identical in
   --quick and full mode: the metric is a constant of the code, not of
   the sweep size. *)

open Common

let seed = 42L

let words_now () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

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
  let w0 = words_now () in
  Sim.Engine.run ~until:(warmup + duration) eng;
  let w1 = words_now () in
  let commits = (Silo.Db.stats db).Silo.Db.commits in
  (w1 -. w0, commits)

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
  let w0 = words_now () in
  for _ = 1 to iters do
    ignore (Store.Wire.encode_into scratch entry)
  done;
  let w1 = words_now () in
  ((w1 -. w0) /. float_of_int iters, Store.Wire.byte_size entry)

(* Replay words per entry: a follower applying TPC-C-shaped entries of
   [txns] transactions ([Silo.Db.apply_replay_entry], the only follower
   replay path). One seeded Silo worker captures the write-sets; a fresh
   database with the same initial load then replays them entry by entry,
   so every entry installs new versions and inserts new rows as it would
   on a follower. 7 and 60 transactions are the entry sizes of perf/'s
   tpcc_cross and tpcc workloads. *)
let replay_words ~txns ~entries =
  let app = Workload.Tpcc.app (tpcc_params ~workers:1) in
  let eng = Sim.Engine.create ~seed () in
  let cpu = Sim.Cpu.create eng ~cores:8 () in
  let db = Silo.Db.create eng cpu () in
  app.Rolis.App.setup db;
  let body =
    app.Rolis.App.make_worker db ~rng:(Sim.Rng.split (Sim.Engine.rng eng)) ~worker:0
  in
  let log = ref [] and logged = ref 0 in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Cpu.register cpu;
         while !logged < txns * entries do
           let r = Silo.Db.run db ~worker:0 body in
           match r.Silo.Db.tid with
           | Some tid ->
               log :=
                 { Store.Wire.ts = tid.Silo.Tid.ts; req = None; decision = None;
                   writes = r.Silo.Db.log }
                 :: !log;
               incr logged
           | None -> ()
         done));
  Sim.Engine.run eng;
  let log = Array.of_list (List.rev !log) in
  let batches =
    List.init entries (fun i ->
        Store.Wire.make_entry ~epoch:1 (Array.to_list (Array.sub log (i * txns) txns)))
  in
  let eng = Sim.Engine.create ~seed () in
  let cpu = Sim.Cpu.create eng ~cores:8 () in
  let db = Silo.Db.create eng cpu ~physical_deletes:false () in
  app.Rolis.App.setup db;
  let words = ref 0. in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         Sim.Cpu.register cpu;
         let w0 = words_now () in
         List.iter
           (fun e -> ignore (Silo.Db.apply_replay_entry db e ~upto:max_int ()))
           batches;
         words := words_now () -. w0));
  Sim.Engine.run eng;
  !words /. float_of_int entries

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
  Gc.compact ();
  let replay =
    List.map (fun txns -> (txns, replay_words ~txns ~entries:20)) [ 7; 60 ]
  in
  List.iter
    (fun (txns, w) ->
      Printf.printf "  %-22s %12.0f words/entry\n%!"
        (Printf.sprintf "replay %d-txn entry" txns) w)
    replay;
  emit ~fig:"alloc" ~title:"words allocated per transaction / encode / replay"
    ~x_label:"workload"
    ~knobs:[ ("seed", Int64.to_string seed) ]
    ([
      point ~series:"tpcc" ~x:1.0
        [ ("exec_words", tw /. float_of_int tc); ("txns", float_of_int tc) ];
      point ~series:"ycsb" ~x:2.0
        [ ("exec_words", yw /. float_of_int yc); ("txns", float_of_int yc) ];
      point ~series:"wire" ~x:3.0 [ ("encode_words", ew) ];
    ]
    @ List.map
        (fun (txns, w) ->
          point ~series:(Printf.sprintf "replay%d" txns) ~x:(float_of_int txns)
            [ ("replay_words", w) ])
        replay)
