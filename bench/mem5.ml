(* §5 (text): the cost of delayed commit — memory accumulated by
   speculative (not-yet-released) transactions, median latency, and the
   average log size per transaction, at 31 worker threads on TPC-C.

   Paper: ~0.046 GB average accumulated memory at 1.03M TPS, median
   latency 49.41 ms, 875.6 bytes of log per transaction. *)

open Common

let run ~quick =
  header "Section 5: impact of delayed commit (TPC-C, 31 threads)"
    "Paper: ~0.046GB average speculative memory, 49.41ms median latency,\n\
     875.6 bytes of log per transaction.";
  let workers = 31 in
  let cluster =
    run_rolis ~workers
      ~warmup:(150 * ms)
      ~duration:(dur quick (250 * ms))
      ~app:(Workload.Tpcc.app (tpcc_params ~workers))
      ()
  in
  let leader = Option.get (Rolis.Cluster.leader cluster) in
  let st = Rolis.Replica.stats leader in
  Printf.printf "  throughput:                   %s TPS\n" (fmt_tps (Rolis.Cluster.throughput cluster));
  Printf.printf "  avg speculative memory:       %.4f GB (peak %.4f GB)\n"
    (Rolis.Stats.avg_speculative_bytes st /. 1e9)
    (float_of_int (Rolis.Stats.peak_speculative_bytes st) /. 1e9);
  Printf.printf "  median latency:               %s ms\n"
    (fmt_ms (Sim.Metrics.Hist.quantile (Rolis.Cluster.latency cluster) 0.5));
  Printf.printf "  avg log bytes per txn:        %.1f\n%!"
    (float_of_int (Rolis.Stats.get st Rolis.Stats.Serialized_bytes)
    /. float_of_int (max 1 (Rolis.Stats.get st Rolis.Stats.Executed)));
  emit ~fig:"mem5" ~title:"impact of delayed commit (TPC-C, 31 threads)"
    ~x_label:"threads"
    ~knobs:[ ("workers", "31"); ("workload", "tpcc") ]
    [
      cluster_point ~series:"rolis" ~x:(float_of_int workers)
        ~extra:
          [
            ("avg_spec_gb", Rolis.Stats.avg_speculative_bytes st /. 1e9);
            ( "peak_spec_gb",
              float_of_int (Rolis.Stats.peak_speculative_bytes st) /. 1e9 );
            ( "log_bytes_per_txn",
              float_of_int (Rolis.Stats.get st Rolis.Stats.Serialized_bytes)
              /. float_of_int (max 1 (Rolis.Stats.get st Rolis.Stats.Executed)) );
          ]
        cluster;
    ];
  Gc.compact ();
  (* Journal retention: the other memory axis. Archived journals grow
     linearly with history unless checkpoint truncation bounds them to
     roughly interval + retention worth of entries. Same run, two arms:
     truncation on vs off. *)
  header "Section 5 (cont.): journal memory under checkpoint truncation"
    "Archived journal bytes after identical runs — truncation bounds the\n\
     resident journal; --no-truncate grows without bound.";
  let journal_run ~truncate =
    let cfg =
      {
        Rolis.Config.default with
        Rolis.Config.workers = 4;
        cores = 16;
        archive_entries = true;
        heartbeat_interval = 50 * ms;
        election_timeout = 300 * ms;
        checkpoint_interval = 100 * ms;
        checkpoint_retention = 300 * ms;
        checkpoint_truncate = truncate;
      }
    in
    let app =
      Workload.Ycsb.app { Workload.Ycsb.default with Workload.Ycsb.keys = 50_000 }
    in
    let cluster = Rolis.Cluster.create cfg app in
    Rolis.Cluster.run cluster ~warmup:(300 * ms) ~duration:(dur quick (2 * s)) ();
    ( float_of_int (Rolis.Cluster.journal_bytes_total cluster) /. 1e9,
      Rolis.Cluster.truncation_rounds cluster,
      Rolis.Cluster.truncated_entries_total cluster )
  in
  let gb_trunc, rounds, dropped = journal_run ~truncate:true in
  let gb_keep, _, _ = journal_run ~truncate:false in
  Printf.printf "  journal, truncation on:       %.3f GB resident (%d rounds, %d entries dropped)\n"
    gb_trunc rounds dropped;
  Printf.printf "  journal, truncation off:      %.3f GB resident\n"
    gb_keep;
  Printf.printf "  bound:                        %.1fx smaller with truncation\n%!"
    (gb_keep /. Float.max 1e-9 gb_trunc);
  emit ~fig:"mem5_journal" ~title:"journal memory: checkpoint truncation vs unbounded"
    ~x_label:"arm"
    ~knobs:[ ("checkpoint_interval_ms", "100"); ("retention_ms", "300") ]
    [
      point ~series:"truncate" ~x:1.0
        [ ("journal_gb_truncated", gb_trunc) ];
      point ~series:"no-truncate" ~x:2.0
        [ ("journal_gb_unbounded", gb_keep) ];
    ];
  Gc.compact ()
