(* Quickstart: a replicated bank on a 3-replica Rolis cluster.

   Builds the cluster, runs concurrent transfer transactions on the
   leader for one virtual second, then shows that (a) results were
   release-committed, (b) every replica converged to the same state, and
   (c) money is conserved everywhere.

   Run with: dune exec examples/quickstart.exe *)

let accounts = 100
let initial_balance = 1_000

let key i = Store.Keycodec.encode [ Store.Keycodec.I i ]

(* An application is: how to load the database, how workers draw
   transaction payloads, and one op that turns a payload into a
   transaction body. Payload "a b amount" moves [amount] from account [a]
   to [b]; the empty payload (generation stopped) is a no-op. *)
let bank_app stopped =
  Rolis.App.make ~name:"bank"
    ~setup:(fun db ->
      let t = Silo.Db.create_table db "accounts" in
      for i = 0 to accounts - 1 do
        Store.Table.insert t (key i) (Store.Record.make (string_of_int initial_balance))
      done)
    ~payloads:(fun ~rng ~worker:_ () ->
      if !stopped then ""
      else
        let a = Sim.Rng.int rng accounts and b = Sim.Rng.int rng accounts in
        if a = b then "" else Printf.sprintf "%d %d %d" a b (1 + Sim.Rng.int rng 50))
    ~op:(fun db ~payload txn ->
      let t = Silo.Db.table db "accounts" in
      match String.split_on_char ' ' payload with
      | [ a; b; amount ] ->
          let a = int_of_string a and b = int_of_string b in
          let amount = int_of_string amount in
          let bal k = int_of_string (Option.get (Silo.Txn.get txn t (key k))) in
          Silo.Txn.put txn t (key a) (string_of_int (bal a - amount));
          Silo.Txn.put txn t (key b) (string_of_int (bal b + amount))
      | _ -> ())
    ()

let total db =
  let t = Silo.Db.table db "accounts" in
  let sum = ref 0 in
  Store.Table.iter t (fun _ r ->
      if not (Store.Record.is_deleted r) then sum := !sum + int_of_string r.Store.Record.value);
  !sum

let () =
  let stopped = ref false in
  let cfg =
    {
      Rolis.Config.default with
      Rolis.Config.workers = 4;
      cores = 8;
      batch_size = 100;
      (* Slow the cost model down so the example prints small round
         numbers instead of simulating millions of transfers. *)
      costs = { Silo.Costs.default with Silo.Costs.txn_begin_ns = 20_000 };
    }
  in
  let cluster = Rolis.Cluster.create cfg (bank_app stopped) in
  Printf.printf "Running 4 workers x 1 virtual second of transfers...\n";
  Rolis.Cluster.run cluster ~duration:Sim.Engine.s ();
  let transfers = Rolis.Cluster.count cluster Rolis.Stats.Released in
  let tps = Rolis.Cluster.throughput cluster in
  (* Stop generating and drain so followers finish replay. *)
  stopped := true;
  Rolis.Cluster.run cluster ~duration:Sim.Engine.s ();
  Printf.printf "release-committed transfers: %d (%.0f TPS)\n" transfers tps;
  let lat = Rolis.Cluster.latency cluster in
  Printf.printf "latency p50 = %.2f ms, p95 = %.2f ms\n"
    (float_of_int (Sim.Metrics.Hist.quantile lat 0.5) /. 1e6)
    (float_of_int (Sim.Metrics.Hist.quantile lat 0.95) /. 1e6);
  Array.iter
    (fun r ->
      let db = Rolis.Replica.db r in
      Printf.printf "replica %d: total money = %d (expected %d) %s\n"
        (Rolis.Replica.id r) (total db)
        (accounts * initial_balance)
        (if total db = accounts * initial_balance then "OK" else "INCONSISTENT"))
    (Rolis.Cluster.replicas cluster);
  (* All three replicas hold identical data. *)
  let dump r =
    let t = Silo.Db.table (Rolis.Replica.db r) "accounts" in
    let acc = ref [] in
    Store.Table.iter t (fun k rec_ -> acc := (k, rec_.Store.Record.value) :: !acc);
    !acc
  in
  let reference = dump (Rolis.Cluster.replica cluster 0) in
  let all_equal =
    Array.for_all (fun r -> dump r = reference) (Rolis.Cluster.replicas cluster)
  in
  Printf.printf "replicas converged: %b\n" all_equal
