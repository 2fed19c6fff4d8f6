(* Tests for the OCC engine: conflict handling, phantom protection,
   replay CAS, and a serializability oracle. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_db ?(cores = 8) ?physical_deletes f =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores ~efficiency:(fun ~active:_ -> 1.0) () in
  let db = Silo.Db.create eng cpu ?physical_deletes () in
  f eng cpu db

let test_commit_and_read () =
  with_db (fun eng _cpu db ->
      let t = Silo.Db.create_table db "accounts" in
      let _p =
        Sim.Engine.spawn eng (fun () ->
            let r =
              Silo.Db.run db ~worker:0 (fun txn ->
                  Silo.Txn.put txn t "alice" "100";
                  Silo.Txn.put txn t "bob" "50")
            in
            check_bool "committed" true (r.Silo.Db.tid <> None);
            check_int "two writes in log" 2 (List.length r.Silo.Db.log);
            let r2 =
              Silo.Db.run db ~worker:0 (fun txn -> Silo.Txn.get txn t "alice")
            in
            check_bool "read back" true (r2.Silo.Db.value = Some (Some "100")))
      in
      Sim.Engine.run eng;
      check_int "two commits" 2 (Silo.Db.stats db).Silo.Db.commits)

let test_read_own_write () =
  with_db (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      let _p =
        Sim.Engine.spawn eng (fun () ->
            let r =
              Silo.Db.run db ~worker:0 (fun txn ->
                  Silo.Txn.put txn t "k" "v1";
                  let own = Silo.Txn.get txn t "k" in
                  Silo.Txn.delete txn t "k";
                  let deleted = Silo.Txn.get txn t "k" in
                  (own, deleted))
            in
            check_bool "sees own write" true (r.Silo.Db.value = Some (Some "v1", None)))
      in
      Sim.Engine.run eng)

let test_user_abort_rolls_back () =
  with_db (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      let _p =
        Sim.Engine.spawn eng (fun () ->
            let r =
              Silo.Db.run db ~worker:0 (fun txn ->
                  Silo.Txn.put txn t "k" "doomed";
                  Silo.Txn.abort ())
            in
            check_bool "no value" true (r.Silo.Db.value = None);
            check_bool "no tid" true (r.Silo.Db.tid = None);
            check_bool "nothing installed" true (Store.Table.get t "k" = None))
      in
      Sim.Engine.run eng;
      check_int "user abort counted" 1 (Silo.Db.stats db).Silo.Db.user_aborts)

(* Concurrent increments must not lose updates. *)
let test_no_lost_updates () =
  with_db (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      Store.Table.insert t "ctr" (Store.Record.make "0");
      for w = 0 to 3 do
        let _p =
          Sim.Engine.spawn eng (fun () ->
              for _ = 1 to 50 do
                ignore
                  (Silo.Db.run db ~worker:w (fun txn ->
                       let v =
                         match Silo.Txn.get txn t "ctr" with
                         | Some s -> int_of_string s
                         | None -> Alcotest.fail "counter missing"
                       in
                       Silo.Txn.put txn t "ctr" (string_of_int (v + 1))))
              done)
        in
        ()
      done;
      Sim.Engine.run eng;
      (match Store.Table.get_live t "ctr" with
      | Some r -> check_int "no lost updates" 200 (int_of_string r.Store.Record.value)
      | None -> Alcotest.fail "counter vanished");
      let s = Silo.Db.stats db in
      check_int "200 commits (+1 seed ignored)" 200 s.Silo.Db.commits;
      check_bool "some conflicts retried" true (s.Silo.Db.conflict_aborts > 0))

(* A scan must abort if a row is inserted into its range before commit. *)
let test_phantom_protection () =
  with_db (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      Store.Table.insert t "a1" (Store.Record.make "x");
      let retries = ref 0 in
      let scanned = ref [] in
      let _scanner =
        Sim.Engine.spawn eng (fun () ->
            let r =
              Silo.Db.run db ~worker:0 (fun txn ->
                  let rows = Silo.Txn.scan txn t ~lo:"a" ~hi:"b" () in
                  (* Pad the execution so the commit lands after the
                     conflicting insert at t=2000ns. *)
                  for _ = 1 to 100 do
                    ignore (Silo.Txn.get txn t "a1")
                  done;
                  rows)
            in
            retries := r.Silo.Db.retries;
            scanned := Option.value r.Silo.Db.value ~default:[])
      in
      let _inserter =
        Sim.Engine.spawn eng (fun () ->
            Sim.Engine.sleep 2_000;
            ignore
              (Silo.Db.run db ~worker:1 (fun txn -> Silo.Txn.put txn t "a5" "phantom")))
      in
      Sim.Engine.run eng;
      check_bool "scanner retried" true (!retries >= 1);
      check_int "retry saw the phantom" 2 (List.length !scanned))

let test_physical_vs_tombstone_delete () =
  with_db ~physical_deletes:true (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      Store.Table.insert t "k" (Store.Record.make "v");
      let _p =
        Sim.Engine.spawn eng (fun () ->
            ignore (Silo.Db.run db ~worker:0 (fun txn -> Silo.Txn.delete txn t "k")))
      in
      Sim.Engine.run eng;
      check_bool "physically removed" true (Store.Table.get t "k" = None));
  with_db ~physical_deletes:false (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      Store.Table.insert t "k" (Store.Record.make "v");
      let _p =
        Sim.Engine.spawn eng (fun () ->
            ignore (Silo.Db.run db ~worker:0 (fun txn -> Silo.Txn.delete txn t "k")))
      in
      Sim.Engine.run eng;
      match Store.Table.get t "k" with
      | Some r -> check_bool "tombstoned" true (Store.Record.is_deleted r)
      | None -> Alcotest.fail "tombstone expected")

let test_next_ts_monotone () =
  with_db (fun eng _cpu db ->
      let _p =
        Sim.Engine.spawn eng (fun () ->
            let a = Silo.Db.next_ts db in
            let b = Silo.Db.next_ts db in
            check_bool "strictly increasing at same instant" true (b > a);
            Sim.Engine.sleep 1_000;
            let c = Silo.Db.next_ts db in
            check_bool "tracks the clock" true (c >= 1_000 && c > b))
      in
      Sim.Engine.run eng)

let test_replay_cas_semantics () =
  with_db ~physical_deletes:false (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      let applied = ref 0 in
      let mk ts writes = { Store.Wire.ts; req = None; decision = None; writes } in
      let w key value = { Store.Wire.table = 0; key; value } in
      let ap txn ~epoch = Silo.Db.apply_replay db txn ~epoch ~writes:1 ~applied in
      let _p =
        Sim.Engine.spawn eng (fun () ->
            (* Newer-first application: the older write must lose. *)
            ap (mk 100 [ w "k" (Some "new") ]) ~epoch:1;
            ap (mk 50 [ w "k" (Some "old") ]) ~epoch:1;
            (* Re-applying is a no-op (idempotence). *)
            ap (mk 100 [ w "k" (Some "new") ]) ~epoch:1;
            (* A delete from a later epoch tombstones it. *)
            ap (mk 10 [ w "k" None ]) ~epoch:2)
      in
      Sim.Engine.run eng;
      check_int "two applies won" 2 !applied;
      match Store.Table.get t "k" with
      | Some r ->
          check_bool "tombstoned by epoch-2 delete" true (Store.Record.is_deleted r);
          check_int "stamped epoch" 2 (Store.Record.epoch r)
      | None -> Alcotest.fail "record should exist as tombstone")

(* Entry replay sorts an entry's write-sets by key and installs them
   through one sorted cursor sweep. Its semantics must be exactly those
   of per-txn [apply_replay]: idempotent, CAS-guarded, and truncatable at
   a timestamp. *)
let test_bulk_replay_entry () =
  with_db ~physical_deletes:false (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      let mk ts writes = { Store.Wire.ts; req = None; decision = None; writes } in
      let w key value = { Store.Wire.table = 0; key; value } in
      let entry =
        Store.Wire.make_entry ~epoch:1
          [
            mk 10 [ w "k1" (Some "a"); w "k2" (Some "a") ];
            mk 20 [ w "k2" (Some "b") ];
            mk 30 [ w "k1" None ];
          ]
      in
      let _p =
        Sim.Engine.spawn eng (fun () ->
            let r = Silo.Db.apply_replay_entry db entry ~upto:max_int () in
            check_int "all txns merged" 3 r.Silo.Db.re_txns;
            check_int "all logged writes counted" 4 r.Silo.Db.re_writes;
            (* Two distinct keys, each counted once however many of its
               versions CAS in. *)
            check_int "deduped installs" 2 r.Silo.Db.re_installed;
            check_bool "bulk work charged" true
              (r.Silo.Db.re_seeks >= 1
              && r.Silo.Db.re_seeks + r.Silo.Db.re_steps = 2);
            (* Re-applying the same entry is a no-op: every CAS loses to
               the stamp it already installed. *)
            let r2 = Silo.Db.apply_replay_entry db entry ~upto:max_int () in
            check_int "second pass installs nothing" 0 r2.Silo.Db.re_installed)
      in
      Sim.Engine.run eng;
      (match Store.Table.get t "k1" with
      | Some r ->
          check_bool "k1 tombstoned by ts-30 delete" true (Store.Record.is_deleted r)
      | None -> Alcotest.fail "k1 should exist as tombstone");
      match Store.Table.get t "k2" with
      | Some r ->
          check_bool "k2 kept the last writer" true
            ((not (Store.Record.is_deleted r)) && r.Store.Record.value = "b")
      | None -> Alcotest.fail "k2 should exist")

(* An entry straddling the epoch boundary is applied twice: first
   truncated at the final watermark ([upto]), then in full once the next
   epoch's watermark covers it. The two passes must land on the same
   state as one untruncated pass. *)
let test_bulk_replay_upto_truncation () =
  let final_state apply =
    with_db ~physical_deletes:false (fun eng _cpu db ->
        let t = Silo.Db.create_table db "t" in
        let _p = Sim.Engine.spawn eng (fun () -> apply db) in
        Sim.Engine.run eng;
        List.map
          (fun (k, (r : Store.Record.t)) ->
            (k, r.Store.Record.value, Store.Record.is_deleted r))
          (Store.Btree.to_list (Store.Table.tree t)))
  in
  let mk ts writes = { Store.Wire.ts; req = None; decision = None; writes } in
  let w key value = { Store.Wire.table = 0; key; value } in
  let entry =
    Store.Wire.make_entry ~epoch:1
      [
        mk 10 [ w "a" (Some "1"); w "b" (Some "1") ];
        mk 40 [ w "b" (Some "2"); w "c" (Some "2") ];
      ]
  in
  let truncated =
    final_state (fun db ->
        let r = Silo.Db.apply_replay_entry db entry ~upto:20 () in
        Alcotest.(check int) "only the pre-watermark txn" 1 r.Silo.Db.re_txns;
        Alcotest.(check int) "its writes only" 2 r.Silo.Db.re_writes)
  in
  check_bool "ts-40 writes held back" true
    (truncated = [ ("a", "1", false); ("b", "1", false) ]);
  let two_pass =
    final_state (fun db ->
        ignore (Silo.Db.apply_replay_entry db entry ~upto:20 ());
        let r = Silo.Db.apply_replay_entry db entry ~upto:max_int () in
        (* The full pass re-merges everything, but only ts-40's keys win
           their CAS; ts-10's are already installed. *)
        Alcotest.(check int) "catch-up installs the rest" 2 r.Silo.Db.re_installed)
  in
  let one_pass =
    final_state (fun db ->
        ignore (Silo.Db.apply_replay_entry db entry ~upto:max_int ()))
  in
  check_bool "truncated+catch-up = one pass" true (two_pass = one_pass);
  (* And both agree with the per-txn replay path. *)
  let per_txn_apply db =
    let applied = ref 0 in
    List.iter
      (fun txn ->
        Silo.Db.apply_replay db txn ~epoch:1
          ~writes:(List.length txn.Store.Wire.writes)
          ~applied)
      entry.Store.Wire.txns
  in
  let bulk_apply db = ignore (Silo.Db.apply_replay_entry db entry ~upto:max_int ()) in
  check_bool "bulk = per-txn" true (one_pass = final_state per_txn_apply);
  (* Version-exact: with a read floor set, a reader pinned anywhere
     between the entry's timestamps sees what per-txn replay leaves
     behind. "b" is written at ts 10 and ts 40 in this one entry, so pins
     10..39 must still find its ts-10 version in the prior-version slot;
     a last-writer-wins merge installs only ts 40 and misses it. *)
  let snapshot_reads apply =
    with_db ~physical_deletes:false (fun eng _cpu db ->
        let t = Silo.Db.create_table db "t" in
        Silo.Db.set_read_floor db (Some (fun () -> 10));
        let seen = ref [] in
        let _p =
          Sim.Engine.spawn eng (fun () ->
              apply db;
              for pin = 10 to 40 do
                List.iter
                  (fun key ->
                    let r =
                      match
                        Silo.Db.read_at db ~pin (fun s -> Silo.Db.snap_get s t key)
                      with
                      | v, _ -> `Seen v
                      | exception Silo.Db.Snapshot_miss -> `Miss
                    in
                    seen := (pin, key, r) :: !seen)
                  [ "a"; "b"; "c" ]
              done)
        in
        Sim.Engine.run eng;
        List.rev !seen)
  in
  let per_txn_reads = snapshot_reads per_txn_apply in
  check_bool "per-txn keeps b's ts-10 version below pin 40" true
    (List.mem (39, "b", `Seen (Some "1")) per_txn_reads);
  check_bool "bulk = per-txn at every pin" true
    (snapshot_reads bulk_apply = per_txn_reads)

(* Intra-entry parallel replay: slicing the sorted run into [ways]
   key-disjoint pieces applied by concurrent processes must land on
   exactly the sequential sweep's state and install count, for any
   [ways] (including more ways than keys) and for both index
   representations. *)
let test_parallel_replay_ways_equivalence () =
  let mk ts writes = { Store.Wire.ts; req = None; decision = None; writes } in
  let w key value = { Store.Wire.table = 0; key; value } in
  let entry =
    (* 6 txns over 20 keys with overwrites and deletes, so the merged run
       exercises CAS losers and tombstones in every slice. *)
    Store.Wire.make_entry ~epoch:1
      (List.init 6 (fun i ->
           mk
             ((i + 1) * 10)
             (List.init 7 (fun j ->
                  let k = Printf.sprintf "k%02d" ((i * 5 + j * 3) mod 20) in
                  if (i + j) mod 5 = 4 then w k None
                  else w k (Some (Printf.sprintf "v%d.%d" i j))))))
  in
  let final_state ~hash_tables ~ways () =
    let eng = Sim.Engine.create () in
    let cpu = Sim.Cpu.create eng ~cores:8 ~efficiency:(fun ~active:_ -> 1.0) () in
    let db =
      Silo.Db.create eng cpu ~physical_deletes:false ~hash_tables ()
    in
    let t = Silo.Db.create_table db "t" in
    let installed = ref 0 in
    let _p =
      Sim.Engine.spawn eng (fun () ->
          let r = Silo.Db.apply_replay_entry db entry ~ways ~upto:max_int () in
          installed := r.Silo.Db.re_installed;
          check_int "all txns merged" 6 r.Silo.Db.re_txns)
    in
    Sim.Engine.run eng;
    let dump = ref [] in
    Store.Table.iter t (fun k (r : Store.Record.t) ->
        dump := (k, r.Store.Record.value, Store.Record.is_deleted r) :: !dump);
    (!installed, List.rev !dump)
  in
  List.iter
    (fun hash_tables ->
      let seq = final_state ~hash_tables ~ways:1 () in
      check_bool "sequential installs something" true (fst seq > 0);
      List.iter
        (fun ways ->
          let par = final_state ~hash_tables ~ways () in
          check_bool
            (Printf.sprintf "ways=%d matches sequential (hash=%b)" ways
               (hash_tables <> []))
            true (par = seq))
        [ 2; 3; 7; 64 ])
    [ []; [ "t" ] ]

(* A reader that observed "key absent" must abort if the key appears
   before it commits. *)
let test_absent_read_validation () =
  with_db (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      let retries = ref (-1) in
      let _reader =
        Sim.Engine.spawn eng (fun () ->
            let r =
              Silo.Db.run db ~worker:0 (fun txn ->
                  let v = Silo.Txn.get txn t "k" in
                  (* Pad so the conflicting insert lands mid-flight. *)
                  for _ = 1 to 100 do
                    ignore (Silo.Txn.get txn t "other")
                  done;
                  v)
            in
            retries := r.Silo.Db.retries;
            (* The final (retried) attempt must see the new value. *)
            check_bool "retry observes insert" true (r.Silo.Db.value = Some (Some "v")))
      in
      let _writer =
        Sim.Engine.spawn eng (fun () ->
            Sim.Engine.sleep 2_000;
            ignore (Silo.Db.run db ~worker:1 (fun txn -> Silo.Txn.put txn t "k" "v")))
      in
      Sim.Engine.run eng;
      check_bool "reader retried" true (!retries >= 1))

(* A last_live probe must be invalidated when a larger key appears. *)
let test_probe_validation () =
  with_db (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      Store.Table.insert t "a1" (Store.Record.make "old");
      let seen = ref None in
      let _prober =
        Sim.Engine.spawn eng (fun () ->
            let r =
              Silo.Db.run db ~worker:0 (fun txn ->
                  let probe = Silo.Txn.last_live txn t ~lo:"a" ~hi:"b" in
                  for _ = 1 to 100 do
                    ignore (Silo.Txn.get txn t "a1")
                  done;
                  probe)
            in
            seen := Option.join r.Silo.Db.value)
      in
      let _writer =
        Sim.Engine.spawn eng (fun () ->
            Sim.Engine.sleep 2_000;
            ignore (Silo.Db.run db ~worker:1 (fun txn -> Silo.Txn.put txn t "a9" "new")))
      in
      Sim.Engine.run eng;
      check_bool "probe sees the newest key after retry" true (!seen = Some ("a9", "new")))

let test_delete_then_reinsert () =
  with_db (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      Store.Table.insert t "k" (Store.Record.make "v1");
      let _p =
        Sim.Engine.spawn eng (fun () ->
            ignore (Silo.Db.run db ~worker:0 (fun txn -> Silo.Txn.delete txn t "k"));
            ignore (Silo.Db.run db ~worker:0 (fun txn -> Silo.Txn.put txn t "k" "v2"));
            let r = Silo.Db.run db ~worker:0 (fun txn -> Silo.Txn.get txn t "k") in
            check_bool "reinserted value" true (r.Silo.Db.value = Some (Some "v2")))
      in
      Sim.Engine.run eng)


(* Install reuses the record a transaction read. If a concurrent commit
   deletes that key and inserts it again, the read record is no longer
   bound: validation must abort the reader (its version moved), and the
   re-inserted record must survive untouched. *)
let test_read_record_replaced () =
  with_db (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      Store.Table.insert t "k" (Store.Record.make "v0");
      let outcome = ref `Unset in
      let insert_tid = ref None in
      let _reader =
        Sim.Engine.spawn eng (fun () ->
            let r =
              Silo.Db.run_once db ~worker:0 (fun txn ->
                  let v = Option.get (Silo.Txn.get txn t "k") in
                  for _ = 1 to 100 do
                    ignore (Silo.Txn.get txn t "other")
                  done;
                  Silo.Txn.put txn t "k" (v ^ "+"))
            in
            outcome := if r = None then `Aborted else `Committed)
      in
      let _writer =
        Sim.Engine.spawn eng (fun () ->
            Sim.Engine.sleep 1;
            ignore (Silo.Db.run db ~worker:1 (fun txn -> Silo.Txn.delete txn t "k"));
            insert_tid := (Silo.Db.run db ~worker:1 (fun txn -> Silo.Txn.put txn t "k" "v2")).tid)
      in
      Sim.Engine.run eng;
      check_bool "reader aborted" true (!outcome = `Aborted);
      match Store.Table.get t "k" with
      | Some r ->
          Alcotest.(check string) "re-insert survives" "v2" r.Store.Record.value;
          (* Stamped by the re-insert alone: the reader's install never
             touched it. *)
          let { Silo.Tid.epoch; ts } = Option.get !insert_tid in
          check_int "fresh record" (Store.Record.pack ~epoch ~ts) (Store.Record.version r)
      | None -> Alcotest.fail "re-inserted key missing")

(* Under a read floor (follower reads) a delete keeps its tombstone in the
   index while the prior version is retained. A later write that never
   read the key (a guarded insert that finds it bound, alone or as a
   sorted run of two) or that read the tombstone first must revive that
   same record in place: retain the tombstone, stamp it newer, account
   the bytes — what a lookup-first install does. *)
let test_insert_over_retained_tombstone () =
  let write_modes =
    [
      ("blind put", fun txn t -> Silo.Txn.put txn t "k" "v2");
      ( "blind run",
        fun txn t ->
          Silo.Txn.put txn t "k" "v2";
          Silo.Txn.put txn t "k2" "w2" );
      ( "read then put",
        fun txn t ->
          check_bool "tombstone reads absent" true (Silo.Txn.get txn t "k" = None);
          Silo.Txn.put txn t "k" "v2" );
    ]
  in
  List.iter
    (fun (mode, write) ->
      with_db (fun eng _cpu db ->
          let t = Silo.Db.create_table db "t" in
          Silo.Db.set_read_floor db (Some (fun () -> 0));
          let _p =
            Sim.Engine.spawn eng (fun () ->
                let run f = ignore (Silo.Db.run db ~worker:0 f) in
                run (fun txn ->
                    Silo.Txn.put txn t "k" "v1";
                    Silo.Txn.put txn t "k2" "w1");
                run (fun txn ->
                    Silo.Txn.delete txn t "k";
                    Silo.Txn.delete txn t "k2");
                let tomb = Option.get (Store.Table.get t "k") in
                check_bool "tombstone retained" true (Store.Record.is_deleted tomb);
                let version = Store.Record.version tomb and ts = Store.Record.ts tomb in
                run (fun txn -> write txn t);
                let r = Option.get (Store.Table.get t "k") in
                let name what = Printf.sprintf "%s: %s" mode what in
                check_bool (name "same record revived") true (r == tomb);
                check_bool (name "live") false (Store.Record.is_deleted r);
                Alcotest.(check string) (name "value") "v2" r.Store.Record.value;
                check_bool (name "version bumped") true (Store.Record.version r > version);
                check_bool (name "tombstone retained in the slot") true
                  (Store.Record.read_at r ~pin:ts = Store.Record.Visible (None, ts));
                check_int (name "slot stamp") ts r.Store.Record.prior.p_ts;
                let bytes = ref 0 in
                Store.Table.iter t (fun key r -> bytes := !bytes + Store.Record.byte_size ~key r);
                check_int (name "bytes accounted") !bytes (Store.Table.bytes t))
          in
          Sim.Engine.run eng))
    write_modes

(* A tombstone the transaction read is not reused by install: a
   [Table.compact] between the read and the commit drops it without a
   version bump, so validation passes and the write must go through a
   fresh lookup (here: an insert) rather than into the dropped record. *)
let test_read_tombstone_compacted () =
  with_db ~physical_deletes:false (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      let committed = ref false in
      let _p =
        Sim.Engine.spawn eng (fun () ->
            ignore (Silo.Db.run db ~worker:0 (fun txn -> Silo.Txn.put txn t "k" "v1"));
            ignore (Silo.Db.run db ~worker:0 (fun txn -> Silo.Txn.delete txn t "k"));
            let _compactor =
              Sim.Engine.spawn eng (fun () ->
                  Sim.Engine.sleep 1;
                  check_int "tombstone dropped" 1 (Store.Table.compact t))
            in
            let r =
              Silo.Db.run_once db ~worker:0 (fun txn ->
                  check_bool "reads absent" true (Silo.Txn.get txn t "k" = None);
                  Silo.Txn.put txn t "k" "v2")
            in
            committed := r <> None)
      in
      Sim.Engine.run eng;
      check_bool "committed" true !committed;
      match Store.Table.get_live t "k" with
      | Some r -> Alcotest.(check string) "write landed in the index" "v2" r.Store.Record.value
      | None -> Alcotest.fail "write lost into the dropped tombstone")

(* The one-descent bulk replay CASes into the records its prediction pass
   found. A [Table.compact] that runs while the entry's charge is being
   consumed (as promotion's does) unbinds found tombstones, so the apply
   must fall back to the full sweep: the database must end exactly as
   per-transaction replay with the compaction between the two entries
   leaves it, for sequential and sliced replay. *)
(* Replay's merged write order is the stable (table, key) sort of the
   flattened writes. Most generated write-sets are logged the way
   [install] logs them (sorted, one version per key); the rest are left in
   draw order, duplicates and all, so runs also break inside a
   transaction. Keys repeat across transactions, and [upto] cuts the
   entry anywhere. *)
let replay_order_qcheck =
  let write_gen =
    QCheck.Gen.(
      map3
        (fun table key value -> { Store.Wire.table; key; value })
        (int_range 0 2)
        (map (String.make 1) (char_range 'a' 'f'))
        (opt (map string_of_int small_nat)))
  in
  let cmp (a : Store.Wire.write) (b : Store.Wire.write) =
    compare (a.table, a.key) (b.table, b.key)
  in
  let txn_gen =
    QCheck.Gen.(
      map3
        (fun ts logged writes ->
          let writes =
            if logged then List.sort_uniq cmp writes else writes
          in
          { Store.Wire.ts; req = None; decision = None; writes })
        (int_range 1 50)
        (frequencyl [ (3, true); (1, false) ])
        (list_size (0 -- 8) write_gen))
  in
  let print (txns, upto) =
    Printf.sprintf "upto=%d %s" upto
      (String.concat " | "
         (List.map
            (fun (t : Store.Wire.txn_log) ->
              Printf.sprintf "ts=%d:%s" t.ts
                (String.concat ","
                   (List.map
                      (fun (w : Store.Wire.write) ->
                        Printf.sprintf "%d/%s" w.table w.key)
                      t.writes)))
            txns))
  in
  QCheck.Test.make ~name:"replay merge order = stable sort" ~count:500
    (QCheck.make ~print
       QCheck.Gen.(pair (list_size (1 -- 12) txn_gen) (int_range 0 55)))
    (fun (txns, upto) ->
      let entry = Store.Wire.make_entry ~epoch:1 txns in
      let expected =
        List.concat_map
          (fun (t : Store.Wire.txn_log) ->
            if t.ts <= upto then List.map (fun w -> (w, t.ts)) t.writes else [])
          txns
        |> List.stable_sort (fun (a, _) (b, _) -> cmp a b)
      in
      let got = Array.to_list (Silo.Db.replay_order entry ~upto) in
      List.length got = List.length expected
      && List.for_all2 (fun (w, ts) (w', ts') -> w == w' && ts = ts') got expected)

let test_replay_compact_during_charge () =
  let mk ts writes = { Store.Wire.ts; req = None; decision = None; writes } in
  let w key value = { Store.Wire.table = 0; key; value } in
  let key i = Printf.sprintf "k%02d" i in
  let e1 =
    Store.Wire.make_entry ~epoch:1
      [ mk 10 (List.init 24 (fun i -> w (key i) (if i mod 3 = 0 then None else Some "a"))) ]
  in
  let e2 =
    Store.Wire.make_entry ~epoch:1
      [
        mk 20 (List.init 24 (fun i -> w (key i) (Some (Printf.sprintf "b%d" i))));
        mk 30 [ w (key 5) None; w (key 6) (Some "c") ];
      ]
  in
  let state apply =
    with_db ~physical_deletes:false (fun eng _cpu db ->
        let t = Silo.Db.create_table db "t" in
        let _p = Sim.Engine.spawn eng (fun () -> apply eng db t) in
        Sim.Engine.run eng;
        let dump = ref [] in
        Store.Table.iter t (fun k (r : Store.Record.t) ->
            dump :=
              (k, r.Store.Record.value, Store.Record.is_deleted r, Store.Record.epoch r,
               Store.Record.ts r)
              :: !dump);
        (List.rev !dump, Store.Table.bytes t))
  in
  let per_txn db (e : Store.Wire.entry) =
    let applied = ref 0 in
    List.iter
      (fun txn ->
        Silo.Db.apply_replay db txn ~epoch:1 ~writes:(List.length txn.Store.Wire.writes)
          ~applied)
      e.Store.Wire.txns
  in
  let reference =
    state (fun _eng db t ->
        per_txn db e1;
        check_int "reference compacts the tombstones" 8 (Store.Table.compact t);
        per_txn db e2)
  in
  List.iter
    (fun ways ->
      let bulk =
        state (fun eng db t ->
            ignore (Silo.Db.apply_replay_entry db e1 ~upto:max_int ());
            let dropped = ref 0 and at = ref 0 and charged_from = Sim.Engine.now eng in
            let _compactor =
              Sim.Engine.spawn eng (fun () ->
                  Sim.Engine.sleep 1;
                  at := Sim.Engine.now eng;
                  dropped := Store.Table.compact t)
            in
            ignore (Silo.Db.apply_replay_entry db e2 ~ways ~upto:max_int ());
            check_int "compaction dropped the tombstones" 8 !dropped;
            check_bool "compaction landed inside the charge" true
              (!at > charged_from && !at < Sim.Engine.now eng))
      in
      check_bool (Printf.sprintf "ways=%d equals per-txn replay" ways) true (bulk = reference))
    [ 1; 4 ]

(* ---- serializability oracle ----

   Random transactions of the form "read two keys, write their sum+1 to a
   third key" run on concurrent workers. Afterwards, replaying the
   committed transactions serially in TID order on a fresh store must
   produce exactly the same final state. *)

let oracle_qcheck =
  QCheck.Test.make ~name:"OCC history is equivalent to serial TID order" ~count:30
    QCheck.(pair (int_range 2 5) small_int)
    (fun (nworkers, seed) ->
      let eng = Sim.Engine.create ~seed:(Int64.of_int (seed + 1)) () in
      let cpu = Sim.Cpu.create eng ~cores:4 ~efficiency:(fun ~active:_ -> 1.0) () in
      let db = Silo.Db.create eng cpu () in
      let t = Silo.Db.create_table db "t" in
      let nkeys = 6 in
      let key i = Printf.sprintf "k%d" i in
      for i = 0 to nkeys - 1 do
        Store.Table.insert t (key i) (Store.Record.make "0")
      done;
      let committed = ref [] in
      (* (tid, a, b, c) *)
      for w = 0 to nworkers - 1 do
        let rng = Sim.Rng.split (Sim.Engine.rng eng) in
        let _p =
          Sim.Engine.spawn eng (fun () ->
              for _ = 1 to 20 do
                let a = Sim.Rng.int rng nkeys
                and b = Sim.Rng.int rng nkeys
                and c = Sim.Rng.int rng nkeys in
                let r =
                  Silo.Db.run db ~worker:w (fun txn ->
                      let va =
                        int_of_string (Option.get (Silo.Txn.get txn t (key a)))
                      in
                      let vb =
                        int_of_string (Option.get (Silo.Txn.get txn t (key b)))
                      in
                      Silo.Txn.put txn t (key c) (string_of_int (va + vb + 1)))
                in
                match r.Silo.Db.tid with
                | Some tid -> committed := (tid, a, b, c) :: !committed
                | None -> ()
              done)
        in
        ()
      done;
      Sim.Engine.run eng;
      (* Serial replay in TID order. *)
      let serial = Array.make nkeys 0 in
      let in_order =
        List.sort (fun (x, _, _, _) (y, _, _, _) -> Silo.Tid.compare x y) !committed
      in
      List.iter
        (fun (_, a, b, c) -> serial.(c) <- serial.(a) + serial.(b) + 1)
        in_order;
      let final i =
        match Store.Table.get_live t (key i) with
        | Some r -> int_of_string r.Store.Record.value
        | None -> -1
      in
      List.for_all (fun i -> final i = serial.(i)) (List.init nkeys Fun.id))

(* [snap_get_many] against [snap_get] key by key: each key's history is
   installed with retention (floor 0, so every overwrite keeps its
   predecessor), which gives pins that see the current version, the
   prior one, nothing, or miss. A miss mid-batch must count the reads up
   to it, which the charged virtual time shows. *)
type key_history = (int * bool) list (* (ts step, deleted) per install *)

let snap_batch_gen =
  let open QCheck.Gen in
  let deleted = frequency [ (4, return false); (1, return true) ] in
  let install = pair (int_range 1 8) deleted in
  triple
    (array_repeat 8 (list_size (0 -- 3) install))
    (list_size (0 -- 14) (int_range 0 9))
    (int_range 0 30)

let snap_batch_arb =
  let print (hs, probes, pin) =
    Printf.sprintf "histories=%s probes=%s pin=%d"
      (String.concat "|"
         (Array.to_list
            (Array.map
               (fun h ->
                 let step (d, del) = Printf.sprintf "%d%s" d (if del then "x" else "") in
                 String.concat "," (List.map step h))
               hs)))
      (String.concat "," (List.map string_of_int probes))
      pin
  in
  QCheck.make ~print snap_batch_gen

let snap_get_many_qcheck hash =
  let repr = if hash then "hash" else "btree" in
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "snap_get_many = snap_get in order (%s)" repr)
    snap_batch_arb
    (fun ((histories : key_history array), probes, pin) ->
      let eng = Sim.Engine.create () in
      let cpu = Sim.Cpu.create eng ~cores:8 ~efficiency:(fun ~active:_ -> 1.0) () in
      let db = Silo.Db.create eng cpu ~hash_tables:(if hash then [ "t" ] else []) () in
      let t = Silo.Db.create_table db "t" in
      Array.iteri
        (fun i h ->
          let key = Printf.sprintf "k%d" i and ts = ref 0 in
          List.iteri
            (fun j (step, deleted) ->
              ts := !ts + step;
              let ts = !ts in
              let value = if deleted then None else Some (Printf.sprintf "v%d.%d" i j) in
              match Store.Table.get t key with
              | None ->
                  let r = Store.Record.make ~ts "" in
                  Store.Record.install r ~epoch:0 ~ts ~value;
                  Store.Table.insert t key r
              | Some r -> Store.Record.install_retain r ~floor:0 ~epoch:0 ~ts ~value)
            h)
        histories;
      let keys = Array.of_list (List.map (Printf.sprintf "k%d") probes) in
      let read body =
        let t0 = Sim.Engine.now eng in
        let r =
          match Silo.Db.read_at db ~audit:true ~pin body with
          | vs, obs -> Some (vs, obs)
          | exception Silo.Db.Snapshot_miss -> None
        in
        (r, Sim.Engine.now eng - t0)
      in
      let seq = ref (None, 0) and many = ref (None, 0) in
      ignore
        (Sim.Engine.spawn eng (fun () ->
             seq := read (fun s -> Array.map (Silo.Db.snap_get s t) keys);
             many := read (fun s -> Silo.Db.snap_get_many s t keys)));
      Sim.Engine.run eng;
      !seq = !many)

(* The read count stops at the first miss: [ok; miss; ok] charges two
   reads. *)
let test_snap_get_many_miss_count () =
  with_db (fun eng _cpu db ->
      let t = Silo.Db.create_table db "t" in
      Store.Table.insert t "a" (Store.Record.make ~ts:1 "a1");
      let r = Store.Record.make ~ts:5 "b5" in
      Store.Record.install_retain r ~floor:0 ~epoch:0 ~ts:20 ~value:(Some "b20");
      Store.Record.install_retain r ~floor:0 ~epoch:0 ~ts:30 ~value:(Some "b30");
      Store.Table.insert t "b" r;
      let costs = Silo.Costs.default in
      let charged = ref 0 and missed = ref false in
      ignore
        (Sim.Engine.spawn eng (fun () ->
             let t0 = Sim.Engine.now eng in
             let batch s = Silo.Db.snap_get_many s t [| "a"; "b"; "a" |] in
             (match Silo.Db.read_at db ~pin:10 batch with
             | _ -> ()
             | exception Silo.Db.Snapshot_miss -> missed := true);
             charged := Sim.Engine.now eng - t0));
      Sim.Engine.run eng;
      check_bool "missed" true !missed;
      check_int "two reads charged"
        (costs.Silo.Costs.txn_begin_ns + (2 * costs.Silo.Costs.snapshot_read_ns))
        !charged;
      check_int "one miss" 1 (Silo.Db.snapshot_misses db))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "silo"
    [
      ( "occ",
        [
          Alcotest.test_case "commit and read" `Quick test_commit_and_read;
          Alcotest.test_case "read own write" `Quick test_read_own_write;
          Alcotest.test_case "user abort" `Quick test_user_abort_rolls_back;
          Alcotest.test_case "no lost updates" `Quick test_no_lost_updates;
          Alcotest.test_case "phantom protection" `Quick test_phantom_protection;
          Alcotest.test_case "delete modes" `Quick test_physical_vs_tombstone_delete;
          Alcotest.test_case "absent-read validation" `Quick test_absent_read_validation;
          Alcotest.test_case "probe validation" `Quick test_probe_validation;
          Alcotest.test_case "delete then reinsert" `Quick test_delete_then_reinsert;
          Alcotest.test_case "read record replaced" `Quick test_read_record_replaced;
          Alcotest.test_case "insert over retained tombstone" `Quick
            test_insert_over_retained_tombstone;
          Alcotest.test_case "read tombstone compacted" `Quick
            test_read_tombstone_compacted;
          Alcotest.test_case "monotone timestamps" `Quick test_next_ts_monotone;
          qc oracle_qcheck;
        ] );
      ( "snap",
        [
          Alcotest.test_case "batched miss counts reads" `Quick
            test_snap_get_many_miss_count;
          qc (snap_get_many_qcheck false);
          qc (snap_get_many_qcheck true);
        ] );
      ( "replay",
        [
          Alcotest.test_case "cas semantics" `Quick test_replay_cas_semantics;
          Alcotest.test_case "bulk entry apply" `Quick test_bulk_replay_entry;
          Alcotest.test_case "bulk upto truncation" `Quick
            test_bulk_replay_upto_truncation;
          Alcotest.test_case "parallel ways equivalence" `Quick
            test_parallel_replay_ways_equivalence;
          Alcotest.test_case "compact during the charge" `Quick
            test_replay_compact_during_charge;
          qc replay_order_qcheck;
        ] );
    ]
