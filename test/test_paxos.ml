(* Tests for the replication substrate: election + MultiPaxos streams.

   The harness builds an n-replica cluster with k streams per replica and
   records every stream's committed sequence per replica, asserting
   sequential (no-holes) delivery as it goes. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim.Engine.ms

let entry ~epoch ~ts =
  Store.Wire.make_entry ~epoch
    [ { Store.Wire.ts; req = None; decision = None; writes = [ { Store.Wire.table = 0; key = "k"; value = Some "v" } ] } ]

type replica = {
  id : int;
  election : Paxos.Election.t;
  streams : Paxos.Stream.t array;
  committed : (int * Store.Wire.entry) list ref array; (* reverse order *)
  mutable dispatcher : Sim.Engine.proc option;
  mutable ticker : Sim.Engine.proc option;
}

type cluster = {
  eng : Sim.Engine.t;
  net : Paxos.Msg.t Sim.Net.t;
  replicas : replica array;
  elected : (int * int) list ref; (* (epoch, leader) in election order *)
}

let make_cluster ?(n = 3) ?(k = 2) ?(heartbeat = 20 * ms) ?(timeout = 100 * ms)
    ?(initial_leader = Some 0) ?(seed = 1L) ?faults () =
  let eng = Sim.Engine.create ~seed () in
  let net =
    Sim.Net.create eng ~nodes:n
      ~latency:(Sim.Net.Exp_jitter { base = 50 * Sim.Engine.us; jitter_mean = 20 * Sim.Engine.us })
  in
  (match faults with Some f -> Sim.Net.set_default_faults net f | None -> ());
  let elected = ref [] in
  let replicas =
    Array.init n (fun id ->
        let committed = Array.init k (fun _ -> ref []) in
        let streams = Array.make k None in
        let election = ref None in
        let on_commit s ~idx e =
          (* Sequential, exactly-once delivery. *)
          (match !(committed.(s)) with
          | [] -> if idx <> 0 then Alcotest.failf "replica %d stream %d: first commit %d" id s idx
          | (prev, _) :: _ ->
              if idx <> prev + 1 then
                Alcotest.failf "replica %d stream %d: hole %d -> %d" id s prev idx);
          committed.(s) := (idx, e) :: !(committed.(s))
        in
        let on_higher_epoch e =
          match !election with Some el -> Paxos.Election.observe_epoch el e | None -> ()
        in
        for s = 0 to k - 1 do
          streams.(s) <-
            Some
              (Paxos.Stream.create net ~id:s ~me:id ~on_commit:(on_commit s)
                 ~on_higher_epoch ())
        done;
        let streams = Array.map Option.get streams in
        let el =
          Paxos.Election.create net ~me:id ~heartbeat_interval:heartbeat
            ~election_timeout:timeout ?initial_leader
            ~on_leader_elected:(fun ~epoch ->
              elected := (epoch, id) :: !elected;
              Array.iter (fun s -> Paxos.Stream.become_leader s ~epoch) streams)
            ~on_new_epoch:(fun ~epoch:_ ~leader ->
              if leader <> Some id then Array.iter Paxos.Stream.step_down streams)
            ~on_heartbeat_tick:(fun () ->
              (* Loss recovery rides the heartbeat, as in the replica. *)
              Array.iter Paxos.Stream.retransmit streams)
            ()
        in
        election := Some el;
        { id; election = el; streams; committed; dispatcher = None; ticker = None })
  in
  let cluster = { eng; net; replicas; elected } in
  Array.iter
    (fun r ->
      let dispatcher =
        Sim.Engine.spawn eng ~name:(Printf.sprintf "dispatch-%d" r.id) (fun () ->
            while true do
              let m = Sim.Net.recv net r.id in
              match m.Paxos.Msg.body with
              | Paxos.Msg.Elect e -> Paxos.Election.handle r.election e ~from:m.Paxos.Msg.from
              | Paxos.Msg.Stream { stream; msg } ->
                  Paxos.Stream.handle r.streams.(stream) msg ~from:m.Paxos.Msg.from
              | Paxos.Msg.Client_req _ | Paxos.Msg.Client_rep _
              | Paxos.Msg.Read_req _ | Paxos.Msg.Read_lease _ -> ()
            done)
      in
      r.dispatcher <- Some dispatcher;
      r.ticker <- Some (Paxos.Election.start r.election))
    replicas;
  cluster

let crash c id =
  Sim.Net.crash c.net id;
  let r = c.replicas.(id) in
  Option.iter Sim.Engine.kill r.dispatcher;
  Option.iter Sim.Engine.kill r.ticker

let current_leader c =
  let leaders =
    Array.to_list c.replicas
    |> List.filter (fun r -> Paxos.Election.is_leader r.election && Sim.Net.is_up c.net r.id)
  in
  match leaders with [ r ] -> Some r | [] -> None | _ :: _ -> None

let committed_list r s = List.rev !(r.committed.(s))

(* Proposals can coalesce into one entry, so count transactions, not
   entries. *)
let committed_txns r s =
  List.fold_left (fun acc (_, e) -> acc + List.length e.Store.Wire.txns) 0 (committed_list r s)

(* Proposer process: feed [count] entries into stream [s] of whichever
   replica currently leads, one per [gap] ns. *)
let spawn_proposer c ~s ~count ~gap =
  Sim.Engine.spawn c.eng ~name:"proposer" (fun () ->
      let sent = ref 0 in
      while !sent < count do
        (match current_leader c with
        | Some r when Paxos.Stream.is_caught_up r.streams.(s) ->
            incr sent;
            Paxos.Stream.propose r.streams.(s) (entry ~epoch:(Paxos.Election.epoch r.election) ~ts:!sent)
        | Some _ | None -> ());
        Sim.Engine.sleep gap
      done)

let test_stable_replication () =
  let c = make_cluster () in
  let _p = spawn_proposer c ~s:0 ~count:50 ~gap:(1 * ms) in
  Sim.Engine.run ~until:(500 * ms) c.eng;
  Array.iter
    (fun r ->
      check_int
        (Printf.sprintf "replica %d committed all" r.id)
        50
        (List.length (committed_list r 0)))
    c.replicas;
  (* Same values in the same order everywhere. *)
  let reference = committed_list c.replicas.(0) 0 in
  Array.iter
    (fun r -> check_bool "identical logs" true (committed_list r 0 = reference))
    c.replicas

let test_streams_independent () =
  let c = make_cluster ~k:3 () in
  let _p0 = spawn_proposer c ~s:0 ~count:30 ~gap:(1 * ms) in
  let _p1 = spawn_proposer c ~s:1 ~count:10 ~gap:(3 * ms) in
  (* stream 2 gets nothing *)
  Sim.Engine.run ~until:(500 * ms) c.eng;
  let r = c.replicas.(1) in
  check_int "stream 0" 30 (List.length (committed_list r 0));
  check_int "stream 1" 10 (List.length (committed_list r 1));
  check_int "stream 2" 0 (List.length (committed_list r 2))

let test_cold_start_election () =
  let c = make_cluster ~initial_leader:None () in
  Sim.Engine.run ~until:(400 * ms) c.eng;
  (match current_leader c with
  | Some r -> check_bool "epoch advanced" true (Paxos.Election.epoch r.election >= 1)
  | None -> Alcotest.fail "no leader elected from cold start");
  (* Exactly one leader. *)
  let nleaders =
    Array.to_list c.replicas
    |> List.filter (fun r -> Paxos.Election.is_leader r.election)
    |> List.length
  in
  check_int "single leader" 1 nleaders

let test_failover_preserves_committed () =
  let c = make_cluster () in
  let _p = spawn_proposer c ~s:0 ~count:1000 ~gap:(1 * ms) in
  (* Kill the initial leader mid-run. *)
  Sim.Engine.schedule c.eng (200 * ms) (fun () -> crash c 0);
  Sim.Engine.run ~until:(2_000 * ms) c.eng;
  (match current_leader c with
  | Some r ->
      check_bool "new leader is not replica 0" true (r.id <> 0);
      check_bool "epoch bumped" true (Paxos.Election.epoch r.election >= 2)
  | None -> Alcotest.fail "no leader after failover");
  (* Agreement: survivors' logs must be identical prefixes of each other
     and strictly longer than what was committed before the crash. *)
  let l1 = committed_list c.replicas.(1) 0 and l2 = committed_list c.replicas.(2) 0 in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && is_prefix xs ys
  in
  check_bool "survivor logs agree" true (is_prefix l1 l2 || is_prefix l2 l1);
  check_bool "progress after failover" true (List.length l1 > 190)

let test_follower_catch_up_after_partition () =
  let c = make_cluster () in
  let _p = spawn_proposer c ~s:0 ~count:200 ~gap:(1 * ms) in
  (* Cut replica 2 off from both peers for a while; majority continues. *)
  Sim.Engine.schedule c.eng (50 * ms) (fun () ->
      Sim.Net.partition c.net 0 2;
      Sim.Net.partition c.net 1 2);
  Sim.Engine.schedule c.eng (150 * ms) (fun () -> Sim.Net.heal_all c.net);
  Sim.Engine.run ~until:(1_500 * ms) c.eng;
  let l0 = committed_list c.replicas.(0) 0 in
  let l2 = committed_list c.replicas.(2) 0 in
  check_int "master log complete" 200 (List.length l0);
  check_bool "partitioned follower caught up" true (List.length l2 >= 200);
  check_bool "same content" true (l0 = l2)

let test_old_leader_steps_down () =
  let c = make_cluster () in
  (* Partition the leader from both followers: they elect a new leader;
     when healed, the old leader must step down via Nack/Heartbeat. *)
  Sim.Engine.schedule c.eng (50 * ms) (fun () ->
      Sim.Net.partition c.net 0 1;
      Sim.Net.partition c.net 0 2);
  Sim.Engine.schedule c.eng (600 * ms) (fun () -> Sim.Net.heal_all c.net);
  Sim.Engine.run ~until:(1_500 * ms) c.eng;
  let r0 = c.replicas.(0) in
  check_bool "old leader stepped down" false (Paxos.Election.is_leader r0.election);
  let nleaders =
    Array.to_list c.replicas
    |> List.filter (fun r -> Paxos.Election.is_leader r.election)
    |> List.length
  in
  check_int "exactly one leader after heal" 1 nleaders

(* A leader that stops serving (a tainted ex-leader) is made ineligible.
   If it kept heartbeating, no follower would ever time out and the group
   would stay leaderless for good; it must resign so a successor is
   elected. *)
let test_ineligible_leader_resigns () =
  let c = make_cluster () in
  Sim.Engine.schedule c.eng (50 * ms) (fun () ->
      Paxos.Election.set_eligible c.replicas.(0).election false);
  Sim.Engine.run ~until:(600 * ms) c.eng;
  check_bool "ineligible leader resigned" false
    (Paxos.Election.is_leader c.replicas.(0).election);
  match current_leader c with
  | Some r ->
      check_bool "a successor leads a later epoch" true
        (r.id <> 0 && Paxos.Election.epoch r.election >= 2)
  | None -> Alcotest.fail "no successor elected"

let test_candidacy_backoff_bounded () =
  (* Livelock hardening: an isolated replica can never win an election, so
     without backoff it would start a candidacy (and bump its epoch) every
     ~timeout — 25+ over three seconds — and on heal its inflated epoch
     would keep disrupting the stable majority. The capped exponential
     backoff (2^min(failures, 2) × base + jitter) bounds the rate, and the
     first heartbeat accepted after healing resets the failure count. *)
  let c = make_cluster () in
  Sim.Engine.schedule c.eng (100 * ms) (fun () ->
      Sim.Net.partition c.net 0 2;
      Sim.Net.partition c.net 1 2);
  Sim.Engine.run ~until:(3_100 * ms) c.eng;
  let r2 = c.replicas.(2) in
  let tried = Paxos.Election.failed_candidacies r2.election in
  check_bool "isolated node kept trying" true (tried >= 3);
  check_bool (Printf.sprintf "candidacies bounded by backoff (got %d)" tried) true
    (tried <= 12);
  (* Majority side is undisturbed: replica 0 still leads epoch 1. *)
  check_bool "majority leader undisturbed" true
    (Paxos.Election.is_leader c.replicas.(0).election);
  Sim.Net.heal_all c.net;
  Sim.Engine.run ~until:(4_600 * ms) c.eng;
  let nleaders =
    Array.to_list c.replicas
    |> List.filter (fun r -> Paxos.Election.is_leader r.election)
    |> List.length
  in
  check_int "exactly one leader after heal" 1 nleaders;
  check_int "backoff reset once the node rejoins" 0
    (Paxos.Election.failed_candidacies r2.election)

let test_log_truncation_bounds_memory () =
  let c = make_cluster () in
  let _p = spawn_proposer c ~s:0 ~count:600 ~gap:(1 * ms) in
  Sim.Engine.run ~until:(1_500 * ms) c.eng;
  Array.iter
    (fun r ->
      check_int "all committed" 600 (List.length (committed_list r 0));
      let retained = Paxos.Stream.retained_slots r.streams.(0) in
      check_bool
        (Printf.sprintf "replica %d log compacted (%d retained)" r.id retained)
        true (retained < 300);
      check_bool "truncation accounted" true
        ((Paxos.Stream.stats r.streams.(0)).Paxos.Stream.truncated > 0))
    c.replicas

let test_truncation_freezes_for_lagging_follower () =
  (* While a follower is partitioned, the leader must stop truncating past
     the follower's last known commit, so the follower can still catch up
     from the retained log after healing. *)
  let c = make_cluster () in
  let _p = spawn_proposer c ~s:0 ~count:500 ~gap:(1 * ms) in
  Sim.Engine.schedule c.eng (50 * ms) (fun () ->
      Sim.Net.partition c.net 0 2;
      Sim.Net.partition c.net 1 2);
  Sim.Engine.schedule c.eng (400 * ms) (fun () -> Sim.Net.heal_all c.net);
  Sim.Engine.run ~until:(2_000 * ms) c.eng;
  let l0 = committed_list c.replicas.(0) 0 and l2 = committed_list c.replicas.(2) 0 in
  check_int "leader committed everything" 500 (List.length l0);
  check_bool "lagging follower fully caught up" true (l0 = l2)

let test_failover_after_truncation () =
  let c = make_cluster () in
  let _p = spawn_proposer c ~s:0 ~count:800 ~gap:(1 * ms) in
  Sim.Engine.schedule c.eng (600 * ms) (fun () -> crash c 0);
  Sim.Engine.run ~until:(3_000 * ms) c.eng;
  (match current_leader c with
  | Some r -> check_bool "new leader" true (r.id <> 0)
  | None -> Alcotest.fail "no leader after failover");
  let l1 = committed_list c.replicas.(1) 0 and l2 = committed_list c.replicas.(2) 0 in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && is_prefix xs ys
  in
  check_bool "agreement preserved across truncation + failover" true
    (is_prefix l1 l2 || is_prefix l2 l1);
  check_bool "progress" true (List.length l1 > 500)

(* Proposal coalescing: a back-to-back burst while the first quorum round
   is still in flight must buffer and then merge into one follow-up round
   — fewer entries on the wire, every transaction delivered exactly once
   and in order on every replica. *)
let test_proposal_coalescing () =
  let c = make_cluster () in
  Sim.Engine.schedule c.eng (50 * ms) (fun () ->
      match current_leader c with
      | Some r ->
          (* All 20 proposals land in one event: the first opens a round,
             the other 19 find it in flight and buffer. *)
          for ts = 1 to 20 do
            Paxos.Stream.propose r.streams.(0)
              (entry ~epoch:(Paxos.Election.epoch r.election) ~ts)
          done
      | None -> Alcotest.fail "no leader at burst time");
  Sim.Engine.run ~until:(500 * ms) c.eng;
  let reference = committed_list c.replicas.(0) 0 in
  check_bool
    (Printf.sprintf "fewer quorum rounds than proposals (got %d)"
       (List.length reference))
    true
    (List.length reference < 20);
  check_bool "first proposal went out alone" true (List.length reference >= 2);
  Array.iter
    (fun r ->
      check_bool
        (Printf.sprintf "replica %d log identical" r.id)
        true
        (committed_list r 0 = reference))
    c.replicas;
  let ts_order =
    List.concat_map
      (fun (_, e) ->
        List.map (fun (t : Store.Wire.txn_log) -> t.Store.Wire.ts) e.Store.Wire.txns)
      reference
  in
  check_bool "every transaction delivered once, in order" true
    (ts_order = List.init 20 (fun i -> i + 1));
  let st = Paxos.Stream.stats c.replicas.(0).streams.(0) in
  check_bool "merges counted in stats" true (st.Paxos.Stream.coalesced > 0);
  check_bool "coalesce factor reflects multi-entry rounds" true
    (Paxos.Stream.coalesce_factor c.replicas.(0).streams.(0) > 1.0)

(* Randomized agreement property: random leader crashes and partitions;
   afterwards all replicas' committed logs for every stream must be
   prefixes of one another (agreement + no divergence). Proposals coalesce
   while a round is in flight — merging must never cost agreement,
   whatever the failure schedule. *)
let agreement_prop seed =
      let c = make_cluster ~k:2 () in
      let rng = Sim.Rng.create (Int64.of_int (seed + 17)) in
      let _p0 = spawn_proposer c ~s:0 ~count:300 ~gap:(1 * ms) in
      let _p1 = spawn_proposer c ~s:1 ~count:300 ~gap:(1 * ms) in
      (* One random partition episode plus one crash of the current leader. *)
      let t_part = 20 * ms + Sim.Rng.int rng (200 * ms) in
      let isolate = Sim.Rng.int rng 3 in
      Sim.Engine.schedule c.eng t_part (fun () ->
          Array.iter
            (fun (r : replica) ->
              if r.id <> isolate then Sim.Net.partition c.net isolate r.id)
            c.replicas);
      Sim.Engine.schedule c.eng (t_part + (150 * ms)) (fun () -> Sim.Net.heal_all c.net);
      let t_crash = 400 * ms + Sim.Rng.int rng (200 * ms) in
      Sim.Engine.schedule c.eng t_crash (fun () ->
          match current_leader c with Some r -> crash c r.id | None -> ());
      Sim.Engine.run ~until:(3_000 * ms) c.eng;
      let rec is_prefix a b =
        match (a, b) with
        | [], _ -> true
        | _, [] -> false
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
      in
      let ok = ref true in
      for s = 0 to 1 do
        let logs =
          Array.to_list c.replicas
          |> List.filter (fun r -> Sim.Net.is_up c.net r.id)
          |> List.map (fun r -> committed_list r s)
        in
        List.iter
          (fun a -> List.iter (fun b -> if not (is_prefix a b || is_prefix b a) then ok := false) logs)
          logs
      done;
      (* Election safety: at most one leader per epoch, ever. *)
      let epochs = List.map fst !(c.elected) in
      let distinct = List.sort_uniq compare epochs in
      if List.length distinct <> List.length epochs then ok := false;
      !ok

let agreement_qcheck =
  QCheck.Test.make ~name:"paxos agreement under random failures" ~count:15
    QCheck.(int_range 0 10_000)
    agreement_prop

(* Lossless but hostile delivery: every message may be duplicated and
   delayed by a random reorder jitter. The on_commit harness already fails
   the test on any hole or out-of-order delivery, so this property checks
   both agreement and no-hole sequential commit under dup + reorder. *)
let dup_reorder_prop seed =
      let rng = Sim.Rng.create (Int64.of_int (seed + 3)) in
      let dup = 0.1 +. (float_of_int (Sim.Rng.int rng 300) /. 1000.0) in
      let reorder = Sim.Rng.int rng (2 * ms) in
      let c =
        make_cluster ~k:2
          ~seed:(Int64.of_int (seed + 101))
          ~faults:{ Sim.Net.drop = 0.0; dup; reorder }
          ()
      in
      let _p0 = spawn_proposer c ~s:0 ~count:200 ~gap:(1 * ms) in
      let _p1 = spawn_proposer c ~s:1 ~count:200 ~gap:(1 * ms) in
      Sim.Engine.run ~until:(2_000 * ms) c.eng;
      (* Drain with clean links so every replica converges. *)
      Sim.Net.clear_faults c.net;
      Sim.Engine.run ~until:(3_000 * ms) c.eng;
      let ok = ref (Sim.Net.messages_duplicated c.net > 0) in
      for s = 0 to 1 do
        let reference = committed_list c.replicas.(0) s in
        if committed_txns c.replicas.(0) s < 200 then ok := false;
        Array.iter (fun r -> if committed_list r s <> reference then ok := false) c.replicas
      done;
      !ok

let dup_reorder_qcheck =
  QCheck.Test.make ~name:"paxos agreement under duplication + reordering" ~count:15
    QCheck.(int_range 0 10_000)
    dup_reorder_prop

(* Inputs on which the property failed while the harness never
   retransmitted: a follower that saw Commit(k) before Accept(k) never
   learned k, since only the leader's heartbeat retransmit re-sends the
   Accept. The first nine failed that way without proposal coalescing,
   the other eight with it; all pass with the retransmit. *)
let test_dup_reorder_regressions () =
  List.iter
    (fun seed ->
      check_bool (Printf.sprintf "dup + reorder input %d" seed) true
        (dup_reorder_prop seed))
    [ 1791; 1821; 3711; 5548; 7083; 8255; 8609; 9244; 9525;
      2221; 3590; 5687; 5827; 6919; 7085; 8229; 9151 ]

(* ---------- checkpoint bootstrap floor ---------- *)

let test_entry i =
  Store.Wire.make_entry ~epoch:1 [ { Store.Wire.ts = 100 + i; req = None; decision = None; writes = [] } ]

let mk_bare_stream eng =
  let net =
    Sim.Net.create eng ~nodes:3
      ~latency:(Sim.Net.Exp_jitter { base = 50 * Sim.Engine.us; jitter_mean = 20 * Sim.Engine.us })
  in
  let committed = ref [] in
  let s =
    Paxos.Stream.create net ~id:0 ~me:1
      ~on_commit:(fun ~idx e -> committed := (idx, e) :: !committed)
      ~on_higher_epoch:(fun _ -> ())
      ()
  in
  (s, committed)

let test_bootstrap_floor () =
  let eng = Sim.Engine.create () in
  let s, committed = mk_bare_stream eng in
  (* Position a fresh follower as if slots 0-9 were checkpoint-covered and
     truncated cluster-wide: the commit index jumps, the gap is recorded as
     truncated, and no on_commit fires for the covered slots. *)
  Paxos.Stream.set_bootstrap_floor s ~idx:10;
  Alcotest.(check int) "commit index jumps" 9 (Paxos.Stream.commit_index s);
  Alcotest.(check int) "gap recorded as truncated" 10 (Paxos.Stream.truncated_below s);
  Alcotest.(check int) "no commits for covered slots" 0 (List.length !committed);
  (* Journal-tail injection continues from the floor, firing per slot. *)
  Paxos.Stream.inject_committed_at s ~idx:10 (test_entry 0);
  Paxos.Stream.inject_committed_at s ~idx:11 (test_entry 1);
  Alcotest.(check int) "tail committed" 11 (Paxos.Stream.commit_index s);
  Alcotest.(check int) "on_commit fired per tail slot" 2 (List.length !committed);
  (* A floor at or below the commit index is a no-op, never a regression. *)
  Paxos.Stream.set_bootstrap_floor s ~idx:5;
  Alcotest.(check int) "floor below commit is a no-op" 11 (Paxos.Stream.commit_index s);
  (* Re-injecting an already-committed index is a caller bug. *)
  (match Paxos.Stream.inject_committed_at s ~idx:11 (test_entry 9) with
  | () -> Alcotest.fail "expected Invalid_argument for committed idx"
  | exception Invalid_argument _ -> ());
  (* Leading streams refuse the floor outright. *)
  Paxos.Stream.become_leader s ~epoch:2;
  match Paxos.Stream.set_bootstrap_floor s ~idx:50 with
  | () -> Alcotest.fail "expected Invalid_argument on a leader"
  | exception Invalid_argument _ -> ()

let test_trunc_floor_monotone () =
  let eng = Sim.Engine.create () in
  let s, _ = mk_bare_stream eng in
  Alcotest.(check int) "floor starts at zero" 0 (Paxos.Stream.trunc_floor s);
  Paxos.Stream.set_trunc_floor s 5;
  Alcotest.(check int) "floor set" 5 (Paxos.Stream.trunc_floor s);
  Paxos.Stream.set_trunc_floor s 3;
  Alcotest.(check int) "floor never regresses" 5 (Paxos.Stream.trunc_floor s);
  Alcotest.(check bool) "fresh stream not stalled" false (Paxos.Stream.trunc_stalled s)

(* A deposed epoch-1 leader still holds its own accepts at slots 0-1 that
   epoch 2 overwrote and committed. Catching up from a donor that has
   since compacted below slot 2, the reply carries only 2-5: the follower
   must not promote its stale 0-1 to committed on the donor's word (that
   broke agreement under checkpoint chaos); the gap needs a rebuild. *)
let test_fetch_skips_compacted_slots () =
  let eng = Sim.Engine.create () in
  let s, committed = mk_bare_stream eng in
  let slot ~epoch i = { Paxos.Msg.a_idx = i; a_epoch = epoch; a_entry = test_entry i } in
  for i = 0 to 1 do
    Paxos.Stream.handle s ~from:0
      (Paxos.Msg.Accept { epoch = 1; idx = i; commit_idx = -1; entry = test_entry i })
  done;
  Paxos.Stream.handle s ~from:2
    (Paxos.Msg.Fetch_rep
       { commit_idx = 5; truncated_below = 2; entries = List.init 4 (fun i -> slot ~epoch:2 (i + 2)) });
  Alcotest.(check int) "stale slots stay uncommitted" (-1) (Paxos.Stream.commit_index s);
  Alcotest.(check int) "no on_commit" 0 (List.length !committed);
  Alcotest.(check bool) "gap flagged for rebuild" true (Paxos.Stream.trunc_stalled s)

(* ---------- membership: quorum rules, vote persistence, Timeout_now ---------- *)

let test_member_quorum () =
  let stable = Paxos.Member.stable [ 0; 1; 2 ] in
  check_bool "stable majority" true (Paxos.Member.quorum stable [ 0; 1 ]);
  check_bool "stable minority" false (Paxos.Member.quorum stable [ 0 ]);
  check_bool "learner acks ignored" false (Paxos.Member.quorum stable [ 0; 5 ]);
  check_bool "learner plus majority" true
    (Paxos.Member.quorum stable [ 0; 1; 5 ]);
  let joint = Paxos.Member.joint ~old_:[ 0; 1; 2 ] ~new_:[ 2; 3; 4 ] in
  (* Joint quorums need a majority of BOTH configurations — the
     intersection argument. *)
  check_bool "majority of both sides" true
    (Paxos.Member.quorum joint [ 0; 1; 2; 3 ]);
  check_bool "old majority alone is not enough" false
    (Paxos.Member.quorum joint [ 0; 1; 2 ]);
  check_bool "new majority alone is not enough" false
    (Paxos.Member.quorum joint [ 2; 3; 4 ]);
  check_bool "overlap node counts for both" true
    (Paxos.Member.quorum joint [ 0; 2; 3 ]);
  Alcotest.(check (list int))
    "joint voters are the union" [ 0; 1; 2; 3; 4 ]
    (Paxos.Member.voters joint);
  check_bool "views equal" true
    (Paxos.Member.equal stable (Paxos.Member.stable [ 2; 1; 0 ]))

(* A replica that is removed from the membership and later re-added (or
   rebuilt in between) must still remember the vote it granted: forgetting
   [voted_for] lets one ballot collect two votes from the same node. *)
let test_vote_survives_membership_cycle () =
  let eng = Sim.Engine.create () in
  let net =
    Sim.Net.create eng ~nodes:3
      ~latency:
        (Sim.Net.Exp_jitter
           { base = 50 * Sim.Engine.us; jitter_mean = 20 * Sim.Engine.us })
  in
  let votes = Array.make 2 [] in
  (* Candidates 0 and 1 are passive recorders of the vote replies. *)
  for cand = 0 to 1 do
    ignore
      (Sim.Engine.spawn eng ~name:(Printf.sprintf "cand-%d" cand) (fun () ->
           while true do
             match (Sim.Net.recv net cand).Paxos.Msg.body with
             | Paxos.Msg.Elect (Paxos.Msg.Vote { epoch; granted }) ->
                 votes.(cand) <- (epoch, granted) :: votes.(cand)
             | _ -> ()
           done))
  done;
  let mk () =
    Paxos.Election.create net ~me:2
      ~on_leader_elected:(fun ~epoch:_ -> ())
      ~on_new_epoch:(fun ~epoch:_ ~leader:_ -> ())
      ()
  in
  let el = mk () in
  (* Grant epoch 5 to candidate 0. *)
  Paxos.Election.handle el
    (Paxos.Msg.Request_vote { epoch = 5; candidate = 0 })
    ~from:0;
  (* Membership churn: removed at gen 1, re-added at gen 2. The backoff
     reset on a generation change must not clear the granted vote. *)
  Paxos.Election.set_view el (Paxos.Member.stable [ 0; 1 ]) ~gen:1;
  Paxos.Election.set_view el (Paxos.Member.stable [ 0; 1; 2 ]) ~gen:2;
  Paxos.Election.handle el
    (Paxos.Msg.Request_vote { epoch = 5; candidate = 1 })
    ~from:1;
  (* Same cycle across a rebuild: only the salvaged vote protects the
     ballot. *)
  let el2 = mk () in
  Paxos.Election.import_vote el2 (Paxos.Election.export_vote el);
  Paxos.Election.handle el2
    (Paxos.Msg.Request_vote { epoch = 5; candidate = 1 })
    ~from:1;
  Sim.Engine.run eng;
  (match votes.(0) with
  | [ (5, true) ] -> ()
  | v ->
      Alcotest.failf "candidate 0 expected one granted vote, got %d (%s)"
        (List.length v)
        (String.concat ","
           (List.map (fun (e, g) -> Printf.sprintf "%d:%b" e g) v)));
  List.iter
    (fun (e, g) ->
      check_int "denied vote is for epoch 5" 5 e;
      check_bool "epoch 5 already voted: denied" false g)
    votes.(1);
  check_int "both denials arrived" 2 (List.length votes.(1))

(* Planned handoff: a Timeout_now grant makes the target stand immediately
   — the new leader emerges well inside the election timeout, with no
   heartbeat-silence gap. *)
let test_timeout_now_handoff () =
  let c = make_cluster () in
  Sim.Engine.run ~until:(30 * ms) c.eng;
  check_bool "initial leader serving" true
    (Paxos.Election.is_leader c.replicas.(0).election);
  let t0 = Sim.Engine.now c.eng in
  Paxos.Election.handle c.replicas.(1).election
    (Paxos.Msg.Timeout_now { epoch = 2 })
    ~from:0;
  (* Run strictly less than the 100 ms election timeout: a timeout-driven
     election cannot have fired, so any new leader came from the grant. *)
  Sim.Engine.run ~until:(t0 + (50 * ms)) c.eng;
  check_bool "target took over" true
    (Paxos.Election.is_leader c.replicas.(1).election);
  check_int "above the granted epoch" 3
    (Paxos.Election.epoch c.replicas.(1).election);
  check_bool "old leader stepped down" false
    (Paxos.Election.is_leader c.replicas.(0).election);
  (* A grant to a non-member is refused: removed nodes cannot be handed
     the cluster. *)
  Paxos.Election.set_view
    c.replicas.(2).election
    (Paxos.Member.stable [ 0; 1 ])
    ~gen:1;
  Paxos.Election.handle c.replicas.(2).election
    (Paxos.Msg.Timeout_now { epoch = 4 })
    ~from:1;
  Sim.Engine.run ~until:(t0 + (90 * ms)) c.eng;
  check_bool "non-member grant refused" false
    (Paxos.Election.is_leader c.replicas.(2).election)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "paxos"
    [
      ( "stream",
        [
          Alcotest.test_case "stable replication" `Quick test_stable_replication;
          Alcotest.test_case "independent streams" `Quick test_streams_independent;
          Alcotest.test_case "follower catch-up" `Quick test_follower_catch_up_after_partition;
          Alcotest.test_case "log truncation bounds memory" `Quick
            test_log_truncation_bounds_memory;
          Alcotest.test_case "truncation freezes for laggard" `Quick
            test_truncation_freezes_for_lagging_follower;
          Alcotest.test_case "failover after truncation" `Quick
            test_failover_after_truncation;
          Alcotest.test_case "proposal coalescing" `Quick test_proposal_coalescing;
          Alcotest.test_case "checkpoint bootstrap floor" `Quick test_bootstrap_floor;
          Alcotest.test_case "trunc floor monotone" `Quick test_trunc_floor_monotone;
          Alcotest.test_case "fetch skips compacted slots" `Quick
            test_fetch_skips_compacted_slots;
        ] );
      ( "election",
        [
          Alcotest.test_case "cold start" `Quick test_cold_start_election;
          Alcotest.test_case "failover preserves commits" `Quick
            test_failover_preserves_committed;
          Alcotest.test_case "old leader steps down" `Quick test_old_leader_steps_down;
          Alcotest.test_case "candidacy backoff bounded" `Quick
            test_candidacy_backoff_bounded;
          Alcotest.test_case "ineligible leader resigns" `Quick
            test_ineligible_leader_resigns;
        ] );
      ( "membership",
        [
          Alcotest.test_case "joint quorum rules" `Quick test_member_quorum;
          Alcotest.test_case "vote survives membership cycle" `Quick
            test_vote_survives_membership_cycle;
          Alcotest.test_case "timeout-now handoff" `Quick
            test_timeout_now_handoff;
        ] );
      ( "properties",
        [
          qc agreement_qcheck;
          qc dup_reorder_qcheck;
          Alcotest.test_case "duplication + reordering regressions" `Quick
            test_dup_reorder_regressions;
        ] );
    ]
