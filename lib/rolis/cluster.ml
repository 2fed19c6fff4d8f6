let src = Logs.Src.create "rolis.cluster" ~doc:"Cluster coordination events"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  cfg : Config.t;
  eng : Sim.Engine.t;
  net : Paxos.Msg.t Sim.Net.t;
  app : App.t;
  on_durable :
    (replica:int -> stream:int -> idx:int -> Store.Wire.entry -> unit) option;
  replicas : Replica.t array; (* pool-sized: members + spare slots *)
  mutable w_start : int;
  mutable w_stop : int;
  (* Cluster-side membership mirror, advanced as operations complete.
     Ground truth is the replicated configuration log; this mirror decides
     which pool slots the management plane treats as voters. *)
  mutable members : int list;
  mutable mgen : int;
  mutable learners : int list;
  (* Client-side parked-time / redirect-count stats: pass to
     {!Client.spawn} (via [?stats]) so every session records into it;
     merged into [stage_breakdown]. Read-only sessions record into the
     separate [client_read_stats] so read and write dispositions stay
     distinguishable. *)
  client_stats : Stats.t;
  client_read_stats : Stats.t;
  mutable adds : int;
  mutable removes : int;
  mutable handoffs : int;
  mutable ops_skipped : int;
  (* Per-replica durable disk: the newest checkpoint image each replica
     published, surviving that replica's crash (a restarted node can load
     its own image, and any image is reachable for bootstrap even while
     its owner is down). *)
  disk : Checkpoint.replica_image option array;
  (* Dedup evidence harvested from journal entries before truncation
     drops them: (stream, idx) -> request keys that counted as applied
     (already filtered by the final-watermark rule at harvest time).
     {!Check.exactly_once} consults it for slots absent from every
     surviving journal. *)
  harvested : (int * int, (int * int) list) Hashtbl.t;
  (* Highest per-stream cover already truncated cluster-wide (inclusive);
     a bootstrap image must cover at least this much. *)
  mutable trunc_frontier : int array;
  (* Retention gate: a freshly quorum-stable frontier waits
     [checkpoint_retention] before truncation applies, so a follower
     lagging within the permitted window still finds its slots in the
     log. *)
  mutable pending_frontier : (int * int array) option;
  mutable truncation_rounds : int;
  mutable auto_rebuilds : int;
}

(* Quorum-stable frontier over the persisted images: rank images by their
   scalar min-over-streams cover, keep the top-majority, take the
   elementwise min F over those. Every kept image then covers F on every
   stream, and with images persisted on disk each remains reachable even
   while its owner is down — so some image covering F always exists for a
   rebuild, whatever minority the nemesis takes. Majority is over the
   current voter set: spares and removed nodes neither count toward nor
   against stability. *)
let stable_frontier t =
  let images = List.filter_map (fun i -> t.disk.(i)) t.members in
  let majority = (List.length t.members / 2) + 1 in
  if List.length images < majority then None
  else begin
    let scalar ck =
      Array.fold_left min max_int ck.Checkpoint.ri_cover
    in
    let ranked =
      List.sort (fun a b -> compare (scalar b) (scalar a)) images
    in
    let top = List.filteri (fun i _ -> i < majority) ranked in
    match top with
    | [] -> None
    | ck0 :: rest ->
        let f = Array.copy ck0.Checkpoint.ri_cover in
        List.iter
          (fun ck ->
            Array.iteri
              (fun s c -> if c < f.(s) then f.(s) <- c)
              ck.Checkpoint.ri_cover)
          rest;
        Some f
  end

(* Record the request keys of every journal entry at or below [cover]
   before those entries can disappear from the union of surviving
   journals — at truncation, and when a rebuilt replica restarts with a
   checkpoint instead of the full journal. Idempotent per slot. *)
let harvest_upto t ~donors ~cover =
  let final_w epoch =
    List.fold_left
      (fun acc r ->
        match acc with
        | Some _ -> acc
        | None -> Replica.final_watermark r ~epoch)
      None donors
  in
  List.iter
    (fun r ->
      List.iter
        (fun (s, idx, (e : Store.Wire.entry)) ->
          if idx <= cover.(s) && not (Hashtbl.mem t.harvested (s, idx)) then begin
            let w =
              match final_w e.Store.Wire.epoch with
              | Some w -> w
              | None -> max_int
              (* Unsealed epoch: an entry below a checkpoint cover was
                 consumed whole (last_ts <= the replay watermark), so all
                 its transactions end up below the eventual final W. *)
            in
            let keys =
              List.filter_map
                (fun (txn : Store.Wire.txn_log) ->
                  match txn.Store.Wire.req with
                  | Some key when txn.Store.Wire.ts <= w -> Some key
                  | Some _ | None -> None)
                e.Store.Wire.txns
            in
            Hashtbl.replace t.harvested (s, idx) keys
          end)
        (Replica.journal r))
    donors

let alive_list t =
  Array.to_list t.replicas |> List.filter Replica.is_alive

(* The image a rebuilt replica bootstraps from: any persisted image whose
   cover reaches the already-truncated frontier on every stream (entries
   below [trunc_frontier] are gone from every surviving journal, so a
   shallower image would leave an unfillable gap). Among the valid ones,
   prefer the deepest cover, then the freshest — both shorten the tail. *)
let best_image t =
  Array.to_list t.disk
  |> List.filter_map Fun.id
  |> List.filter (fun ck ->
         let ok = ref true in
         Array.iteri
           (fun s f -> if ck.Checkpoint.ri_cover.(s) < f then ok := false)
           t.trunc_frontier;
         !ok)
  |> List.fold_left
       (fun acc ck ->
         let key ck =
           ( Array.fold_left min max_int ck.Checkpoint.ri_cover,
             ck.Checkpoint.ri_taken_at )
         in
         match acc with
         | Some best when key best >= key ck -> acc
         | Some _ | None -> Some ck)
       None

let engine t = t.eng
let network t = t.net
let config t = t.cfg
let replicas t = t.replicas
let replica t i = t.replicas.(i)
let members t = t.members
let learners t = t.learners
let membership_gen t = t.mgen
let client_stats t = t.client_stats
let client_read_stats t = t.client_read_stats
let adds t = t.adds
let removes t = t.removes
let handoffs t = t.handoffs
let ops_skipped t = t.ops_skipped

let leader t =
  Array.to_list t.replicas
  |> List.find_opt (fun r -> Replica.is_serving r && Replica.is_alive r)

(* Window management is split out so a {!Shard} deployment — many
   clusters on ONE shared engine — can advance virtual time once and
   bracket every cluster's measurement window around it. *)
let reset_window t =
  Array.iter
    (fun r ->
      Stats.reset_window (Replica.stats r);
      Sim.Cpu.reset_busy (Replica.cpu r))
    t.replicas;
  Stats.reset_window t.client_stats;
  Stats.reset_window t.client_read_stats

let open_window t = t.w_start <- Sim.Engine.now t.eng
let close_window t = t.w_stop <- Sim.Engine.now t.eng

let run t ?(warmup = 0) ~duration () =
  if warmup > 0 then begin
    Sim.Engine.run ~until:(Sim.Engine.now t.eng + warmup) t.eng;
    reset_window t
  end;
  open_window t;
  Sim.Engine.run ~until:(t.w_start + duration) t.eng;
  close_window t

let crash_replica t i =
  Sim.Net.crash t.net i;
  Replica.crash t.replicas.(i)

let hook t id =
  Option.map
    (fun f ~stream ~idx entry -> f ~replica:id ~stream ~idx entry)
    t.on_durable

(* Crash-recovery: a restarted machine keeps nothing but its disk — it is
   rebuilt from scratch (fresh database, fresh streams) and rejoins as a
   follower, seeded by {!Replica.rebuild}: from the newest persisted image
   plus the journal tail above its cover when checkpoints are on, so
   rebuild time is bounded by the checkpoint interval rather than history
   length, else from the per-stream union of every alive replica's
   journal. The remaining gap closes through the ordinary fetch path
   either way.

   A *voluntary* rebuild of a still-alive replica (a tainted ex-leader) is
   different: only its database is suspect. The old replica heads the
   donor set, so its journal and its accepted-but-uncommitted slots carry
   over — an accepted slot here may be the last surviving copy of an
   entry committed at a since-dead leader, and wiping it would let the
   next Prepare quorum no-op-fill a chosen slot. *)
(* The newest membership view any alive replica has adopted — the cluster
   mirror may lag a change that completed while the coordinator was not
   looking. Falls back to the mirror when everything is down. *)
let current_view t =
  let best =
    Array.fold_left
      (fun acc r ->
        if Replica.is_alive r then
          match acc with
          | Some (g, _) when g >= Replica.mgen r -> acc
          | Some _ | None -> Some (Replica.mgen r, Replica.view r)
        else acc)
      None t.replicas
  in
  match best with
  | Some (g, v) -> (v, g)
  | None -> (Paxos.Member.stable t.members, t.mgen)

let restart_replica ?(learner = false) t i =
  let old = t.replicas.(i) in
  let was_alive = Replica.is_alive old in
  if was_alive then begin
    Sim.Net.crash t.net i;
    Replica.crash old
  end;
  let donors =
    Array.to_list t.replicas
    |> List.filter (fun r -> Replica.id r <> i && Replica.is_alive r)
  in
  let donors = if was_alive then old :: donors else donors in
  Sim.Net.recover t.net i;
  let r =
    Replica.create t.cfg t.eng t.net ~id:i ~app:t.app
      ~membership:(current_view t) ~learner ?on_durable:(hook t i) ()
  in
  let ckpt = if t.cfg.Config.checkpoint_interval > 0 then best_image t else None in
  (* The rebuilt replica's journal will hold only the tail above the
     image's cover; harvest the dedup evidence of everything below it
     while the donors still archive those entries. *)
  Option.iter (fun ck -> harvest_upto t ~donors ~cover:ck.Checkpoint.ri_cover) ckpt;
  Replica.rebuild ?ckpt r ~donors;
  (* Persistent votedFor: even a crash-restarted node must remember the
     vote it granted, or — removed, re-added and restarted inside one
     ballot — it could vote twice in the same epoch. *)
  Replica.salvage_vote r ~old;
  t.replicas.(i) <- r;
  (* A leader's learner registrations die with its stream objects on
     restart; re-assert them everywhere. *)
  if t.learners <> [] then
    Array.iter
      (fun r -> if Replica.is_alive r then Replica.set_learners r t.learners)
      t.replicas

(* The checkpoint/truncation coordinator (modeled as a crash-free
   cluster-management duty, like the membership service real deployments
   rely on): persist finished images to each replica's disk, advance the
   quorum-stable frontier behind the retention gate, drive journal
   truncation, and rebuild any follower wedged behind a compaction floor
   ({!Paxos.Stream.trunc_stalled}). Spawned only when
   [checkpoint_interval > 0]. *)
let coordinator_loop t () =
  while true do
    Sim.Engine.sleep t.cfg.Config.watermark_interval;
    (* 1. Persist newest images. *)
    Array.iteri
      (fun i r ->
        if Replica.is_alive r then
          match Replica.last_checkpoint r with
          | Some ck ->
              let newer =
                match t.disk.(i) with
                | None -> true
                | Some old ->
                    ck.Checkpoint.ri_taken_at > old.Checkpoint.ri_taken_at
              in
              if newer then t.disk.(i) <- Some ck
          | None -> ())
      t.replicas;
    (* 2. Truncation at the retention-gated quorum-stable frontier. *)
    if t.cfg.Config.checkpoint_truncate then begin
      let now = Sim.Engine.now t.eng in
      match t.pending_frontier with
      | Some (at, f) when now - at >= t.cfg.Config.checkpoint_retention ->
          let donors = alive_list t in
          harvest_upto t ~donors ~cover:f;
          List.iter (fun r -> Replica.apply_truncation r ~cover:f) donors;
          Array.iteri
            (fun s c -> if c > t.trunc_frontier.(s) then t.trunc_frontier.(s) <- c)
            f;
          t.truncation_rounds <- t.truncation_rounds + 1;
          t.pending_frontier <- None
      | Some _ -> ()
      | None -> (
          match stable_frontier t with
          | Some f
            when Array.exists
                   (fun s -> f.(s) > t.trunc_frontier.(s))
                   (Array.init (Array.length f) Fun.id) ->
              t.pending_frontier <- Some (now, f)
          | Some _ | None -> ())
    end;
    (* 3. Rebuild followers wedged behind a compaction floor: their next
       slots were truncated cluster-wide, so only a checkpoint bootstrap
       can make progress. *)
    Array.iteri
      (fun i r ->
        if
          Replica.is_alive r
          && (not (Replica.is_serving r))
          && (not (Replica.is_tainted r))
          && Replica.any_trunc_stalled r
          && Option.is_some (best_image t)
        then begin
          t.auto_rebuilds <- t.auto_rebuilds + 1;
          restart_replica t i
        end)
      t.replicas
  done

let create ?(initial_leader = Some 0) ?on_durable ?eng cfg app =
  Config.validate cfg;
  (* [?eng] lets a {!Shard} deployment host many clusters inside one
     engine (one virtual clock, one scheduler); absent, the engine is
     created exactly as before so single-cluster runs are untouched. *)
  let eng =
    match eng with
    | Some e -> e
    | None -> Sim.Engine.create ~seed:cfg.Config.seed ()
  in
  let pool = Config.pool cfg in
  (* Client sessions live on the same net, as nodes
     [pool .. pool+clients-1]: their links share the latency and fault
     model, so loss/dup/reorder exercises the retry + dedup path. Spare
     pool slots sit between the base replicas and the clients; they are
     dark (crashed at birth) until a membership change brings one in. *)
  let net =
    Sim.Net.create eng ~nodes:(pool + cfg.Config.clients)
      ~latency:cfg.Config.net_latency
  in
  (* Geo topology: a named WAN profile assigns every node (replicas,
     spares and clients alike) a region round-robin and installs the
     profile's intra/inter latency matrix. [Config.validate] already
     rejected unknown names; [""] (the default) installs nothing, so the
     network draws the identical RNG sequence as before. *)
  (match Sim.Net.wan_profile cfg.Config.wan_profile with
  | Some p ->
      let nodes = pool + cfg.Config.clients in
      let regions = Array.init nodes (fun i -> i mod p.Sim.Net.wp_regions) in
      Sim.Net.apply_regions net ~regions ~intra:p.Sim.Net.wp_intra
        ~inter:p.Sim.Net.wp_inter
  | None -> ());
  let hook id =
    Option.map (fun f ~stream ~idx entry -> f ~replica:id ~stream ~idx entry) on_durable
  in
  let replicas =
    Array.init pool (fun id ->
        Replica.create cfg eng net ~id ~app ?initial_leader ?on_durable:(hook id) ())
  in
  for id = cfg.Config.replicas to pool - 1 do
    Sim.Net.crash net id;
    Replica.crash replicas.(id)
  done;
  let nstreams = Config.nstreams cfg in
  let t =
    {
      cfg;
      eng;
      net;
      app;
      on_durable;
      replicas;
      w_start = 0;
      w_stop = 0;
      members = List.init cfg.Config.replicas Fun.id;
      mgen = 0;
      learners = [];
      client_stats = Stats.create eng;
      client_read_stats = Stats.create eng;
      adds = 0;
      removes = 0;
      handoffs = 0;
      ops_skipped = 0;
      disk = Array.make pool None;
      harvested = Hashtbl.create 4096;
      trunc_frontier = Array.make nstreams (-1);
      pending_frontier = None;
      truncation_rounds = 0;
      auto_rebuilds = 0;
    }
  in
  (* Spawned only when configured: the default config must stay
     bit-identical to pre-checkpoint runs. *)
  if cfg.Config.checkpoint_interval > 0 then
    ignore (Sim.Engine.spawn eng ~name:"ckpt-coord" (coordinator_loop t));
  t

(* ---- live reconfiguration operations ----

   Blocking management-plane operations: call them from inside a spawned
   simulation process (the nemesis, a bench driver). Each is defensive —
   an operation that is illegal or cannot complete within its deadline is
   counted in [ops_skipped] and returns [false], leaving the cluster in a
   safe (possibly unchanged) state; chaos plans may therefore schedule
   operations optimistically. *)

let op_deadline t = Sim.Engine.now t.eng + (10 * t.cfg.Config.election_timeout)

let wait_until t ~deadline pred =
  while (not (pred ())) && Sim.Engine.now t.eng < deadline do
    Sim.Engine.sleep (10 * Sim.Engine.ms)
  done;
  pred ()

let skip t reason =
  t.ops_skipped <- t.ops_skipped + 1;
  Log.debug (fun m -> m "membership op skipped: %s" reason);
  false

let set_all_learners t =
  Array.iter
    (fun r -> if Replica.is_alive r then Replica.set_learners r t.learners)
    t.replicas

(* Drive a reconfiguration to the stable voter set [target] (sorted):
   re-propose through whoever currently leads until a leader's adopted
   view is exactly [Stable target]. Re-proposing is safe — a leader
   refuses while a change is in flight, and adopted generations are
   monotone. *)
let drive_reconfig t ~target ~deadline =
  let adopted () =
    match leader t with
    | Some l -> (
        match Replica.view l with
        | Paxos.Member.Stable c -> c = target
        | Paxos.Member.Joint _ -> false)
    | None -> false
  in
  let ok = ref (adopted ()) in
  while (not !ok) && Sim.Engine.now t.eng < deadline do
    (match leader t with
    | Some l -> ignore (Replica.propose_reconfig l ~members:target)
    | None -> ());
    Sim.Engine.sleep (20 * Sim.Engine.ms);
    ok := adopted ()
  done;
  if !ok then begin
    t.members <- target;
    (match leader t with
    | Some l -> t.mgen <- max t.mgen (Replica.mgen l)
    | None -> ());
    t.learners <- List.filter (fun i -> not (List.mem i target)) t.learners;
    set_all_learners t
  end;
  !ok

(* Planned leader transfer to [target]; see {!Replica.begin_handoff}. *)
let handoff t ~target =
  match leader t with
  | None -> skip t "handoff: no serving leader"
  | Some l when Replica.id l = target -> skip t "handoff: target already leads"
  | Some l ->
      if not (List.mem target t.members) then skip t "handoff: target not a voter"
      else if not (Replica.is_alive t.replicas.(target)) then
        skip t "handoff: target down"
      else if Replica.is_tainted t.replicas.(target) then
        skip t "handoff: target tainted"
      else begin
        let e0 = Replica.served_epoch l in
        let deadline = op_deadline t in
        Replica.begin_handoff l ~target;
        let done_ () =
          match leader t with
          | Some l' -> Replica.id l' = target && Replica.served_epoch l' > e0
          | None -> false
        in
        if wait_until t ~deadline done_ then begin
          t.handoffs <- t.handoffs + 1;
          true
        end
        else skip t "handoff: transfer did not complete"
      end

(* ns; a joining node stays a non-voting learner until its replay
   frontier is within this bound of the leader's durable frontier —
   promoting a laggard would stall every quorum behind it. *)
let learner_lag_bound = 200 * Sim.Engine.ms

(* Bring pool slot [i] in as a voter: restart it as a non-voting learner,
   seed it ({!Replica.rebuild}: checkpoint + tail when available), wait
   until its replay frontier trails the leader's durable frontier by at
   most [learner_lag_bound], then run the joint-consensus change that
   promotes it. *)
let add_replica t i =
  if i < 0 || i >= Array.length t.replicas then skip t "add: bad node id"
  else if List.mem i t.members then skip t "add: already a voter"
  else if List.mem i t.learners then skip t "add: already joining"
  else begin
    restart_replica ~learner:true t i;
    t.learners <- List.sort_uniq compare (i :: t.learners);
    set_all_learners t;
    let deadline = op_deadline t in
    let caught_up () =
      Replica.is_alive t.replicas.(i)
      &&
      match leader t with
      | Some l ->
          Replica.durable_frontier l - Replica.replay_frontier t.replicas.(i)
          <= learner_lag_bound
      | None -> false
    in
    if not (wait_until t ~deadline caught_up) then begin
      t.learners <- List.filter (fun x -> x <> i) t.learners;
      set_all_learners t;
      skip t "add: learner never caught up"
    end
    else begin
      let target = List.sort_uniq compare (i :: t.members) in
      if drive_reconfig t ~target ~deadline then begin
        t.adds <- t.adds + 1;
        Log.debug (fun m -> m "added replica %d (gen %d)" i t.mgen);
        true
      end
      else begin
        t.learners <- List.filter (fun x -> x <> i) t.learners;
        set_all_learners t;
        skip t "add: reconfiguration did not commit"
      end
    end
  end

(* Take voter [i] out: joint-consensus change to the remaining set (the
   leader hands off first if it is removing itself), then harvest the
   removed node's full journal as dedup evidence and decommission it.
   Refuses to go below [min_members]. *)
let remove_replica t i =
  if not (List.mem i t.members) then skip t "remove: not a voter"
  else if List.length t.members - 1 < t.cfg.Config.min_members then
    skip t "remove: would violate min_members"
  else begin
    let target = List.filter (fun x -> x <> i) t.members in
    (match leader t with
    | Some l when Replica.id l = i -> (
        (* Self-removal: transfer leadership to a survivor first so the
           change is driven (and completed) by a remaining voter. The
           leader-side fallback in [Replica.propose_reconfig] covers the
           case where this handoff fails. *)
        match List.filter (fun x -> Replica.is_alive t.replicas.(x)) target with
        | tgt :: _ -> ignore (handoff t ~target:tgt)
        | [] -> ())
    | Some _ | None -> ());
    let deadline = op_deadline t in
    if drive_reconfig t ~target ~deadline then begin
      let victim = t.replicas.(i) in
      if Replica.is_alive victim then begin
        (* Evidence harvest before decommission: the removed node's
           journal leaves the surviving union, but any request it alone
           still archives must stay auditable for exactly-once. *)
        let everything =
          Array.make (Config.nstreams t.cfg) max_int
        in
        harvest_upto t ~donors:[ victim ] ~cover:everything;
        crash_replica t i
      end;
      t.removes <- t.removes + 1;
      Log.debug (fun m -> m "removed replica %d (gen %d)" i t.mgen);
      true
    end
    else skip t "remove: reconfiguration did not commit"
  end

let window t = (t.w_start, t.w_stop)

let count t c =
  Array.fold_left (fun acc r -> acc + Stats.get (Replica.stats r) c) 0 t.replicas

let throughput t =
  let dt = t.w_stop - t.w_start in
  if dt <= 0 then 0.0
  else float_of_int (count t Stats.Released) *. 1e9 /. float_of_int dt

let latency t =
  Sim.Metrics.Hist.merge
    (Array.to_list t.replicas |> List.map (fun r -> Stats.latency (Replica.stats r)))

let release_rate t =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun r ->
      List.iter
        (fun (sec, rate) ->
          let cur = match Hashtbl.find_opt tbl sec with Some v -> v | None -> 0.0 in
          Hashtbl.replace tbl sec (cur +. rate))
        (Sim.Metrics.Series.rate_per_sec (Stats.release_series (Replica.stats r))))
    t.replicas;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* One stage's histogram merged over every replica and both client-side
   stats (each stage is recorded on one side only). *)
let stage_summary t stage =
  let idx = Trace.stage_index stage in
  let h =
    Sim.Metrics.Hist.merge
      (Stats.stage_hist t.client_stats idx
      :: Stats.stage_hist t.client_read_stats idx
      :: (Array.to_list t.replicas
         |> List.map (fun r -> Stats.stage_hist (Replica.stats r) idx)))
  in
  let n = Sim.Metrics.Hist.count h in
  if n = 0 then None
  else
    Some
      ( n,
        Sim.Metrics.Hist.percentile h 50.0,
        Sim.Metrics.Hist.percentile h 95.0,
        Sim.Metrics.Hist.percentile h 99.0 )

let stage_breakdown t =
  List.filter_map
    (fun stage ->
      Option.map
        (fun (n, p50, p95, p99) -> (Trace.stage_name stage, n, p50, p95, p99))
        (stage_summary t stage))
    Trace.all_stages

(* Kept for perf/ until the benchmark PR. *)
let released t = count t Stats.Released
let entries_flushed t = count t Stats.Entries_flushed
let replayed_txns t = count t Stats.Replayed_txns
let reads_served t = count t Stats.Reads_served
let reads_parked t = count t Stats.Reads_parked
let reads_redirected t = count t Stats.Reads_redirected
let read_misses t = count t Stats.Read_misses

let coalesced_proposals t =
  Array.fold_left
    (fun acc r ->
      Array.fold_left
        (fun acc s -> acc + (Paxos.Stream.stats s).Paxos.Stream.coalesced)
        acc (Replica.streams r))
    0 t.replicas

(* Checkpoint / truncation telemetry. *)

let harvested_requests t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.harvested []

let trunc_frontier t = Array.copy t.trunc_frontier
let truncation_rounds t = t.truncation_rounds
let auto_rebuilds t = t.auto_rebuilds

let checkpoints_taken t =
  Array.fold_left (fun acc r -> acc + Replica.checkpoints_taken r) 0 t.replicas

let journal_bytes_total t =
  Array.fold_left (fun acc r -> acc + Replica.journal_bytes r) 0 t.replicas

let journal_entries_total t =
  Array.fold_left (fun acc r -> acc + Replica.journal_length r) 0 t.replicas

let truncated_entries_total t =
  Array.fold_left (fun acc r -> acc + Replica.truncated_entries r) 0 t.replicas

let newest_checkpoint t =
  Array.fold_left
    (fun acc d ->
      match (acc, d) with
      | None, d -> d
      | Some _, None -> acc
      | Some a, Some b ->
          if b.Checkpoint.ri_taken_at > a.Checkpoint.ri_taken_at then d else acc)
    None t.disk
