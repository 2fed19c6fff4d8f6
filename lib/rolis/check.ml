type violation = { check : string; detail : string }

let violation check fmt = Format.kasprintf (fun detail -> { check; detail }) fmt
let pp_violation fmt v = Format.fprintf fmt "[%s] %s" v.check v.detail

(* How many violations of one kind we keep; a diverged run would otherwise
   produce one per commit. *)
let cap = 20

module Oracle = struct
  type t = {
    chosen : (int * int, Store.Wire.entry) Hashtbl.t; (* (stream, idx) *)
    mutable checked : int;
    mutable violations : violation list;
    mutable nviol : int;
  }

  let create () =
    { chosen = Hashtbl.create 4096; checked = 0; violations = []; nviol = 0 }

  let entry_sig (e : Store.Wire.entry) =
    Printf.sprintf "{epoch=%d; last_ts=%d; txns=%d; bytes=%d}" e.epoch e.last_ts
      (List.length e.txns) (Store.Wire.byte_size e)

  let observe t ~replica ~stream ~idx entry =
    t.checked <- t.checked + 1;
    match Hashtbl.find_opt t.chosen (stream, idx) with
    | None -> Hashtbl.replace t.chosen (stream, idx) entry
    | Some chosen ->
        if chosen <> entry then begin
          t.nviol <- t.nviol + 1;
          if t.nviol <= cap then
            t.violations <-
              violation "agreement"
                "replica %d committed %s at (stream %d, idx %d) but %s was already chosen"
                replica (entry_sig entry) stream idx (entry_sig chosen)
              :: t.violations
        end

  let violations t = List.rev t.violations
  let entries_checked t = t.checked
end

let alive_replicas cluster =
  Array.to_list (Cluster.replicas cluster) |> List.filter Replica.is_alive

(* A replica's committed journal keyed by absolute (stream, idx). Under
   checkpoint truncation journals are no longer prefixes from zero —
   different replicas retain different windows — so agreement compares
   entries at overlapping absolute slots, never by list position. *)
let stream_logs r =
  let tbl : (int * int, Store.Wire.entry) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun (s, idx, e) -> Hashtbl.replace tbl (s, idx) e)
    (Replica.journal r);
  tbl

let agreement cluster =
  let reps = alive_replicas cluster in
  let logs = List.map (fun r -> (Replica.id r, stream_logs r)) reps in
  let chosen : (int * int, int * Store.Wire.entry) Hashtbl.t =
    Hashtbl.create 4096
  in
  let viols = ref [] and nviol = ref 0 in
  List.iter
    (fun (id, tbl) ->
      Hashtbl.iter
        (fun (s, idx) e ->
          match Hashtbl.find_opt chosen (s, idx) with
          | None -> Hashtbl.replace chosen (s, idx) (id, e)
          | Some (id0, e0) ->
              if e0 <> e then begin
                incr nviol;
                if !nviol <= cap then
                  viols :=
                    violation "agreement"
                      "stream %d idx %d: replica %d has %s, replica %d has %s" s
                      idx id (Oracle.entry_sig e) id0 (Oracle.entry_sig e0)
                    :: !viols
              end)
        tbl)
    logs;
  List.rev !viols

let watermark_agreement cluster =
  let reps = alive_replicas cluster in
  let max_epoch =
    List.fold_left
      (fun m r -> max m (Paxos.Election.epoch (Replica.election r)))
      1 reps
  in
  let viols = ref [] in
  for e = 1 to max_epoch do
    let ws =
      List.filter_map
        (fun r ->
          Option.map (fun w -> (Replica.id r, w)) (Replica.final_watermark r ~epoch:e))
        reps
    in
    match ws with
    | [] | [ _ ] -> ()
    | (id0, w0) :: rest ->
        List.iter
          (fun (id, w) ->
            if w <> w0 then
              viols :=
                violation "watermark"
                  "epoch %d sealed at W=%d on replica %d but W=%d on replica %d" e
                  w0 id0 w id
                :: !viols)
          rest
  done;
  List.rev !viols

(* Configurations are replicated through the log, so two replicas that
   adopted the same membership generation must hold the same view — a
   mismatch means a config entry forked, the membership analogue of log
   disagreement. Replicas at *different* generations are legal (a node
   down through a change is simply behind). *)
let membership_agreement cluster =
  let reps = alive_replicas cluster in
  let by_gen : (int, int * Paxos.Member.view) Hashtbl.t = Hashtbl.create 8 in
  let viols = ref [] in
  List.iter
    (fun r ->
      let gen = Replica.mgen r and view = Replica.view r in
      match Hashtbl.find_opt by_gen gen with
      | None -> Hashtbl.replace by_gen gen (Replica.id r, view)
      | Some (id0, view0) ->
          if not (Paxos.Member.equal view view0) then
            viols :=
              violation "membership"
                "generation %d: replica %d holds view %a but replica %d holds %a"
                gen (Replica.id r) Paxos.Member.pp view id0
                Paxos.Member.pp view0
              :: !viols)
    reps;
  List.rev !viols

(* Live records of every table, in deterministic (table, key) order. *)
let table_dump db =
  Silo.Db.tables db
  |> List.concat_map (fun t ->
         let acc = ref [] in
         Store.Table.iter t (fun k r ->
             if not (Store.Record.is_deleted r) then
               acc := (Store.Table.name t, k, r.Store.Record.value) :: !acc);
         List.rev !acc)

let convergence cluster =
  match alive_replicas cluster with
  | [] | [ _ ] -> []
  | r0 :: rest ->
      let d0 = table_dump (Replica.db r0) in
      List.filter_map
        (fun r ->
          let d = table_dump (Replica.db r) in
          if d <> d0 then begin
            let diff =
              List.filter (fun x -> not (List.mem x d0)) d
              |> List.map (fun (t, k, v) -> Printf.sprintf "%s[%S]=%S" t k v)
            in
            Some
              (violation "convergence"
                 "replica %d live state differs from replica %d (%d vs %d live \
                  records; e.g. %s)"
                 (Replica.id r) (Replica.id r0) (List.length d) (List.length d0)
                 (match diff with [] -> "missing records" | x :: _ -> x))
          end
          else None)
        rest

(* Exactly-once audit of the client-session layer. Ground truth is the
   union durable log: every committed (stream, idx) slot across alive
   replicas (agreement — checked separately — makes the slot's entry
   unambiguous), plus the cluster's harvested dedup evidence for slots
   that checkpoint truncation dropped from every surviving journal. A
   request-carrying transaction counts as *applied* iff it is below its
   epoch's final watermark — for the last, unsealed epoch, every durable
   transaction counts (valid once the cluster has quiesced and drained:
   nothing above the final watermark remains unreleased). Then:

   - no (client, seq) may be applied more than once, acked or not —
     a duplicate means the session dedup failed (e.g. a retry re-executed
     after a failover that should have answered from the rebuilt table);
   - every *acked* (client, seq) must be applied exactly once — a zero
     count means an ack escaped for a transaction that later vanished,
     i.e. a release-visibility violation (§3.3). *)
let exactly_once cluster ~acked =
  let reps = alive_replicas cluster in
  let final_w epoch =
    List.fold_left
      (fun acc r ->
        match acc with Some _ -> acc | None -> Replica.final_watermark r ~epoch)
      None reps
  in
  let union : (int * int, Store.Wire.entry) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun r ->
      List.iter
        (fun (s, idx, e) -> Hashtbl.replace union (s, idx) e)
        (Replica.journal r))
    reps;
  let counts : (int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let bump key =
    let cur = match Hashtbl.find_opt counts key with Some c -> c | None -> 0 in
    Hashtbl.replace counts key (cur + 1)
  in
  Hashtbl.iter
    (fun _ (e : Store.Wire.entry) ->
      let w = match final_w e.epoch with Some w -> w | None -> max_int in
      List.iter
        (fun (txn : Store.Wire.txn_log) ->
          match txn.Store.Wire.req with
          | Some key when txn.Store.Wire.ts <= w -> bump key
          | Some _ | None -> ())
        e.txns)
    union;
  (* Slots truncated from every surviving journal: the coordinator
     harvested their request keys before the drop (already filtered by
     the final-watermark rule at harvest time). Counted only when absent
     from the union — a slot truncated on some replicas but retained on
     another must not count twice. *)
  List.iter
    (fun ((s, idx), keys) ->
      if not (Hashtbl.mem union (s, idx)) then List.iter bump keys)
    (Cluster.harvested_requests cluster);
  let viols = ref [] and nviol = ref 0 in
  Hashtbl.iter
    (fun (cid, seq) c ->
      if c > 1 then begin
        incr nviol;
        if !nviol <= cap then
          viols :=
            violation "exactly-once" "request (client %d, seq %d) applied %d times"
              cid seq c
            :: !viols
      end)
    counts;
  List.iter
    (fun (cid, seq) ->
      match Hashtbl.find_opt counts (cid, seq) with
      | Some _ -> () (* count > 1 already reported above *)
      | None ->
          incr nviol;
          if !nviol <= cap then
            viols :=
              violation "exactly-once"
                "acked request (client %d, seq %d) is not in the applied durable \
                 log (released result lost)"
                cid seq
              :: !viols)
    acked;
  List.rev !viols

(* Snapshot-read audit. Every replica keeps a deterministic sample of the
   reads it served: the pin each used and every observation (table, key,
   observed version timestamp) its body made. Ground truth is again the
   union durable log, filtered by the final-watermark rule: a write counts
   as *applied* iff its transaction is below its epoch's final watermark
   (unsealed last epoch: everything durable — valid once quiesced). For
   each observation, with [exp] = the newest applied write timestamp <=
   the read's pin for that key (0 if none, i.e. only the ts-0 setup record
   could exist):

   - [ots > pin] is always a violation — the read escaped its snapshot and
     saw above-watermark (possibly speculative, never-released) state;
   - [ots < exp] with [exp > 0] is a violation — the read missed an
     applied write below its pin, i.e. a torn or stale snapshot (version
     reclamation dropped a version a pinned read still needed);
   - [ots > exp] is a violation unless checkpoint truncation has dropped
     journal slots (then the write's provenance may simply be gone);
     [ots <= 0] (setup record or absent) is always consistent with
     [exp = 0]. *)
let snapshot_reads cluster =
  let reps = alive_replicas cluster in
  let final_w epoch =
    List.fold_left
      (fun acc r ->
        match acc with Some _ -> acc | None -> Replica.final_watermark r ~epoch)
      None reps
  in
  let union : (int * int, Store.Wire.entry) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun r ->
      List.iter
        (fun (s, idx, e) -> Hashtbl.replace union (s, idx) e)
        (Replica.journal r))
    reps;
  (* Applied write timestamps per (table, key), descending order not
     needed — we only ever take the max below a pin. *)
  let writes : (int * string, int list) Hashtbl.t = Hashtbl.create 4096 in
  Hashtbl.iter
    (fun _ (e : Store.Wire.entry) ->
      let w = match final_w e.epoch with Some w -> w | None -> max_int in
      List.iter
        (fun (txn : Store.Wire.txn_log) ->
          if txn.Store.Wire.ts <= w then
            List.iter
              (fun (wr : Store.Wire.write) ->
                let key = (wr.Store.Wire.table, wr.Store.Wire.key) in
                let cur =
                  match Hashtbl.find_opt writes key with
                  | Some l -> l
                  | None -> []
                in
                Hashtbl.replace writes key (txn.Store.Wire.ts :: cur))
              txn.Store.Wire.writes)
        e.txns)
    union;
  let truncated =
    Array.exists (fun c -> c >= 0) (Cluster.trunc_frontier cluster)
  in
  let expected_at ~table ~key ~pin =
    match Hashtbl.find_opt writes (table, key) with
    | None -> 0
    | Some l -> List.fold_left (fun m ts -> if ts <= pin then max m ts else m) 0 l
  in
  let viols = ref [] and nviol = ref 0 in
  let bad fmt =
    Format.kasprintf
      (fun detail ->
        incr nviol;
        if !nviol <= cap then
          viols := { check = "snapshot-read"; detail } :: !viols)
      fmt
  in
  List.iter
    (fun r ->
      List.iter
        (fun (pin, obs) ->
          List.iter
            (fun (table, key, ots) ->
              if ots > pin then
                bad
                  "replica %d: read pinned at %d observed table %d key %S at \
                   ts %d — above its snapshot"
                  (Replica.id r) pin table key ots
              else
                let exp = expected_at ~table ~key ~pin in
                if ots < exp && exp > 0 then
                  bad
                    "replica %d: read pinned at %d observed table %d key %S \
                     at ts %d but an applied write at ts %d <= pin exists \
                     (stale/torn snapshot)"
                    (Replica.id r) pin table key ots exp
                else if ots > exp && ots > 0 && not truncated then
                  bad
                    "replica %d: read pinned at %d observed table %d key %S \
                     at ts %d which is in no applied durable transaction"
                    (Replica.id r) pin table key ots)
            obs)
        (Replica.read_audits r))
    reps;
  List.rev !viols

(* Cross-shard 2PC audit over the decision marks the journals carry
   (see {!Shard}): every "!p"/"!c"/"!a"/"!x"/"!r" control transaction
   stamps its wire record with a {!Store.Wire.decision}, so the protocol
   history is replicated state, not driver-side memory. Ground truth per
   shard is the union durable log filtered by the final-watermark rule
   (exactly as {!exactly_once}). After quiesce:

   - a transaction id may carry at most one of {Committed, Aborted};
   - no (xid, shard) may be Applied more than once (the session layer
     must have deduplicated the driver's apply retries);
   - an Applied mark with an Aborted decision — or a Canceled mark with
     a Committed decision — is an atomicity violation;
   - a Committed decision names the cohort that staged intents (the
     coordinator applies its own sub inside the decision entry, so it is
     not listed), and each must carry an Applied mark: a shard that
     failed over between prepare and apply must have recovered the
     staged intent from its journal;
   - an Applied mark with no Committed decision anywhere means a
     participant applied state no coordinator decided.

   Valid with checkpoint truncation off (sharded chaos keeps it off):
   truncation could drop decision-carrying slots from every journal. *)
let cross_shard clusters =
  let applied_marks cluster =
    let reps = alive_replicas cluster in
    let final_w epoch =
      List.fold_left
        (fun acc r ->
          match acc with Some _ -> acc | None -> Replica.final_watermark r ~epoch)
        None reps
    in
    let union : (int * int, Store.Wire.entry) Hashtbl.t = Hashtbl.create 4096 in
    List.iter
      (fun r ->
        List.iter
          (fun (s, idx, e) -> Hashtbl.replace union (s, idx) e)
          (Replica.journal r))
      reps;
    let acc = ref [] in
    Hashtbl.iter
      (fun _ (e : Store.Wire.entry) ->
        let w = match final_w e.epoch with Some w -> w | None -> max_int in
        List.iter
          (fun (txn : Store.Wire.txn_log) ->
            match txn.Store.Wire.decision with
            | Some d when txn.Store.Wire.ts <= w -> acc := d :: !acc
            | Some _ | None -> ())
          e.txns)
      union;
    !acc
  in
  let decided : (int, (bool * int list * int) list) Hashtbl.t =
    Hashtbl.create 256
  in
  let applied : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let canceled : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun shard cluster ->
      List.iter
        (fun (d : Store.Wire.decision) ->
          match d.Store.Wire.d_phase with
          | Store.Wire.Prepared -> ()
          | Store.Wire.Committed | Store.Wire.Aborted ->
              let commit = d.Store.Wire.d_phase = Store.Wire.Committed in
              let cur =
                Option.value ~default:[]
                  (Hashtbl.find_opt decided d.Store.Wire.d_xid)
              in
              Hashtbl.replace decided d.Store.Wire.d_xid
                ((commit, d.Store.Wire.d_parts, shard) :: cur)
          | Store.Wire.Applied ->
              let key = (d.Store.Wire.d_xid, shard) in
              let c = Option.value ~default:0 (Hashtbl.find_opt applied key) in
              Hashtbl.replace applied key (c + 1)
          | Store.Wire.Canceled ->
              Hashtbl.replace canceled (d.Store.Wire.d_xid, shard) ())
        (applied_marks cluster))
    clusters;
  let viols = ref [] and nviol = ref 0 in
  let bad fmt =
    Format.kasprintf
      (fun detail ->
        incr nviol;
        if !nviol <= cap then
          viols := { check = "cross-shard"; detail } :: !viols)
      fmt
  in
  let outcome_of xid =
    match Hashtbl.find_opt decided xid with
    | None -> `Undecided
    | Some ds ->
        let commits = List.filter (fun (c, _, _) -> c) ds
        and aborts = List.filter (fun (c, _, _) -> not c) ds in
        if commits <> [] && aborts <> [] then `Conflict
        else if commits <> [] then
          let _, parts, shard = List.hd commits in
          `Committed (parts, shard)
        else `Aborted
  in
  Hashtbl.iter
    (fun xid ds ->
      (match outcome_of xid with
      | `Conflict ->
          bad "xid %d carries both commit and abort decisions" xid
      | `Committed (parts, shard) ->
          List.iter
            (fun p ->
              if not (Hashtbl.mem applied (xid, p)) then
                bad
                  "xid %d committed (decision on shard %d) but participant \
                   shard %d never applied its intent"
                  xid shard p)
            parts
      | `Aborted | `Undecided -> ());
      ignore ds)
    decided;
  Hashtbl.iter
    (fun (xid, shard) c ->
      if c > 1 then bad "xid %d applied %d times on shard %d" xid c shard;
      match outcome_of xid with
      | `Aborted -> bad "xid %d applied on shard %d despite an abort decision" xid shard
      | `Undecided -> bad "xid %d applied on shard %d with no decision in any log" xid shard
      | `Committed _ | `Conflict -> ())
    applied;
  Hashtbl.iter
    (fun (xid, shard) () ->
      match outcome_of xid with
      | `Committed _ ->
          bad "xid %d canceled on shard %d despite a commit decision" xid shard
      | `Aborted | `Undecided | `Conflict -> ())
    canceled;
  List.rev !viols

let money cluster ~table ~expected =
  alive_replicas cluster
  |> List.filter_map (fun r ->
         let t = Silo.Db.table (Replica.db r) table in
         let sum = ref 0 and bad = ref 0 in
         Store.Table.iter t (fun _ rec_ ->
             if not (Store.Record.is_deleted rec_) then
               match int_of_string_opt rec_.Store.Record.value with
               | Some v -> sum := !sum + v
               | None -> incr bad);
         if !bad > 0 then
           Some
             (violation "money" "replica %d: %d non-numeric balances in %S"
                (Replica.id r) !bad table)
         else if !sum <> expected then
           Some
             (violation "money" "replica %d: sum(%S) = %d, expected %d"
                (Replica.id r) table !sum expected)
         else None)

(* Global conservation across a sharded deployment: each shard owns a
   partition of the accounts and cross-shard transfers move money between
   partitions through 2PC, so no single shard's sum is invariant — only
   the total over one (converged — checked per shard) replica per shard.
   A half-applied cross-shard transfer shows up here as leaked or
   destroyed money even if every per-shard oracle is happy. *)
let money_sharded clusters ~table ~expected =
  let shard_sum cluster =
    match alive_replicas cluster with
    | [] -> None
    | r :: _ ->
        let t = Silo.Db.table (Replica.db r) table in
        let sum = ref 0 and bad = ref 0 in
        Store.Table.iter t (fun _ rec_ ->
            if not (Store.Record.is_deleted rec_) then
              match int_of_string_opt rec_.Store.Record.value with
              | Some v -> sum := !sum + v
              | None -> incr bad);
        Some (Replica.id r, !sum, !bad)
  in
  let total = ref 0 and viols = ref [] and missing = ref false in
  Array.iteri
    (fun shard cluster ->
      match shard_sum cluster with
      | None ->
          missing := true;
          viols :=
            violation "money" "shard %d has no alive replica to audit" shard
            :: !viols
      | Some (rid, sum, bad) ->
          total := !total + sum;
          if bad > 0 then
            viols :=
              violation "money" "shard %d replica %d: %d non-numeric balances"
                shard rid bad
              :: !viols)
    clusters;
  if (not !missing) && !total <> expected then
    viols :=
      violation "money" "global sum(%S) over %d shards = %d, expected %d" table
        (Array.length clusters) !total expected
      :: !viols;
  List.rev !viols
