type stats = {
  commits : int;
  user_aborts : int;
  conflict_aborts : int;
  retries : int;
}

type 'a result = {
  value : 'a option;
  tid : Tid.t option;
  log : Store.Wire.write list;
  retries : int;
  reads : int;
  writes : int;
}

type attachment = ..

type t = {
  eng : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  cost_model : Costs.t;
  mutable physical_deletes : bool;
  hash_tables : string list;
      (* table names created with the hash-index representation *)
  mutable table_list : Store.Table.t list; (* reverse creation order *)
  by_name : (string, Store.Table.t) Hashtbl.t;
  mutable by_id : Store.Table.t array;
  txn_pool : (int, Txn.t) Hashtbl.t;
  pending_decisions : (int, Store.Wire.decision) Hashtbl.t;
      (* per-worker decision mark of the last committed transaction;
         populated only by 2PC control transactions, so the common path
         never touches it beyond a lookup in an empty table *)
  mutable install_scratch : Txn.write_entry array;
  mutable probe_scratch : Store.Record.t option array;
      (* [snap_get_many]'s index results, reused across reads *)
  mutable cur_epoch : int;
  mutable ts_counter : int;
  mutable read_floor : (unit -> int) option;
      (* snapshot read-pin floor; [Some _] turns on prior-version
         retention at every install site *)
  mutable s_commits : int;
  mutable s_user_aborts : int;
  mutable s_conflict_aborts : int;
  mutable s_retries : int;
  mutable s_snap_reads : int;
  mutable s_snap_misses : int;
  mutable attached : attachment list;
}

let create eng cpu ?(costs = Costs.default) ?(physical_deletes = true)
    ?(hash_tables = []) () =
  {
    eng;
    cpu;
    cost_model = costs;
    physical_deletes;
    hash_tables;
    table_list = [];
    by_name = Hashtbl.create 16;
    by_id = [||];
    txn_pool = Hashtbl.create 16;
    pending_decisions = Hashtbl.create 4;
    install_scratch = [||];
    probe_scratch = [||];
    cur_epoch = 1;
    ts_counter = 0;
    read_floor = None;
    s_commits = 0;
    s_user_aborts = 0;
    s_conflict_aborts = 0;
    s_retries = 0;
    s_snap_reads = 0;
    s_snap_misses = 0;
    attached = [];
  }

let attachments t = t.attached
let attach t a = t.attached <- a :: t.attached
let engine t = t.eng
let cpu t = t.cpu
let costs t = t.cost_model

let add_table t table =
  Hashtbl.add t.by_name (Store.Table.name table) table;
  t.by_id <- Array.append t.by_id [| table |];
  t.table_list <- table :: t.table_list

let create_table t name =
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Db.create_table: duplicate table %s" name);
  let id = Array.length t.by_id in
  let repr =
    if List.mem name t.hash_tables then Store.Table.Hash else Store.Table.Btree
  in
  let table = Store.Table.create ~repr ~id ~name () in
  add_table t table;
  table

(* Tables land in id order, so the copy's [table_by_id] resolves the
   table ids that wire entries carry exactly as the source's does. *)
let copy_tables ~src t =
  let refuse why = invalid_arg ("Db.copy_tables: " ^ why) in
  if Array.length t.by_id > 0 then refuse "the target already has tables";
  if src.attached <> [] then refuse "the source has attachments";
  if src.ts_counter <> 0 then refuse "the source has committed";
  Array.iter
    (fun table ->
      let name = Store.Table.name table in
      if List.mem name t.hash_tables <> (Store.Table.repr table = Store.Table.Hash)
      then refuse ("index representation of " ^ name ^ " differs");
      add_table t (Store.Table.copy table))
    src.by_id

let set_read_floor t f = t.read_floor <- f

let table t name = Hashtbl.find t.by_name name
let table_by_id t id = t.by_id.(id)
let tables t = List.rev t.table_list
let epoch t = t.cur_epoch
let set_physical_deletes t b = t.physical_deletes <- b

let set_epoch t e =
  if e < t.cur_epoch then invalid_arg "Db.set_epoch: epoch must not decrease";
  t.cur_epoch <- e

let next_ts t =
  let now = Sim.Engine.now t.eng in
  let ts = if now > t.ts_counter then now else t.ts_counter + 1 in
  t.ts_counter <- ts;
  ts

let last_ts t = t.ts_counter

(* ---- validation ---- *)

let reads_valid (txn : Txn.t) =
  List.for_all
    (fun (r, seen) -> Store.Record.version r = seen)
    txn.reads

let absents_valid (txn : Txn.t) =
  List.for_all (fun (table, key) -> Store.Table.get_live table key = None) txn.absents

let scan_valid (s : Txn.scan_entry) =
  let rows = Store.Table.scan s.s_table ~lo:s.s_lo ~hi:s.s_hi ~limit:s.s_limit () in
  let now = List.map (fun (k, r) -> (k, Store.Record.version r)) rows in
  now = s.s_seen

let probe_valid (p : Txn.probe_entry) =
  let now =
    Store.Table.max_live p.p_table ~lo:p.p_lo ~hi:p.p_hi
    |> Option.map (fun (k, r) -> (k, Store.Record.version r))
  in
  now = p.p_seen

let validate txn =
  reads_valid txn && absents_valid txn
  && List.for_all scan_valid txn.Txn.scans
  && List.for_all probe_valid txn.Txn.probes

(* ---- install ---- *)

let ws_cmp (a : Txn.write_entry) (b : Txn.write_entry) =
  let c = compare (Store.Table.id a.w_table) (Store.Table.id b.w_table) in
  if c <> 0 then c else compare a.w_key b.w_key

(* In-place sort of [arr.(0 .. n-1)] by (table, key). Keys are unique
   within a write-set, so the comparator is total and stability is moot.
   Transactional write-sets are small — insertion sort there is both
   allocation-free and fast; the [Array.sort]-over-a-copy fallback only
   triggers for the rare huge loader transactions. *)
let sort_prefix arr n =
  if n <= 32 then
    for i = 1 to n - 1 do
      let w = arr.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && ws_cmp arr.(!j) w > 0 do
        arr.(!j + 1) <- arr.(!j);
        decr j
      done;
      arr.(!j + 1) <- w
    done
  else begin
    let sub = Array.sub arr 0 n in
    Array.sort ws_cmp sub;
    Array.blit sub 0 arr 0 n
  end

(* Overwrite (or delete through) a record already bound to [key]. *)
let install_existing t table key (r : Store.Record.t) ~epoch ~ts ~value =
  match t.read_floor with
  | None ->
      let delta =
        (match value with Some v -> String.length v | None -> 0)
        - String.length r.Store.Record.value
      in
      Store.Record.install r ~epoch ~ts ~value;
      Store.Table.account_growth table delta;
      if value = None && t.physical_deletes then Store.Table.remove_phys table key
  | Some floor ->
      let before = String.length r.Store.Record.value + Store.Record.slot_bytes r in
      Store.Record.install_retain r ~floor:(floor ()) ~epoch ~ts ~value;
      let after = String.length r.Store.Record.value + Store.Record.slot_bytes r in
      Store.Table.account_growth table (after - before);
      (* A retained tombstone must stay in the index: a pinned reader
         still resolves the prior version through it. *)
      if value = None && t.physical_deletes && not (Store.Record.has_prior r) then
        Store.Table.remove_phys table key

(* Install by lookup: overwrite the bound record, or bind a fresh one. *)
let install_found t table key ~epoch ~ts ~value =
  match (Store.Table.get table key, value) with
  | Some r, _ -> install_existing t table key r ~epoch ~ts ~value
  | None, Some v -> Store.Table.insert table key (Store.Record.make ~epoch ~ts v)
  | None, None -> () (* delete of an absent key: nothing to do *)

(* A write of a key the body never read, with a value. *)
let blind_put (w : Txn.write_entry) table =
  w.Txn.w_table == table
  && match (w.Txn.w_read, w.Txn.w_value) with None, Some _ -> true | _ -> false

(* A blind put's step in a sorted sweep: bind a fresh record, or
   overwrite the bound one (a put never removes, so the sweep's cursor
   stays valid). *)
let put_at t (w : Txn.write_entry) existing ~epoch ~ts =
  let table = w.Txn.w_table and key = w.Txn.w_key and value = w.Txn.w_value in
  match (existing, value) with
  | Some r, _ ->
      install_existing t table key r ~epoch ~ts ~value;
      None
  | None, Some v ->
      let r = Store.Record.make ~epoch ~ts v in
      Store.Table.account_growth table (Store.Record.byte_size ~key r);
      Some r
  | None, None -> None

(* Install runs yield-free (between validation and the log hand-off), so
   one per-Db scratch array can be shared by every worker: staging the
   write-set there and sorting in place replaces the List.rev + List.sort
   cons churn of the former list pipeline.

   Each key is found with at most one descent where possible. A live
   record the body read is reused as is: validation proved its version
   unchanged, a removal always follows a version bump and [compact] drops
   only tombstones, so it is still bound to its key. A tombstone the body
   read may have been compacted away, so it is looked up again, as is a
   blind delete. Blind puts (keys the body never read) go through a
   sorted sweep per table run: it binds a fresh record where the key is
   absent, and revives or overwrites the bound record (a tombstone, or a
   blind overwrite) exactly as a lookup-first install does. *)
let install t (txn : Txn.t) ~epoch ~ts : Store.Wire.write list =
  match txn.Txn.write_order with
  | [] -> []
  | first :: _ ->
      let n = Txn.Key_tbl.length txn.Txn.writes in
      if Array.length t.install_scratch < n then begin
        let cap = ref (max 16 (Array.length t.install_scratch)) in
        while !cap < n do
          cap := !cap * 2
        done;
        t.install_scratch <- Array.make !cap first
      end;
      let arr = t.install_scratch in
      let i = ref n in
      List.iter
        (fun w ->
          decr i;
          arr.(!i) <- w)
        txn.write_order;
      sort_prefix arr n;
      let k = ref 0 in
      while !k < n do
        let w = arr.(!k) in
        let table = w.Txn.w_table in
        let key = w.Txn.w_key in
        let value = w.Txn.w_value in
        (match (w.Txn.w_read, value) with
        | Some r, _ when not (Store.Record.is_deleted r) ->
            install_existing t table key r ~epoch ~ts ~value
        | None, Some _ ->
            (* Blind puts into one table (a new order's lines, or one
               key): one sorted sweep, a descent per leaf rather than per
               key, with the same inserts in the same order. *)
            let hi = ref (!k + 1) in
            while !hi < n && blind_put arr.(!hi) table do
              incr hi
            done;
            ignore
              (Store.Table.apply_sorted_run table
                 ~key:(fun i -> arr.(i).Txn.w_key)
                 ~lo:!k ~hi:!hi
                 ~f:(fun i existing -> put_at t arr.(i) existing ~epoch ~ts));
            k := !hi - 1
        | Some _, _ | None, None -> install_found t table key ~epoch ~ts ~value);
        incr k
      done;
      let rec build k acc =
        if k < 0 then acc
        else
          let w = arr.(k) in
          build (k - 1)
            ({
               Store.Wire.table = Store.Table.id w.Txn.w_table;
               key = w.Txn.w_key;
               value = w.Txn.w_value;
             }
            :: acc)
      in
      build (n - 1) []

(* ---- the run loop ---- *)

(* Per-worker pooled transaction contexts. The pool hands a context out
   by *removing* it: a worker id shared by two concurrently-running procs
   (legal in tests) then simply falls back to a fresh [Txn.create] for the
   second taker instead of two attempts clobbering one context across the
   yield points of [Sim.Cpu.consume]. *)
let take_txn t ~worker =
  match Hashtbl.find_opt t.txn_pool worker with
  | Some txn ->
      Hashtbl.remove t.txn_pool worker;
      Txn.reset txn;
      txn
  | None -> Txn.create ~worker ~costs:t.cost_model

let release_txn t (txn : Txn.t) = Hashtbl.replace t.txn_pool txn.Txn.worker txn

let run_attempt t ~worker f =
  let txn = take_txn t ~worker in
  let finish outcome =
    release_txn t txn;
    outcome
  in
  match f txn with
  | exception Txn.Abort ->
      Sim.Cpu.consume t.cpu (Txn.exec_cost_ns txn);
      t.s_user_aborts <- t.s_user_aborts + 1;
      finish (`User_abort txn)
  | v ->
      Sim.Cpu.consume t.cpu (Txn.exec_cost_ns txn + Txn.commit_cost_ns txn);
      (* Atomic from here: no yields between validation and install. *)
      if validate txn then begin
        let epoch = t.cur_epoch in
        let ts = next_ts t in
        let log = install t txn ~epoch ~ts in
        t.s_commits <- t.s_commits + 1;
        finish (`Committed (v, { Tid.epoch; ts }, log, txn))
      end
      else begin
        t.s_conflict_aborts <- t.s_conflict_aborts + 1;
        Sim.Cpu.consume t.cpu t.cost_model.Costs.abort_ns;
        finish `Conflict
      end

(* Paper (Fig. 9) convention: a scan counts as one read operation. *)
let counts (txn : Txn.t) = (txn.Txn.nreads + txn.Txn.nscans, txn.Txn.nwrites)

let run t ~worker f =
  let rec loop retries =
    match run_attempt t ~worker f with
    | `User_abort txn ->
        let reads, writes = counts txn in
        { value = None; tid = None; log = []; retries; reads; writes }
    | `Committed (v, tid, log, txn) ->
        let reads, writes = counts txn in
        (match txn.Txn.decision with
        | None -> ()
        | Some d -> Hashtbl.replace t.pending_decisions worker d);
        { value = Some v; tid = Some tid; log; retries; reads; writes }
    | `Conflict ->
        t.s_retries <- t.s_retries + 1;
        loop (retries + 1)
  in
  loop 0

let run_once t ~worker f =
  match run_attempt t ~worker f with
  | `User_abort txn ->
      let reads, writes = counts txn in
      Some { value = None; tid = None; log = []; retries = 0; reads; writes }
  | `Committed (v, tid, log, txn) ->
      let reads, writes = counts txn in
      (match txn.Txn.decision with
      | None -> ()
      | Some d -> Hashtbl.replace t.pending_decisions worker d);
      Some { value = Some v; tid = Some tid; log; retries = 0; reads; writes }
  | `Conflict -> None

let take_decision t ~worker =
  match Hashtbl.find_opt t.pending_decisions worker with
  | None -> None
  | Some _ as d ->
      Hashtbl.remove t.pending_decisions worker;
      d

(* ---- replay ---- *)

(* Replay CAS against an existing record, with byte accounting; when the
   snapshot read floor is wired, the losing version is retained in the
   prior-version slot (and its bytes accounted) so pinned readers keep a
   consistent view under concurrent replay. *)
let cas_existing t table r ~epoch ~ts ~value =
  match t.read_floor with
  | None ->
      let old_len = String.length r.Store.Record.value in
      if Store.Record.cas_apply r ~epoch ~ts ~value then begin
        let new_len = match value with Some v -> String.length v | None -> 0 in
        Store.Table.account_growth table (new_len - old_len);
        true
      end
      else false
  | Some floor ->
      let before = String.length r.Store.Record.value + Store.Record.slot_bytes r in
      let applied =
        Store.Record.cas_apply_retain r ~floor:(floor ()) ~epoch ~ts ~value
      in
      (* Both outcomes can move bytes: an applied write swaps value and
         slot, a rejected ts-crossed write can still land in the slot. *)
      let after = String.length r.Store.Record.value + Store.Record.slot_bytes r in
      if after <> before then Store.Table.account_growth table (after - before);
      applied

(* [writes] is the precomputed [List.length txn.writes]: callers already
   need the count for their own accounting, so the hot path computes it
   exactly once. *)
let apply_replay t (txn : Store.Wire.txn_log) ~epoch ~writes ~applied =
  Sim.Cpu.consume t.cpu (Costs.replay_cost t.cost_model ~writes);
  (* Atomic: apply the whole write-set at one instant. *)
  List.iter
    (fun (w : Store.Wire.write) ->
      let table = table_by_id t w.table in
      match Store.Table.get table w.key with
      | Some r ->
          if cas_existing t table r ~epoch ~ts:txn.ts ~value:w.value then
            incr applied
      | None ->
          let r = Store.Record.make ~epoch:0 ~ts:(-1) "" in
          if Store.Record.cas_apply r ~epoch ~ts:txn.ts ~value:w.value then begin
            Store.Table.insert table w.key r;
            incr applied
          end)
    txn.writes

type replay_entry_result = {
  re_txns : int;
  re_writes : int;
  re_installed : int;
  re_seeks : int;
  re_steps : int;
}

let no_write = { Store.Wire.table = 0; key = ""; value = None }

(* Sentinel for "no record", compared physically; never bound to a key. *)
let absent = Store.Record.make ""

(* The writes of every transaction with [ts <= upto], flattened in log
   order, each beside its transaction's timestamp; and how many
   transactions contributed. *)
let flatten_upto (entry : Store.Wire.entry) ~upto =
  let txns = ref 0 and n = ref 0 in
  List.iter
    (fun (txn : Store.Wire.txn_log) ->
      if txn.Store.Wire.ts <= upto then begin
        incr txns;
        n := !n + List.length txn.writes
      end)
    entry.Store.Wire.txns;
  let ws = Array.make !n no_write and tss = Array.make !n 0 in
  let i = ref 0 in
  List.iter
    (fun (txn : Store.Wire.txn_log) ->
      if txn.Store.Wire.ts <= upto then
        List.iter
          (fun w ->
            ws.(!i) <- w;
            tss.(!i) <- txn.Store.Wire.ts;
            incr i)
          txn.writes)
    entry.Store.Wire.txns;
  (!txns, ws, tss)

let write_compare (a : Store.Wire.write) (b : Store.Wire.write) =
  let c = Int.compare a.table b.table in
  if c <> 0 then c else String.compare a.key b.key

(* The (table, key) order of [ws] that [Array.stable_sort] would give,
   built by merging the maximal ascending runs of [ws] pairwise, the left
   run winning ties. [install] logs each write-set sorted, so every
   transaction is at most one run: an entry of [r] runs costs about
   [n log2 r] comparisons instead of a full sort's [n log2 n]. *)
let merge_order ws =
  let n = Array.length ws in
  (* Run [r] is [src.(starts.(r)) .. src.(starts.(r + 1) - 1)]. *)
  let starts = Array.make (n + 1) n in
  let runs = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || write_compare ws.(i - 1) ws.(i) > 0 then begin
      starts.(!runs) <- i;
      incr runs
    end
  done;
  let src = ref (Array.init n Fun.id)
  and dst = ref (if !runs > 1 then Array.make n 0 else [||]) in
  while !runs > 1 do
    let a = !src and b = !dst in
    let pairs = (!runs + 1) / 2 in
    for p = 0 to pairs - 1 do
      let lo = starts.(2 * p) and mid = starts.((2 * p) + 1) in
      let hi = if (2 * p) + 2 <= !runs then starts.((2 * p) + 2) else mid in
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !j >= hi || (!i < mid && write_compare ws.(a.(!i)) ws.(a.(!j)) <= 0)
        then begin
          b.(k) <- a.(!i);
          incr i
        end
        else begin
          b.(k) <- a.(!j);
          incr j
        end
      done;
      starts.(p) <- lo
    done;
    starts.(pairs) <- n;
    runs := pairs;
    src := b;
    dst := a
  done;
  !src

let replay_order entry ~upto =
  let _, ws, tss = flatten_upto entry ~upto in
  Array.map (fun i -> (ws.(i), tss.(i))) (merge_order ws)

(* Follower replay of one durable log entry. The write-sets of every
   transaction with [ts <= upto] are flattened into one array and put in
   stable (table, key) order: transactions appear in timestamp order
   and keys are unique within one write-set, so each key's versions come
   out as a contiguous, ts-ascending run. Each table's key runs are swept
   through its B-tree with a cursor, and every version of a key is
   CAS-installed in ts order — exactly the per-key sequence
   [apply_replay] runs transaction by transaction, so a pinned snapshot
   reader keeps the intermediate version a later write of the same entry
   overwrites. One CPU charge for the whole entry replaces the
   per-transaction charges; it counts index work per distinct key. *)
let apply_replay_entry t (entry : Store.Wire.entry) ?(ways = 1) ~upto () =
  if ways < 1 then invalid_arg "Db.apply_replay_entry: ways must be >= 1";
  let epoch = entry.Store.Wire.epoch in
  (* [ws.(i)] is the i-th logged write, [tss.(i)] its transaction's
     timestamp; [ord] is the (table, key) order over them. *)
  let txns, ws, tss = flatten_upto entry ~upto in
  let n = Array.length ws in
  let ord = merge_order ws in
  (* Distinct keys: key [j]'s versions are [ord.(starts.(j))] up to
     (excluding) [ord.(starts.(j + 1))]; the unused tail stays [n]. *)
  let starts = Array.make (n + 1) n in
  (* Table runs: distinct keys [truns.(r), truns.(r + 1)) share a table,
     for the [nt] runs; [truns.(nt)] is [nk]. *)
  let truns = Array.make (n + 1) n in
  let nk = ref 0 and nt = ref 0 in
  for p = 0 to n - 1 do
    let w = ws.(ord.(p)) in
    let new_table = p = 0 || ws.(ord.(p - 1)).table <> w.table in
    if new_table || not (String.equal ws.(ord.(p - 1)).key w.key) then begin
      if new_table then begin
        truns.(!nt) <- !nk;
        incr nt
      end;
      starts.(!nk) <- p;
      incr nk
    end
  done;
  let nk = !nk and nt = !nt in
  truns.(nt) <- nk;
  let write_of j = ws.(ord.(starts.(j))) in
  let key_of j = (write_of j).key in
  (* Visit the table runs of distinct keys [lo, hi). *)
  let iter_tables lo hi f =
    if lo < hi then begin
      let r = ref 0 in
      while truns.(!r + 1) <= lo do
        incr r
      done;
      while !r < nt && truns.(!r) < hi do
        let a = truns.(!r) in
        f (table_by_id t (write_of a).table) (max lo a) (min hi truns.(!r + 1));
        incr r
      done
    end
  in
  let seeks = ref 0 and steps = ref 0 in
  let installed = ref 0 in
  (* [found.(j)] is key [j]'s record as the prediction pass saw it, or
     [absent] when it had none. *)
  let found = Array.make nk absent in
  (* Predict the index work of keys [lo, hi): tree tables report cursor
     descents + in-leaf steps, hash tables one probe per key. The same
     pass records each present key's record, and adds its tables'
     removal counts to [removed_before]. *)
  let charge_of ~removed_before lo hi =
    let s = ref 0 and st = ref 0 and hp = ref 0 in
    iter_tables lo hi (fun table a b ->
        removed_before := !removed_before + Store.Table.removals table;
        let counts =
          Store.Table.count_sorted_run ~found table ~key:key_of ~lo:a ~hi:b
        in
        match Store.Table.repr table with
        | Store.Table.Hash -> hp := !hp + counts.Store.Btree.descents
        | Store.Table.Btree ->
            s := !s + counts.Store.Btree.descents;
            st := !st + counts.Store.Btree.steps);
    seeks := !seeks + !s;
    steps := !steps + !st;
    Costs.replay_bulk_cost t.cost_model ~hash_probes:!hp ~seeks:!s ~steps:!st ()
  in
  (* Removals so far from the tables of keys [lo, hi); the counters only
     grow, so an unchanged sum means no removal in any of them. *)
  let removals lo hi =
    let n = ref 0 in
    iter_tables lo hi (fun table _ _ -> n := !n + Store.Table.removals table);
    !n
  in
  (* CAS key [j]'s versions from position [p0] on into [r], oldest
     first; true if any won. *)
  let install_from table r j p0 =
    let won = ref false in
    for p = p0 to starts.(j + 1) - 1 do
      let v = ord.(p) in
      if cas_existing t table r ~epoch ~ts:tss.(v) ~value:ws.(v).value then
        won := true
    done;
    !won
  in
  (* The sweep's per-key step: CAS into a bound record in place, or build
     and bind a record for an absent key. *)
  let visit table j existing =
    match existing with
    | Some r ->
        if install_from table r j starts.(j) then incr installed;
        None (* record mutated in place; no structural change *)
    | None ->
        let p0 = starts.(j) in
        let v = ord.(p0) in
        let r = Store.Record.make ~epoch:0 ~ts:(-1) "" in
        if Store.Record.cas_apply r ~epoch ~ts:tss.(v) ~value:ws.(v).value
        then begin
          Store.Table.account_growth table
            (Store.Record.byte_size ~key:ws.(v).key r);
          (* Later versions replace the first through the same CAS an
             existing record takes. *)
          ignore (install_from table r j (p0 + 1));
          incr installed;
          Some r
        end
        else None
  in
  let sweep lo hi =
    iter_tables lo hi (fun table a b ->
        ignore
          (Store.Table.apply_sorted_run table ~key:key_of ~lo:a ~hi:b
             ~f:(fun j existing -> visit table j existing)))
  in
  (* [absent_keys.(a ..)] lists the keys of table run [a, b) that the
     prediction pass did not find. *)
  let absent_keys = Array.make nk 0 in
  (* The one-descent apply: records found by the prediction pass take
     their CAS directly; only absent keys go through the sweep, which
     also catches a key bound while the charge was consumed. *)
  let apply_found lo hi =
    iter_tables lo hi (fun table a b ->
        let m = ref a in
        for j = a to b - 1 do
          let r = found.(j) in
          if r == absent then begin
            absent_keys.(!m) <- j;
            incr m
          end
          else if install_from table r j starts.(j) then incr installed
        done;
        if !m > a then
          ignore
            (Store.Table.apply_sorted_run table
               ~key:(fun i -> key_of absent_keys.(i))
               ~lo:a ~hi:!m
               ~f:(fun i existing -> visit table absent_keys.(i) existing)))
  in
  (* Count, charge, then apply: a read-only pass predicts the index work
     and the CPU is consumed *before* the indexes are touched, so
     bulk-replayed state becomes visible at the same virtual time as the
     equivalent per-transaction consume-then-apply sequence. The
     predicted counts are also the charged/reported ones, keeping cost
     and stats consistent; they can drift from the live sweep by at most
     one charge per leaf split. A removal while the charge is consumed
     (promotion's [compact], a leader-side delete) can unbind a found
     record, so then the apply falls back to the full sweep. *)
  let charge_and_apply lo hi =
    let removed_before = ref 0 in
    Sim.Cpu.consume t.cpu (charge_of ~removed_before lo hi);
    if removals lo hi = !removed_before then apply_found lo hi else sweep lo hi
  in
  if ways = 1 || nk <= 1 then charge_and_apply 0 nk
  else begin
    (* Parallel bulk replay: slice the sorted distinct keys into [w]
       contiguous pieces. Contiguity in the sorted order makes the key
       ranges disjoint, so the slices commute — each helper process
       charges and applies its own slice concurrently, and follower
       replay scales with the machine's cores the way leader execution
       does. Safe below the watermark for the same reason the sequential
       path is: every write in the entry is already durable and
       conflict-free. Helpers register as active threads, so the CPU
       model's efficiency and oversubscription factors apply to replay
       exactly as they do to leader workers. *)
    let w = min ways nk in
    let wg = Sim.Sync.Waitgroup.create t.eng in
    Sim.Sync.Waitgroup.add wg w;
    for i = 0 to w - 1 do
      let lo = i * nk / w and hi = (i + 1) * nk / w in
      ignore
        (Sim.Engine.spawn t.eng ~name:(Printf.sprintf "replay-par-%d" i)
           (fun () ->
             Sim.Cpu.register t.cpu;
             charge_and_apply lo hi;
             Sim.Cpu.unregister t.cpu;
             Sim.Sync.Waitgroup.finish wg))
    done;
    Sim.Sync.Waitgroup.wait wg
  end;
  {
    re_txns = txns;
    re_writes = n;
    re_installed = !installed;
    re_seeks = !seeks;
    re_steps = !steps;
  }

(* ---- snapshot reads ---- *)

exception Snapshot_miss

type snap = {
  s_db : t;
  s_pin : int;
  mutable s_reads : int;
  s_audited : bool;
  mutable s_obs : (int * string * int) list;
}


(* One point read of [key], whose index lookup gave [found]. *)
let snap_read s table key found =
  s.s_reads <- s.s_reads + 1;
  let v, ts =
    match found with
    | None -> (None, -1)
    | Some r -> (
        match Store.Record.read_at r ~pin:s.s_pin with
        | Store.Record.Visible (v, ts) -> (v, ts)
        | Store.Record.Miss -> raise Snapshot_miss)
  in
  if s.s_audited then s.s_obs <- (Store.Table.id table, key, ts) :: s.s_obs;
  v

let snap_get s table key = snap_read s table key (Store.Table.get table key)

(* The index lookups touch no record and no counter, so doing them all
   first and then reading key by key is [snap_get] in order. *)
let snap_get_many s table keys =
  let n = Array.length keys in
  let db = s.s_db in
  if Array.length db.probe_scratch < n then db.probe_scratch <- Array.make n None;
  let found = db.probe_scratch in
  Store.Table.get_many table keys found;
  let out = Array.make n None in
  for i = 0 to n - 1 do
    out.(i) <- snap_read s table keys.(i) found.(i)
  done;
  out

let read_at t ?(audit = false) ~pin f =
  let s = { s_db = t; s_pin = pin; s_reads = 0; s_audited = audit; s_obs = [] } in
  (* The body is yield-free (no locks, no validation): the cost is
     consumed after it, so a pinned read never spans an install — which
     is what lets retention reclaim slots against the bare floor. *)
  let charge () =
    Sim.Cpu.consume t.cpu
      (t.cost_model.Costs.txn_begin_ns
      + (s.s_reads * t.cost_model.Costs.snapshot_read_ns))
  in
  match f s with
  | v ->
      t.s_snap_reads <- t.s_snap_reads + 1;
      charge ();
      (v, s.s_obs)
  | exception Snapshot_miss ->
      t.s_snap_misses <- t.s_snap_misses + 1;
      charge ();
      raise Snapshot_miss

let snapshot_reads t = t.s_snap_reads
let snapshot_misses t = t.s_snap_misses

let stats t =
  {
    commits = t.s_commits;
    user_aborts = t.s_user_aborts;
    conflict_aborts = t.s_conflict_aborts;
    retries = t.s_retries;
  }

let reset_stats t =
  t.s_commits <- 0;
  t.s_user_aborts <- 0;
  t.s_conflict_aborts <- 0;
  t.s_retries <- 0

let total_bytes t =
  List.fold_left (fun acc table -> acc + Store.Table.bytes table) 0 t.table_list
