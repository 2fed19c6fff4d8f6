exception Abort

(* Read- and write-sets are keyed by (table id, key). A functorized table
   with [String.equal] and a string hash skips polymorphic hashing and
   comparison of the tuple on every probe. *)
module Key_tbl = Hashtbl.Make (struct
  type t = int * string

  let equal ((a : int), k) (b, k') = a = b && String.equal k k'
  let hash ((id : int), k) = Hashtbl.hash k + (id * 0x9E3779B1)
end)

type write_entry = {
  w_table : Store.Table.t;
  w_key : string;
  mutable w_value : string option;
  w_read : Store.Record.t option;
}

type scan_entry = {
  s_table : Store.Table.t;
  s_lo : string;
  s_hi : string;
  s_limit : int;
  s_seen : (string * int) list;
}

type probe_entry = {
  p_table : Store.Table.t;
  p_lo : string;
  p_hi : string;
  p_seen : (string * int) option; (* max-live (key, version), if any *)
}

type t = {
  worker : int;
  costs : Costs.t;
  mutable reads : (Store.Record.t * int) list;
  read_keys : Store.Record.t option Key_tbl.t;
  mutable absents : (Store.Table.t * string) list;
  mutable scans : scan_entry list;
  mutable probes : probe_entry list;
  writes : write_entry Key_tbl.t;
  mutable write_order : write_entry list;
  mutable nreads : int;
  mutable nhash_reads : int;
  mutable nwrites : int;
  mutable nscans : int;
  mutable nscan_rows : int;
  mutable nvalue_bytes : int;
  mutable decision : Store.Wire.decision option;
}

let create ~worker ~costs =
  {
    worker;
    costs;
    reads = [];
    read_keys = Key_tbl.create 16;
    absents = [];
    scans = [];
    probes = [];
    writes = Key_tbl.create 8;
    write_order = [];
    nreads = 0;
    nhash_reads = 0;
    nwrites = 0;
    nscans = 0;
    nscan_rows = 0;
    nvalue_bytes = 0;
    decision = None;
  }

(* Return a transaction context to its just-created state so a worker can
   reuse it across attempts. [Hashtbl.clear] (not [reset]) keeps the grown
   bucket arrays, so a warmed-up context executes without allocating its
   bookkeeping structures again. *)
let reset t =
  t.reads <- [];
  Key_tbl.clear t.read_keys;
  t.absents <- [];
  t.scans <- [];
  t.probes <- [];
  Key_tbl.clear t.writes;
  t.write_order <- [];
  t.nreads <- 0;
  t.nhash_reads <- 0;
  t.nwrites <- 0;
  t.nscans <- 0;
  t.nscan_rows <- 0;
  t.nvalue_bytes <- 0;
  t.decision <- None

let track_read t id table key (r : Store.Record.t option) =
  if not (Key_tbl.mem t.read_keys id) then begin
    Key_tbl.add t.read_keys id r;
    match r with
    | Some rec_ -> t.reads <- (rec_, rec_.Store.Record.version) :: t.reads
    | None -> t.absents <- (table, key) :: t.absents
  end

let note_bytes t = function
  | Some v -> t.nvalue_bytes <- t.nvalue_bytes + String.length v
  | None -> ()

let get t table key =
  t.nreads <- t.nreads + 1;
  if Store.Table.repr table = Store.Table.Hash then
    t.nhash_reads <- t.nhash_reads + 1;
  let id = (Store.Table.id table, key) in
  match Key_tbl.find_opt t.writes id with
  | Some w ->
      note_bytes t w.w_value;
      w.w_value (* read-own-write; None if we deleted it *)
  | None -> (
      let found = Store.Table.get table key in
      track_read t id table key found;
      match found with
      | Some r when not r.Store.Record.deleted ->
          let v = r.Store.Record.value in
          t.nvalue_bytes <- t.nvalue_bytes + String.length v;
          Some v
      | Some _ | None -> None)

(* A new write entry remembers the record this transaction read for the
   key, if any, so install can reuse it instead of descending again. *)
let buffer_write t table key value =
  t.nwrites <- t.nwrites + 1;
  note_bytes t value;
  let id = (Store.Table.id table, key) in
  match Key_tbl.find_opt t.writes id with
  | Some w -> w.w_value <- value
  | None ->
      let w_read =
        match Key_tbl.find t.read_keys id with r -> r | exception Not_found -> None
      in
      let w = { w_table = table; w_key = key; w_value = value; w_read } in
      Key_tbl.add t.writes id w;
      t.write_order <- w :: t.write_order

let put t table key value = buffer_write t table key (Some value)
let delete t table key = buffer_write t table key None

let scan t table ~lo ~hi ?(limit = max_int) () =
  t.nscans <- t.nscans + 1;
  let rows = Store.Table.scan table ~lo ~hi ~limit () in
  t.nscan_rows <- t.nscan_rows + List.length rows;
  List.iter
    (fun (_, (r : Store.Record.t)) ->
      t.nvalue_bytes <- t.nvalue_bytes + String.length r.value)
    rows;
  let seen = List.map (fun (k, (r : Store.Record.t)) -> (k, r.version)) rows in
  t.scans <- { s_table = table; s_lo = lo; s_hi = hi; s_limit = limit; s_seen = seen } :: t.scans;
  List.map (fun (k, (r : Store.Record.t)) -> (k, r.value)) rows

let first_live t table ~lo ~hi =
  match scan t table ~lo ~hi ~limit:1 () with [] -> None | kv :: _ -> Some kv

let last_live t table ~lo ~hi =
  t.nreads <- t.nreads + 1;
  let found = Store.Table.max_live table ~lo ~hi in
  let seen = Option.map (fun (k, (r : Store.Record.t)) -> (k, r.version)) found in
  t.probes <- { p_table = table; p_lo = lo; p_hi = hi; p_seen = seen } :: t.probes;
  Option.map (fun (k, (r : Store.Record.t)) -> (k, r.value)) found

let abort () = raise Abort
let set_decision t d = t.decision <- Some d

let exec_cost_ns t =
  Costs.exec_cost t.costs ~hash_reads:t.nhash_reads ~reads:t.nreads
    ~writes:t.nwrites ~scan_rows:t.nscan_rows ~scans:t.nscans
    ~value_bytes:t.nvalue_bytes ()

let commit_cost_ns t =
  (* Validation revisits the scan rows, so they count as reads here. *)
  Costs.commit_cost t.costs
    ~reads:(List.length t.reads + List.length t.absents + t.nscan_rows)
    ~writes:(Key_tbl.length t.writes)

let write_count t = Key_tbl.length t.writes
