type repr = Btree | Hash

type index =
  | Tree of Record.t Btree.t
  | Htbl of (string, Record.t) Hashtbl.t

type t = {
  table_id : int;
  table_name : string;
  index : index;
  mutable bytes : int;
  mutable removals : int;
      (* bumped by every physical removal; a caller holding records found
         before a yield checks it to know every one is still bound *)
}

let create ?(repr = Btree) ~id ~name () =
  let index =
    match repr with
    | Btree -> Tree (Btree.create ())
    | Hash -> Htbl (Hashtbl.create 256)
  in
  { table_id = id; table_name = name; index; bytes = 0; removals = 0 }

(* Every record is copied and every key shared. [Hashtbl.copy] keeps the
   bucket layout of the source; the records are then swapped in place. *)
let copy t =
  let index =
    match t.index with
    | Tree tr -> Tree (Btree.copy Record.copy tr)
    | Htbl h ->
        let h = Hashtbl.copy h in
        Hashtbl.filter_map_inplace (fun _ r -> Some (Record.copy r)) h;
        Htbl h
  in
  { t with index }

let id t = t.table_id
let name t = t.table_name
let repr t = match t.index with Tree _ -> Btree | Htbl _ -> Hash

let tree t =
  match t.index with
  | Tree tr -> tr
  | Htbl _ ->
      invalid_arg
        (Printf.sprintf
           "Table.tree: %s is hash-indexed; use apply_sorted_run / iter \
            instead of reaching for the B-tree"
           t.table_name)

let no_range t op =
  invalid_arg
    (Printf.sprintf
       "Table.%s: %s is hash-indexed (point lookups only). Range operations \
        need the ordered B-tree representation — drop the table from \
        Config.hash_tables if the workload scans it."
       op t.table_name)

let get t key =
  match t.index with
  | Tree tr -> Btree.find tr key
  | Htbl h -> Hashtbl.find_opt h key

(* A hash probe is one bucket walk with no level to overlap, so the hash
   arm stays key by key. *)
let get_many t keys out =
  match t.index with
  | Tree tr -> Btree.find_many tr keys out
  | Htbl h ->
      if Array.length out < Array.length keys then
        invalid_arg "Table.get_many: output shorter than keys";
      Array.iteri (fun i k -> out.(i) <- Hashtbl.find_opt h k) keys

let get_live t key =
  match get t key with
  | Some r when not (Record.is_deleted r) -> Some r
  | Some _ | None -> None

let insert t key r =
  (* Guarded insert: a duplicate key fails without ever touching the
     index, instead of clobbering the binding and re-inserting it. *)
  let inserted =
    match t.index with
    | Tree tr -> Btree.insert_if_absent tr key r
    | Htbl h ->
        if Hashtbl.mem h key then false
        else begin
          Hashtbl.add h key r;
          true
        end
  in
  if inserted then t.bytes <- t.bytes + Record.byte_size ~key r
  else invalid_arg (Printf.sprintf "Table.insert: duplicate key in %s" t.table_name)

let remove_phys t key =
  let removed =
    match t.index with
    | Tree tr -> Btree.remove tr key
    | Htbl h ->
        let r = Hashtbl.find_opt h key in
        if r <> None then Hashtbl.remove h key;
        r
  in
  match removed with
  | Some r ->
      t.bytes <- t.bytes - Record.byte_size ~key r;
      t.removals <- t.removals + 1
  | None -> ()

let removals t = t.removals

let scan t ~lo ~hi ?(limit = max_int) () =
  match t.index with
  | Htbl _ -> no_range t "scan"
  | Tree tr ->
      let acc = ref [] in
      let n = ref 0 in
      Btree.iter_from tr lo (fun k r ->
          if compare k hi >= 0 || !n >= limit then false
          else begin
            if not (Record.is_deleted r) then begin
              acc := (k, r) :: !acc;
              incr n
            end;
            !n < limit
          end);
      List.rev !acc

let max_live t ~lo ~hi =
  match t.index with
  | Htbl _ -> no_range t "max_live"
  | Tree tr ->
      let rec probe below =
        match Btree.find_last_lt tr below with
        | Some (k, r) when compare k lo >= 0 ->
            if Record.is_deleted r then probe k else Some (k, r)
        | Some _ | None -> None
      in
      probe hi

let count t =
  match t.index with Tree tr -> Btree.length tr | Htbl h -> Hashtbl.length h

let bytes t = t.bytes
let account_growth t delta = t.bytes <- t.bytes + delta

(* Hash iteration order is an implementation detail of [Hashtbl] (and has
   changed across compiler releases), so the hash arm sorts keys before
   visiting: [iter] promises ascending keys for *every* representation.
   Checkpointing leans on that promise — its table scans must produce
   strictly ascending runs for the bootstrap-side [apply_sorted] — and it
   keeps virtual-time results independent of the stdlib's hashing. *)
let iter t f =
  match t.index with
  | Tree tr -> Btree.iter tr f
  | Htbl h ->
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) h [] in
      List.iter
        (fun k -> match Hashtbl.find_opt h k with Some r -> f k r | None -> ())
        (List.sort compare keys)

let compact t =
  let dead = ref [] in
  iter t (fun k r -> if Record.is_deleted r then dead := (k, r) :: !dead);
  List.iter
    (fun (k, r) ->
      (match t.index with
      | Tree tr -> ignore (Btree.remove tr k)
      | Htbl h -> Hashtbl.remove h k);
      t.bytes <- t.bytes - Record.byte_size ~key:k r;
      t.removals <- t.removals + 1)
    !dead;
  List.length !dead

(* ---- sorted bulk application, representation-dispatched ----

   The replay and checkpoint-bootstrap paths hand a strictly ascending,
   index-addressed key run to the table. For a B-tree that is one cursor
   sweep; for a hash index there is no locality to exploit, so each key
   is an independent probe — reported as one "descent" with zero in-leaf
   steps, which is exactly how the cost model wants to charge a hash
   lookup. *)

let check_ascending ~key ~lo ~hi =
  for i = lo + 1 to hi - 1 do
    if String.compare (key (i - 1)) (key i) >= 0 then
      invalid_arg "Table.apply_sorted_run: keys not strictly ascending"
  done

let count_sorted_run ?found t ~key ~lo ~hi =
  match t.index with
  | Tree tr -> Btree.count_sorted ?found tr ~key ~lo ~hi
  | Htbl h ->
      check_ascending ~key ~lo ~hi;
      (match found with
      | None -> ()
      | Some a ->
          for i = lo to hi - 1 do
            match Hashtbl.find h (key i) with
            | r -> a.(i) <- r
            | exception Not_found -> ()
          done);
      { Btree.descents = hi - lo; steps = 0 }

let apply_sorted_run t ~key ~lo ~hi ~f =
  match t.index with
  | Tree tr -> Btree.apply_sorted tr ~key ~lo ~hi ~f
  | Htbl h ->
      check_ascending ~key ~lo ~hi;
      for i = lo to hi - 1 do
        let k = key i in
        match f i (Hashtbl.find_opt h k) with
        | Some r -> Hashtbl.replace h k r
        | None -> ()
      done;
      { Btree.descents = hi - lo; steps = 0 }
