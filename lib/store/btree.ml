(* Branching factors. Non-root leaves hold [min_leaf, max_leaf] entries;
   non-root internal nodes hold [min_child, max_child] children. Internal
   nodes use plain arrays rebuilt on modification: they change only at
   splits and merges, and copying a small array beats the bookkeeping of
   in-place shifting. Leaves change at every insert, so a leaf keeps
   [len] live entries in arrays that may have spare capacity and shifts
   in place; it regrows by half when full, and splits and merges leave
   exact-sized arrays, so a tree built and then only read carries no
   slack. Slots past [len] hold [""] and a live value of the same leaf,
   never a removed one, so nothing dead stays reachable. *)
let max_leaf = 32
let min_leaf = max_leaf / 2
let max_child = 32
let min_child = max_child / 2

type 'a leaf = {
  mutable keys : string array;
  mutable vals : 'a array;
  mutable len : int; (* live entries: [keys.(0 .. len - 1)] *)
  mutable next : 'a leaf option;
}

type 'a node = Leaf of 'a leaf | Node of 'a inner

and 'a inner = {
  mutable seps : string array; (* length = Array.length kids - 1 *)
  mutable kids : 'a node array;
}

type 'a t = {
  mutable root : 'a node;
  mutable size : int;
  mutable lanes : 'a node array; (* [find_many]'s per-key positions *)
  nil : 'a leaf; (* always empty: where a sweep starts, before its first descent *)
}

let empty_leaf () = { keys = [||]; vals = [||]; len = 0; next = None }
let create () = { root = Leaf (empty_leaf ()); size = 0; lanes = [||]; nil = empty_leaf () }
let length t = t.size
let is_empty t = t.size = 0

(* ---- array helpers ---- *)

let array_insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

(* Insert [k, v] at slot [i] of [l], in place when there is room. *)
let leaf_insert l i k v =
  let n = l.len in
  if n < Array.length l.keys then begin
    Array.blit l.keys i l.keys (i + 1) (n - i);
    Array.blit l.vals i l.vals (i + 1) (n - i)
  end
  else begin
    let cap = min (max_leaf + 1) (n + (n / 2) + 1) in
    let keys = Array.make cap "" and vals = Array.make cap v in
    Array.blit l.keys 0 keys 0 i;
    Array.blit l.keys i keys (i + 1) (n - i);
    Array.blit l.vals 0 vals 0 i;
    Array.blit l.vals i vals (i + 1) (n - i);
    l.keys <- keys;
    l.vals <- vals
  end;
  l.keys.(i) <- k;
  l.vals.(i) <- v;
  l.len <- n + 1

(* Drop slot [i] of [l] in place; the vacated slot forgets its value. *)
let leaf_remove l i =
  let n = l.len - 1 in
  Array.blit l.keys (i + 1) l.keys i (n - i);
  Array.blit l.vals (i + 1) l.vals i (n - i);
  l.len <- n;
  if n = 0 then begin
    l.keys <- [||];
    l.vals <- [||]
  end
  else begin
    l.keys.(n) <- "";
    l.vals.(n) <- l.vals.(0)
  end

let array_remove a i =
  let n = Array.length a in
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) b i (n - 1 - i);
  b

(* Binary search over [keys.(0 .. len - 1)]: [i >= 0] if [keys.(i) = k],
   otherwise [-(i + 1)] where [i] is the insertion point, so a probe
   allocates nothing. Keys are
   always strings, and the monomorphic [String.compare] (the same order
   as polymorphic [compare]) skips the generic comparison's tag dispatch
   on every probe. *)
let bsearch (keys : string array) len k =
  let lo = ref 0 and hi = ref len in
  let found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = String.compare k keys.(mid) in
    if c = 0 then found := mid else if c < 0 then hi := mid else lo := mid + 1
  done;
  if !found >= 0 then !found else -(!lo + 1)

(* Insertion point of a [bsearch] result: the slot of [k] either way. *)
let slot i = if i >= 0 then i else -(i + 1)

(* Index of the child to descend into: subtree [i] holds keys [k] with
   [seps.(i-1) <= k < seps.(i)], i.e. the first [i] with [k < seps.(i)].
   Binary search: a descent touches O(log fanout) separator strings per
   level instead of scanning up to [max_child] of them. *)
let child_index n k =
  let lo = ref 0 and hi = ref (Array.length n.seps) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if String.compare k n.seps.(mid) >= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* ---- find ---- *)

let rec find_node node k =
  match node with
  | Leaf l ->
      let i = bsearch l.keys l.len k in
      if i >= 0 then Some l.vals.(i) else None
  | Node n -> find_node n.kids.(child_index n k) k

let find t k = find_node t.root k
let mem t k = find t k <> None

(* A cold descent pays its cache misses one after another: each level's
   node, separator array and separator strings are reached through the
   level above. Masstree hides that latency by prefetching a node before
   searching it, which OCaml cannot express. [find_many] gets the overlap
   another way. Each round moves every key one level down, and first
   touches, for every key, the loads its search will start with: the
   node, its arrays and its middle separator. That touch pass is short
   per key and its keys' loads do not depend on each other, so the
   processor has the misses of many keys in flight at once, and the
   searches that follow find those lines cached. All leaves sit at the
   same depth, so every key reaches its leaf in the same round. The
   positions live in [t.lanes], reused from call to call and reset to the
   root on the way out, so a probe allocates only the [Some] that [find]
   would. *)
let find_many t keys out =
  let n = Array.length keys in
  if Array.length out < n then invalid_arg "Btree.find_many: output shorter than keys";
  if Array.length t.lanes < n then t.lanes <- Array.make n t.root
  else Array.fill t.lanes 0 n t.root;
  let lanes = t.lanes in
  (* Summed and handed to [Sys.opaque_identity] so the touches stay. *)
  let touched = ref 0 in
  let inner = ref (n > 0 && match t.root with Node _ -> true | Leaf _ -> false) in
  while !inner do
    for i = 0 to n - 1 do
      match lanes.(i) with
      | Node nd ->
          let seps = nd.seps in
          let mid = seps.(Array.length seps lsr 1) in
          touched := !touched + String.length mid + Array.length nd.kids
      | Leaf _ -> ()
    done;
    for i = 0 to n - 1 do
      match lanes.(i) with
      | Node nd -> lanes.(i) <- nd.kids.(child_index nd keys.(i))
      | Leaf _ -> ()
    done;
    inner := match lanes.(0) with Node _ -> true | Leaf _ -> false
  done;
  for i = 0 to n - 1 do
    match lanes.(i) with
    | Leaf l when l.len > 0 ->
        touched := !touched + String.length l.keys.(l.len lsr 1) + Array.length l.vals
    | Leaf _ | Node _ -> ()
  done;
  ignore (Sys.opaque_identity !touched);
  for i = 0 to n - 1 do
    match lanes.(i) with
    | Leaf l ->
        let j = bsearch l.keys l.len keys.(i) in
        out.(i) <- (if j >= 0 then Some l.vals.(j) else None);
        lanes.(i) <- t.root
    | Node _ -> assert false (* every leaf is at the same depth *)
  done

(* ---- insert ---- *)

type 'a split = (string * 'a node) option

exception Duplicate

(* [guard = true] refuses to clobber an existing binding: the exception
   escapes before any node is touched, so a failed guarded insert leaves
   the tree bit-identical — no insert-then-undo dance in callers. *)
let rec ins ~guard node k v : 'a option * 'a split =
  match node with
  | Leaf l -> (
      let i = bsearch l.keys l.len k in
      if i >= 0 then begin
        if guard then raise_notrace Duplicate;
        let prev = l.vals.(i) in
        l.vals.(i) <- v;
        (Some prev, None)
      end
      else begin
        leaf_insert l (slot i) k v;
        if l.len <= max_leaf then (None, None)
        else begin
          let n = l.len in
          let h = n / 2 in
          let right =
            {
              keys = Array.sub l.keys h (n - h);
              vals = Array.sub l.vals h (n - h);
              len = n - h;
              next = l.next;
            }
          in
          l.keys <- Array.sub l.keys 0 h;
          l.vals <- Array.sub l.vals 0 h;
          l.len <- h;
          l.next <- Some right;
          (None, Some (right.keys.(0), Leaf right))
        end
      end)
  | Node n -> (
      let i = child_index n k in
      let prev, split = ins ~guard n.kids.(i) k v in
      match split with
      | None -> (prev, None)
      | Some (sep, right) ->
          n.seps <- array_insert n.seps i sep;
          n.kids <- array_insert n.kids (i + 1) right;
          if Array.length n.kids <= max_child then (prev, None)
          else begin
            let m = Array.length n.kids in
            let h = m / 2 in
            let promoted = n.seps.(h - 1) in
            let right_node =
              {
                seps = Array.sub n.seps h (m - 1 - h);
                kids = Array.sub n.kids h (m - h);
              }
            in
            n.seps <- Array.sub n.seps 0 (h - 1);
            n.kids <- Array.sub n.kids 0 h;
            (prev, Some (promoted, Node right_node))
          end)

let root_split t = function
  | Some (sep, right) -> t.root <- Node { seps = [| sep |]; kids = [| t.root; right |] }
  | None -> ()

let insert t k v =
  let prev, split = ins ~guard:false t.root k v in
  root_split t split;
  if prev = None then t.size <- t.size + 1;
  prev

let insert_if_absent t k v =
  match ins ~guard:true t.root k v with
  | exception Duplicate -> false
  | _, split ->
      root_split t split;
      t.size <- t.size + 1;
      true

(* ---- delete ---- *)

let node_underflows = function
  | Leaf l -> l.len < min_leaf
  | Node n -> Array.length n.kids < min_child

(* Repair an underfull child [i] of [n] by borrowing from or merging with
   a sibling. Separators are maintained so that
   max(subtree i) < seps.(i) <= min(subtree i+1). *)
let fix_child n i =
  let borrow_from_left i =
    match (n.kids.(i - 1), n.kids.(i)) with
    | Leaf left, Leaf cur ->
        let j = left.len - 1 in
        let k = left.keys.(j) and v = left.vals.(j) in
        leaf_remove left j;
        leaf_insert cur 0 k v;
        n.seps.(i - 1) <- k
    | Node left, Node cur ->
        let j = Array.length left.kids - 1 in
        let moved = left.kids.(j) in
        let moved_sep = left.seps.(j - 1) in
        left.kids <- array_remove left.kids j;
        left.seps <- array_remove left.seps (j - 1);
        cur.kids <- array_insert cur.kids 0 moved;
        cur.seps <- array_insert cur.seps 0 n.seps.(i - 1);
        n.seps.(i - 1) <- moved_sep
    | _ -> assert false (* siblings are always the same kind *)
  in
  let borrow_from_right i =
    match (n.kids.(i), n.kids.(i + 1)) with
    | Leaf cur, Leaf right ->
        let k = right.keys.(0) and v = right.vals.(0) in
        leaf_remove right 0;
        leaf_insert cur cur.len k v;
        n.seps.(i) <- right.keys.(0)
    | Node cur, Node right ->
        let moved = right.kids.(0) in
        let moved_sep = right.seps.(0) in
        right.kids <- array_remove right.kids 0;
        right.seps <- array_remove right.seps 0;
        cur.kids <- array_insert cur.kids (Array.length cur.kids) moved;
        cur.seps <- array_insert cur.seps (Array.length cur.seps) n.seps.(i);
        n.seps.(i) <- moved_sep
    | _ -> assert false
  in
  (* Merge child [i+1] into child [i] and drop separator [i]. *)
  let merge i =
    (match (n.kids.(i), n.kids.(i + 1)) with
    | Leaf left, Leaf right ->
        left.keys <-
          Array.append (Array.sub left.keys 0 left.len) (Array.sub right.keys 0 right.len);
        left.vals <-
          Array.append (Array.sub left.vals 0 left.len) (Array.sub right.vals 0 right.len);
        left.len <- left.len + right.len;
        left.next <- right.next
    | Node left, Node right ->
        left.seps <- Array.concat [ left.seps; [| n.seps.(i) |]; right.seps ];
        left.kids <- Array.append left.kids right.kids
    | _ -> assert false);
    n.seps <- array_remove n.seps i;
    n.kids <- array_remove n.kids (i + 1)
  in
  let has_spare = function
    | Leaf l -> l.len > min_leaf
    | Node m -> Array.length m.kids > min_child
  in
  if node_underflows n.kids.(i) then begin
    if i > 0 && has_spare n.kids.(i - 1) then borrow_from_left i
    else if i < Array.length n.kids - 1 && has_spare n.kids.(i + 1) then
      borrow_from_right i
    else if i > 0 then merge (i - 1)
    else merge i
  end

let rec del node k : 'a option =
  match node with
  | Leaf l -> (
      let i = bsearch l.keys l.len k in
      if i < 0 then None
      else begin
        let v = l.vals.(i) in
        leaf_remove l i;
        Some v
      end)
  | Node n ->
      let i = child_index n k in
      let removed = del n.kids.(i) k in
      if removed <> None then fix_child n i;
      removed

let remove t k =
  let removed = del t.root k in
  (match removed with
  | Some _ -> (
      t.size <- t.size - 1;
      match t.root with
      | Node n when Array.length n.kids = 1 -> t.root <- n.kids.(0)
      | Node _ | Leaf _ -> ())
  | None -> ());
  removed

(* ---- ordered access ---- *)

let rec leftmost_leaf = function Leaf l -> l | Node n -> leftmost_leaf n.kids.(0)

let rec rightmost_leaf = function
  | Leaf l -> l
  | Node n -> rightmost_leaf n.kids.(Array.length n.kids - 1)

let min_binding t =
  let l = leftmost_leaf t.root in
  if l.len = 0 then None else Some (l.keys.(0), l.vals.(0))

let max_binding t =
  let l = rightmost_leaf t.root in
  let n = l.len in
  if n = 0 then None else Some (l.keys.(n - 1), l.vals.(n - 1))

(* Leaf that would contain [k], i.e. the leaf reached by descent. *)
let rec seek_leaf node k =
  match node with Leaf l -> l | Node n -> seek_leaf n.kids.(child_index n k) k

(* ---- read cursor ---- *)

type 'a cursor = {
  c_tree : 'a t;
  mutable c_leaf : 'a leaf option;
  mutable c_idx : int;
}

let cursor t = { c_tree = t; c_leaf = None; c_idx = 0 }

(* Hop to the next leaf when the index ran off the end. One hop suffices:
   only the root leaf can be empty, and it has no successor. *)
let rec cursor_norm c =
  match c.c_leaf with
  | Some l when c.c_idx >= l.len ->
      c.c_leaf <- l.next;
      c.c_idx <- 0;
      cursor_norm c
  | Some _ | None -> ()

let seek c k =
  let l = seek_leaf c.c_tree.root k in
  c.c_leaf <- Some l;
  c.c_idx <- slot (bsearch l.keys l.len k);
  cursor_norm c

let current c =
  match c.c_leaf with
  | Some l when c.c_idx < l.len -> Some (l.keys.(c.c_idx), l.vals.(c.c_idx))
  | Some _ | None -> None

let advance c =
  match c.c_leaf with
  | None -> ()
  | Some _ ->
      c.c_idx <- c.c_idx + 1;
      cursor_norm c

(* ---- sorted bulk apply (the follower-replay fast path) ---- *)

type bulk_counts = { descents : int; steps : int }

(* Sweep state shared by [apply_sorted] and [count_sorted]: the cached
   descent target — a leaf plus its exclusive key-space bound from the
   separator chain — held in one mutable record so a sweep allocates
   nothing per key. The bound, not the next leaf's first key (which can
   drift above the separator after deletions), decides whether the next
   ascending key still belongs to this leaf. *)
type 'a sweep = {
  mutable leaf : 'a leaf;
  mutable hi : string;
  mutable bounded : bool; (* [hi] is meaningful; false = rightmost leaf *)
  mutable cached : bool; (* [leaf] is a valid descent target *)
}

(* Uncached, so the first key descends; the placeholder leaf is never
   read before that descent replaces it. *)
let sweep_start t = { leaf = t.nil; hi = ""; bounded = false; cached = false }

let sweep_covers sw k = sw.cached && ((not sw.bounded) || String.compare k sw.hi < 0)

let rec sweep_go sw k = function
  | Leaf l -> sw.leaf <- l
  | Node n ->
      let i = child_index n k in
      if i < Array.length n.seps then begin
        sw.hi <- n.seps.(i);
        sw.bounded <- true
      end;
      sweep_go sw k n.kids.(i)

let sweep_descend t sw k =
  sw.bounded <- false;
  sw.cached <- true;
  sweep_go sw k t.root

let check_ascending ~fn ~key ~lo i =
  if i > lo && String.compare (key (i - 1)) (key i) >= 0 then
    invalid_arg (fn ^ ": keys must be strictly ascending")

let apply_sorted t ~key ~lo ~hi ~f =
  let descents = ref 0 and steps = ref 0 in
  (* While ascending keys stay below the cached bound they reuse the leaf
     (a "step"); crossing it or splitting the leaf forces a fresh
     descent. *)
  let sw = sweep_start t in
  for i = lo to hi - 1 do
    check_ascending ~fn:"Btree.apply_sorted" ~key ~lo i;
    let k = key i in
    if sweep_covers sw k then incr steps
    else begin
      incr descents;
      sweep_descend t sw k
    end;
    let l = sw.leaf in
    let j = bsearch l.keys l.len k in
    if j >= 0 then
      match f i (Some l.vals.(j)) with Some v -> l.vals.(j) <- v | None -> ()
    else
      let j = slot j in
      match f i None with
        | None -> ()
        | Some v ->
            if l.len < max_leaf then begin
              leaf_insert l j k v;
              t.size <- t.size + 1
            end
            else begin
              (* Full leaf: route through the rooted insert, which
                 handles the split (and any cascading parent splits).
                 The cached leaf now covers only half its range —
                 invalidate it and charge the extra descent. *)
              sw.cached <- false;
              incr descents;
              ignore (insert t k v)
            end
  done;
  { descents = !descents; steps = !steps }

(* Read-only twin of [apply_sorted] for the replay decision pattern —
   present keys are mutated in place (no structural change), absent keys
   are always installed. It predicts the sweep's descent/step charges
   against the tree's current shape, so a cost model can be charged
   *before* the mutating sweep runs. The cached leaf carries a virtual
   occupancy (real key count plus pending inserts); a virtual split
   charges the rooted insert's extra descent, forces the next key to
   re-descend (the apply path invalidates its cache), and resumes with
   the post-split right half's occupancy — the half an ascending run
   keeps appending into. Keys that land in the left half after a split
   can trade a step for a descent versus the live sweep; the drift is at
   most one charge per split. With [found], the value bound to each
   present key [i] is stored at [found.(i)]; absent keys leave their slot
   as the caller filled it. *)
let count_sorted ?found t ~key ~lo ~hi =
  let descents = ref 0 and steps = ref 0 in
  let sw = sweep_start t in
  let vfill = ref 0 in
  let redescend = ref false in
  for i = lo to hi - 1 do
    check_ascending ~fn:"Btree.count_sorted" ~key ~lo i;
    let k = key i in
    if sweep_covers sw k then begin
      if !redescend then begin
        redescend := false;
        incr descents
      end
      else incr steps
    end
    else begin
      incr descents;
      sweep_descend t sw k;
      vfill := sw.leaf.len;
      redescend := false
    end;
    let j = bsearch sw.leaf.keys sw.leaf.len k in
    if j >= 0 then (
      match found with Some a -> a.(i) <- sw.leaf.vals.(j) | None -> ())
    else if !vfill < max_leaf then incr vfill
    else begin
      incr descents;
      redescend := true;
      vfill := max_leaf + 1 - ((max_leaf + 1) / 2)
    end
  done;
  { descents = !descents; steps = !steps }

let iter_from t k f =
  let start = seek_leaf t.root k in
  let pos = slot (bsearch start.keys start.len k) in
  let rec walk (l : 'a leaf) i =
    if i >= l.len then
      match l.next with None -> () | Some nl -> walk nl 0
    else if f l.keys.(i) l.vals.(i) then walk l (i + 1)
  in
  walk start pos

(* Largest binding with key < k: descend right-biased, backtracking to the
   nearest left sibling subtree when a child has nothing below [k]. *)
let find_last_lt t k =
  let rec descend node =
    match node with
    | Leaf l ->
        let i = slot (bsearch l.keys l.len k) in
        if i = 0 then None else Some (l.keys.(i - 1), l.vals.(i - 1))
    | Node n ->
        let i = child_index n k in
        let rec try_child j =
          if j < 0 then None
          else
            match descend n.kids.(j) with
            | Some _ as r -> r
            | None -> try_child (j - 1)
        in
        try_child i
  in
  descend t.root

let find_first_geq t k =
  let result = ref None in
  iter_from t k (fun key v ->
      result := Some (key, v);
      false);
  !result

let fold_range t ~lo ~hi ~init ~f =
  let acc = ref init in
  iter_from t lo (fun k v ->
      if compare k hi >= 0 then false
      else begin
        acc := f !acc k v;
        true
      end);
  !acc

let iter t f =
  let rec walk = function
    | None -> ()
    | Some (l : 'a leaf) ->
        for i = 0 to l.len - 1 do
          f l.keys.(i) l.vals.(i)
        done;
        walk l.next
  in
  walk (Some (leftmost_leaf t.root))

let to_list t =
  let acc = ref [] in
  iter t (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

(* ---- structural copy ---- *)

(* Node for node, in key order, so each copied leaf can be chained
   behind the one copied before it. Keys and separators are immutable
   strings and are shared; only the arrays are fresh, and a leaf's are
   cut to its [len]. *)
let copy f t =
  let last = ref None in
  let rec go = function
    | Leaf l ->
        let c =
          {
            keys = Array.sub l.keys 0 l.len;
            vals = Array.init l.len (fun i -> f l.vals.(i));
            len = l.len;
            next = None;
          }
        in
        Option.iter (fun (p : 'a leaf) -> p.next <- Some c) !last;
        last := Some c;
        Leaf c
    | Node n ->
        Node
          {
            seps = Array.copy n.seps;
            kids = Array.init (Array.length n.kids) (fun i -> go n.kids.(i));
          }
  in
  { root = go t.root; size = t.size; lanes = [||]; nil = empty_leaf () }

(* ---- invariant checking (tests) ---- *)

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let check_sorted keys ctx =
    for i = 1 to Array.length keys - 1 do
      if compare keys.(i - 1) keys.(i) >= 0 then fail "%s: keys not strictly sorted" ctx
    done
  in
  let in_bounds k lo hi =
    (match lo with Some l -> compare k l >= 0 | None -> true)
    && match hi with Some h -> compare k h < 0 | None -> true
  in
  let count = ref 0 in
  let leaves = ref [] in
  let rec walk node ~is_root ~lo ~hi =
    match node with
    | Leaf l ->
        if l.len > Array.length l.keys || Array.length l.keys <> Array.length l.vals
        then fail "leaf length exceeds its arrays";
        let keys = Array.sub l.keys 0 l.len in
        check_sorted keys "leaf";
        if (not is_root) && l.len < min_leaf then fail "leaf underflow";
        if l.len > max_leaf then fail "leaf overflow";
        Array.iter
          (fun k -> if not (in_bounds k lo hi) then fail "leaf key out of bounds")
          keys;
        count := !count + l.len;
        leaves := l :: !leaves
    | Node n ->
        let nk = Array.length n.kids in
        if Array.length n.seps <> nk - 1 then fail "separator count mismatch";
        if (not is_root) && nk < min_child then fail "internal underflow";
        if nk > max_child then fail "internal overflow";
        if is_root && nk < 2 then fail "internal root with < 2 children";
        check_sorted n.seps "inner";
        Array.iter
          (fun s -> if not (in_bounds s lo hi) then fail "separator out of bounds")
          n.seps;
        for i = 0 to nk - 1 do
          let clo = if i = 0 then lo else Some n.seps.(i - 1) in
          let chi = if i = nk - 1 then hi else Some n.seps.(i) in
          walk n.kids.(i) ~is_root:false ~lo:clo ~hi:chi
        done
  in
  walk t.root ~is_root:true ~lo:None ~hi:None;
  if !count <> t.size then fail "size mismatch: counted %d, recorded %d" !count t.size;
  (* The leaf chain must visit exactly the in-order leaves. *)
  let in_order = List.rev !leaves in
  let rec chain = function
    | [] -> ()
    | [ (last : 'a leaf) ] -> if last.next <> None then fail "dangling leaf chain tail"
    | a :: (b :: _ as rest) ->
        (match a.next with
        | Some n when n == b -> ()
        | Some _ | None -> fail "leaf chain broken");
        chain rest
  in
  chain in_order
