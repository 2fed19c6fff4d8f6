(* Keyspace -> shard range map over Keycodec-encoded split points.

   A router is [shards - 1] encoded keys: shard [i] owns the half-open
   range [splits.(i-1), splits.(i)) (with -inf / +inf at the ends).
   Byte-wise comparison on encodings equals tuple order (Keycodec's
   contract), so routing a composite key is a binary search over flat
   strings — no decoding on the hot path. *)

type t = { shards : int; splits : string array }

let create ~splits =
  let n = Array.length splits in
  for i = 1 to n - 1 do
    if String.compare splits.(i - 1) splits.(i) >= 0 then
      invalid_arg "Router.create: split keys must be strictly increasing"
  done;
  { shards = n + 1; splits = Array.copy splits }

let shards t = t.shards

(* Number of splits <= key, by binary search: shard of an encoded key. *)
let shard_of_key t key =
  let lo = ref 0 and hi = ref (Array.length t.splits) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare t.splits.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let shard_of t components = shard_of_key t (Store.Keycodec.encode components)

(* TPC-C partitions by warehouse: every table keyed on the composite
   space leads with the warehouse id, so split keys are plain
   [I w_start] prefixes. Warehouses are 1-based; shard [i] of [n] owns a
   contiguous run of [warehouses / n] (the first [warehouses mod n]
   shards own one extra). *)
let tpcc ~warehouses ~shards =
  if shards < 1 then invalid_arg "Router.tpcc: shards must be >= 1";
  if warehouses < shards then
    invalid_arg "Router.tpcc: need at least one warehouse per shard";
  let base = warehouses / shards and extra = warehouses mod shards in
  let first = Array.make (shards + 1) 1 in
  for i = 0 to shards - 1 do
    first.(i + 1) <- first.(i) + base + (if i < extra then 1 else 0)
  done;
  let splits =
    Array.init (shards - 1) (fun i ->
        Store.Keycodec.encode [ Store.Keycodec.I first.(i + 1) ])
  in
  create ~splits

let tpcc_shard_of_warehouse t w = shard_of t [ Store.Keycodec.I w ]

(* TPC-C home warehouses of one shard, for partition-aware generators:
   [lo, hi] inclusive. Recovered from the split keys so the router stays
   the single source of truth for the partition. *)
let tpcc_warehouse_range t ~warehouses shard =
  if shard < 0 || shard >= t.shards then invalid_arg "Router.tpcc_warehouse_range";
  let bound i =
    if i < 0 then 1
    else if i >= Array.length t.splits then warehouses + 1
    else
      match Store.Keycodec.decode t.splits.(i) with
      | [ Store.Keycodec.I w ] -> w
      | _ -> invalid_arg "Router.tpcc_warehouse_range: non-warehouse split"
  in
  (bound (shard - 1), bound shard - 1)

(* Integer key range [lo, hi] inclusive owned by one shard of a YCSB
   router, recovered from the split keys. *)
let ycsb_key_range t ~keys shard =
  if shard < 0 || shard >= t.shards then invalid_arg "Router.ycsb_key_range";
  let bound i =
    if i < 0 then 0
    else if i >= Array.length t.splits then keys
    else
      match Store.Keycodec.decode t.splits.(i) with
      | [ Store.Keycodec.I k ] -> k
      | _ -> invalid_arg "Router.ycsb_key_range: non-integer split"
  in
  (bound (shard - 1), bound shard - 1)

(* YCSB partitions its integer key space [0, keys) into equal ranges. *)
let ycsb ~keys ~shards =
  if shards < 1 then invalid_arg "Router.ycsb: shards must be >= 1";
  if keys < shards then invalid_arg "Router.ycsb: need at least one key per shard";
  let splits =
    Array.init (shards - 1) (fun i ->
        Store.Keycodec.encode [ Store.Keycodec.I ((i + 1) * keys / shards) ])
  in
  create ~splits
