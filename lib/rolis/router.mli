(** Range partitioning of the composite key space across shards.

    A router is an ordered list of {!Store.Keycodec}-encoded split keys;
    shard [i] owns the half-open byte range between split [i-1] and split
    [i]. Because the codec is order-preserving, routing is a binary
    search over flat encoded strings and range ownership composes with
    prefix scans: a TPC-C transaction whose keys all lead with one
    warehouse id lands wholly inside one shard. *)

type t

val shards : t -> int

val tpcc : warehouses:int -> shards:int -> t
(** Partition TPC-C by warehouse: contiguous, near-equal runs of
    1-based warehouse ids. @raise Invalid_argument with fewer warehouses
    than shards. *)

val tpcc_shard_of_warehouse : t -> int -> int

val tpcc_warehouse_range : t -> warehouses:int -> int -> int * int
(** Inclusive [lo, hi] home-warehouse range of one shard, recovered from
    the split keys. *)

val ycsb : keys:int -> shards:int -> t
(** Partition the YCSB integer key space [0, keys) into equal ranges. *)

val ycsb_key_range : t -> keys:int -> int -> int * int
(** Inclusive [lo, hi] integer key range of one shard, recovered from
    the split keys. *)
