(** TPC-C: the full five-transaction OLTP benchmark (paper §6.1, Fig. 9).

    Nine tables (warehouse, district, customer, history, new-order, order,
    order-line, item, stock) plus two secondary indexes (customer by last
    name; order by customer), with the official transaction mix:
    NewOrder 45%%, Payment 43%%, OrderStatus 4%%, StockLevel 4%%,
    Delivery 4%%. Each warehouse is served by the worker that owns it
    (workers own disjoint warehouse sets), matching Silo's affinity setup.
    NewOrder's order lines are all supplied by the home warehouse, except
    in the cross-shard halves.

    Scale note: the default cardinalities are reduced (10k items instead
    of 100k, 300 customers/district instead of 3000, 300 initial orders)
    so a simulated run loads in seconds; contention characteristics are
    preserved because hot rows (district next-order ids, warehouse YTD)
    are per-(warehouse, district) regardless of catalogue size. Full-scale
    numbers are a parameter away.

    [fast_ids] reproduces Silo's FastIds optimization: NewOrder ids come
    from a per-(warehouse, district) counter outside the transaction
    instead of a read-modify-write on the hot district row. The paper
    enables it everywhere except the skew experiment (Fig. 17). *)

type params = {
  warehouses : int;
  districts : int;  (** per warehouse; spec: 10 *)
  customers_per_district : int;
  items : int;
  init_orders_per_district : int;
  fast_ids : bool;
  mix : mix;
}

and mix = {
  new_order : int;
  payment : int;
  order_status : int;
  stock_level : int;
  delivery : int;  (** percentages; must sum to 100 *)
}

val default : params
(** 8 warehouses, reduced cardinalities, FastIds on, official mix. *)

val with_warehouses : params -> int -> params

val skewed : params
(** The Fig. 17 setting: 4 warehouses, 100%% NewOrder, FastIds off. *)

type txn_kind = New_order | Payment | Order_status | Stock_level | Delivery

val kind_name : txn_kind -> string
val all_kinds : txn_kind list

val setup : params -> Silo.Db.t -> unit
(** Create and populate all tables. Deterministic: every replica loads
    identical data. *)

val op : params -> Silo.Db.t -> payload:string -> Silo.Txn.t -> unit
(** The TPC-C op: every transaction body, stated once. A payload carries
    an op code, a home warehouse and a 31-bit seed, and every transaction
    parameter is derived from [Sim.Rng.create seed] inside the body — so
    OCC re-execution and retried network requests replay the identical
    transaction. Cross-shard NewOrder and Payment split into escrow-style
    halves sharing one seed; see {!Rolis.Shard}. NewOrder raises
    {!Silo.Txn.Abort} for the spec's 1%% rollbacks. FastIds counters and
    the history sequence live in per-database state, looked up from the
    database on each call and dropped with it. *)

val payload : Sim.Rng.t -> w:int -> txn_kind -> string
(** The single-warehouse payload of one transaction of [kind] at home
    warehouse [w], with a seed drawn from the RNG. *)

val client_app : params -> Rolis.App.t
(** The TPC-C app: its embedded generator gives each worker its home
    warehouse (Silo's affinity setup), draws a kind from the mix and a
    seed, and runs the {!payload} through {!op}; [client_op] is {!op}. *)

val app : params -> Rolis.App.t
(** {!client_app} without [client_op]: the embedded generator only. *)

val veto : params -> payload:string -> bool
(** Prepare-time veto for {!Rolis.Shard.create}'s [?veto]: true for a
    cross-shard NewOrder home half whose seed derives the spec's 1%%
    rollback, so the abort surfaces as a clean global 2PC abort. *)

val shard_gen :
  params ->
  Rolis.Router.t ->
  cross_pct:float ->
  rng:Sim.Rng.t ->
  unit ->
  Rolis.Shard.op
(** Partition-aware logical-transaction generator for a sharded
    deployment: routes by home warehouse; with probability [cross_pct] a
    NewOrder or Payment becomes a distributed transaction against a
    second shard's warehouse (remote supplier / remote customer). *)

val consistency_errors : params -> Silo.Db.t -> string list
(** TPC-C consistency conditions (adapted): W_YTD = sum of D_YTD; every
    order has exactly its OL_CNT order lines; every new-order row has an
    order row; the global customer-balance equation holds. Empty list =
    consistent. *)
