(** Watermark tracking (paper §3.4, §4.1) — the coordination-free boundary
    between speculative and release-committed transactions.

    Each replica feeds this tracker the [(epoch, last_ts)] header of every
    log entry as it becomes {e durable} in each stream, in stream order.
    The watermark for epoch [e] is

    [W_e = min over streams of (latest durable ts in epoch e)]

    computed {e periodically and locally} — an outdated value is always
    safe because the watermark only grows within an epoch, and it never
    crosses epochs.

    Epoch bookkeeping: when a stream's durable tail moves from epoch [e]
    to a later epoch, epoch [e] is {e sealed} for that stream at its final
    timestamp. Once every stream has sealed [e], [final_watermark e]
    is the replay/release boundary for the old epoch: entries at or below
    it are safe; entries above it must be skipped (they may depend on
    transactions that were never durable — the Fig. 3 scenario). *)

type t

val create : streams:int -> t

val note_durable : t -> stream:int -> epoch:int -> ts:int -> unit
(** Feed one durable entry header. Entries arrive in stream order, so
    [(epoch, ts)] is non-decreasing per stream; older stamps are ignored
    defensively. *)

val compute : t -> epoch:int -> int option
(** Live watermark for [epoch]: [None] while some stream has produced
    nothing in (or after) [epoch] yet. Monotone in successive calls for a
    fixed epoch.

    O(1) for repeated queries of the same epoch: the tracker maintains the
    cluster minimum incrementally (cached min + count-at-min, updated by
    {!note_durable}); a full O(streams) rescan happens only when the
    queried epoch changes or the unique minimum holder advances. *)

val compute_scan : t -> epoch:int -> int option
(** Reference implementation of {!compute} (the original full fold).
    Exposed so tests and benchmarks can cross-check the incremental
    cache; always equals [compute] for the same arguments. *)

type snapshot = (int * int * (int * int) list) array
(** Per-stream [(cur_epoch, cur_ts, sealed (epoch, final_ts) list)] — the
    tracker state a checkpoint must carry so a replica rebuilt from
    checkpoint + journal tail still knows the sealed boundaries of epochs
    whose entries were truncated away. *)

val export : t -> snapshot
(** Deterministic image of the tracker (sealed lists sorted). *)

val import : t -> snapshot -> unit
(** Install an exported image into a {e fresh} tracker (same stream
    count). @raise Invalid_argument on stream-count mismatch or if the
    tracker has already observed durable entries. *)

val scan_count : t -> int
(** Number of full O(streams) rescans performed so far (telemetry: the
    event-driven release path should keep this far below the number of
    {!note_durable} calls). *)

val is_sealed : t -> epoch:int -> bool
(** Every stream's durable tail has moved past [epoch]. *)

val final_watermark : t -> epoch:int -> int option
(** The sealed boundary for [epoch]; [None] until {!is_sealed}. Streams
    that never produced an entry in [epoch] do not constrain it. *)

