(** Transaction identifiers: [(epoch, timestamp)] pairs.

    The timestamp plays the role of the paper's [rdtscp] value — a
    monotone counter shared by all cores of a machine — and the epoch is
    the replication layer's leader-election round. Together they totally
    order transactions across failovers (§3.3): a larger epoch always
    wins; within an epoch, the timestamp is the serialization order.
    [Tid] only names the pair; that order is compared on the packed
    record stamp ({!Store.Record.t}'s [stamp]), which sorts as
    [(epoch, ts)]. *)

type t = { epoch : int; ts : int }
