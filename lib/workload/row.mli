(** Minimal row codec: a row is a list of string fields packed into one
    value with length framing, ["<decimal length>:<bytes>"] per field.
    Numeric fields go through {!int_field}/{!to_int}, or are read and
    written in place with {!int_at}/{!set_int}. Padding fields reproduce
    realistic TPC-C row and log-entry sizes (the paper measures ~875 bytes
    of log per TPC-C transaction). *)

val pack : string list -> string

val int_field : int -> string
val to_int : string -> int
(** @raise Failure on a non-numeric field. *)

val int_at : string -> int -> int
(** [int_at row i] is [to_int] of field [i], read without copying it.
    @raise Failure on a non-numeric field. *)

val set_int : string -> int -> int -> string
(** [set_int row i n] is [row] with field [i] replaced by [int_field n],
    built in one sized copy without the intermediate string. *)

val pad : int -> string
(** A filler string of the given length (deterministic content). *)
