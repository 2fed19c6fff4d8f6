(** Minimal row codec: a row is a list of string fields packed into one
    value with length framing, ["<decimal length>:<bytes>"] per field.
    Numeric fields go through {!int_field}/{!to_int}, or are read and
    written in place with {!int_at}/{!set_int}. Padding fields reproduce
    realistic TPC-C row and log-entry sizes (the paper measures ~875 bytes
    of log per TPC-C transaction). *)

val pack : string list -> string
val unpack : string -> string list
(** @raise Invalid_argument on malformed input. *)

val int_field : int -> string
val to_int : string -> int
(** @raise Failure on a non-numeric field. *)

val field : string -> int -> string
(** [field row i] is field [i], read in place from the framing.
    @raise Invalid_argument if the row has no field [i] or is malformed. *)

val int_at : string -> int -> int
(** [int_at row i] is [to_int (field row i)] without copying the field.
    @raise Failure on a non-numeric field. *)

val set_field : string -> int -> string -> string
(** Functional field update: [row] with field [i] replaced, built in one
    sized copy. *)

val set_int : string -> int -> int -> string
(** [set_int row i n] is [set_field row i (int_field n)] without the
    intermediate string. *)

val pad : int -> string
(** A filler string of the given length (deterministic content). *)
