(* A row is its fields in order, each framed as "<decimal length>:<bytes>".
   The readers and writers below scan that framing in place: reading a
   field or an int allocates at most the field itself, and a write builds
   the new row in one sized [Bytes]. *)

(* Decimal width of [n], sign included. *)
let digits n =
  let rec go n w = if n > -10 then w else go (n / 10) (w + 1) in
  (* Counting on the negative side keeps [min_int] in range. *)
  if n < 0 then go n 2 else go (-n) 1

(* Write [n] in decimal so that it ends just before [stop]. *)
let write_int b stop n =
  let p = ref (stop - 1) and m = ref (if n < 0 then n else -n) in
  while !m <= -10 do
    Bytes.unsafe_set b !p (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10;
    decr p
  done;
  Bytes.unsafe_set b !p (Char.unsafe_chr (48 - !m));
  if n < 0 then Bytes.unsafe_set b (!p - 1) '-'

(* Write the framing of an [n]-byte field at [pos]; returns where its
   bytes start. *)
let write_header b pos n =
  let start = pos + digits n + 1 in
  write_int b (start - 1) n;
  Bytes.unsafe_set b (start - 1) ':';
  start

let pack fields =
  let size =
    List.fold_left (fun acc f -> acc + digits (String.length f) + 1 + String.length f) 0 fields
  in
  let b = Bytes.create size in
  let rec fill pos = function
    | [] -> ()
    | f :: rest ->
        let start = write_header b pos (String.length f) in
        Bytes.blit_string f 0 b start (String.length f);
        fill (start + String.length f) rest
  in
  fill 0 fields;
  Bytes.unsafe_to_string b

(* Position of the ':' ending the header that starts at [pos], and the
   length that header gives. A header is one or more decimal digits. *)
let colon_after s pos =
  match String.index_from s pos ':' with
  | c -> c
  | exception (Not_found | Invalid_argument _) ->
      invalid_arg "Row: missing length separator"

let frame_len s pos colon =
  if colon = pos || colon - pos > 18 then invalid_arg "Row: bad length";
  let n = ref 0 in
  for i = pos to colon - 1 do
    match String.unsafe_get s i with
    | '0' .. '9' as c -> n := (!n * 10) + Char.code c - 48
    | _ -> invalid_arg "Row: bad length"
  done;
  if colon + 1 + !n > String.length s then invalid_arg "Row: truncated field";
  !n

(* Header position of field [i]. *)
let rec seek s i pos =
  if pos >= String.length s then invalid_arg "Row: no such field"
  else if i = 0 then pos
  else
    let colon = colon_after s pos in
    seek s (i - 1) (colon + 1 + frame_len s pos colon)

let int_field = string_of_int

let to_int s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Row.to_int: %S is not numeric" s)

(* Plain decimals (what {!int_field} writes) are parsed in place,
   accumulating on the negative side so [min_int] fits; anything else
   goes through {!to_int} and its error. *)
let int_at row i =
  let pos = seek row i 0 in
  let colon = colon_after row pos in
  let n = frame_len row pos colon in
  let first = colon + 1 in
  let neg = n > 0 && String.unsafe_get row first = '-' in
  let d0 = if neg then first + 1 else first in
  let stop = first + n in
  let plain = ref (d0 < stop && stop - d0 <= 18) in
  let acc = ref 0 in
  for p = d0 to stop - 1 do
    match String.unsafe_get row p with
    | '0' .. '9' as c -> acc := (!acc * 10) - (Char.code c - 48)
    | _ -> plain := false
  done;
  if !plain then if neg then !acc else - !acc
  else to_int (String.sub row first n)

(* [row] with field [i]'s frame replaced by a frame of [len] bytes that
   [fill] writes at the given offset. *)
let splice row i len fill =
  let pos = seek row i 0 in
  let colon = colon_after row pos in
  let stop = colon + 1 + frame_len row pos colon in
  let tail = String.length row - stop in
  let b = Bytes.create (pos + digits len + 1 + len + tail) in
  Bytes.blit_string row 0 b 0 pos;
  let start = write_header b pos len in
  fill b start;
  Bytes.blit_string row stop b (start + len) tail;
  Bytes.unsafe_to_string b

let set_int row i n =
  let len = digits n in
  splice row i len (fun b start -> write_int b (start + len) n)

let pad n = String.make n 'x'
