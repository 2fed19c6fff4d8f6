type component = I of int | S of string

let flip_sign x = x lxor min_int

(* Tag bytes keep decode unambiguous and keep I/S ordering stable. *)
let tag_int = '\x01'
let tag_string = '\x02'

let rec encoded_size n = function
  | [] -> n
  | I _ :: rest -> encoded_size (n + 9) rest
  | S s :: rest ->
      let z = ref 0 in
      for i = 0 to String.length s - 1 do
        if String.unsafe_get s i = '\x00' then incr z
      done;
      encoded_size (n + 2 + String.length s + !z) rest

(* An int is its tag plus the 8 big-endian bytes of the sign-flipped
   value. The OCaml int has 63 bits and [Int64.of_int] sign-extends bit 62
   into bit 63, so bit 63 is masked off to keep the top byte a bytewise
   shift-out gives. *)
let rec write b pos = function
  | [] -> pos
  | I x :: rest ->
      Bytes.unsafe_set b pos tag_int;
      Bytes.set_int64_be b (pos + 1)
        (Int64.logand (Int64.of_int (flip_sign x)) Int64.max_int);
      write b (pos + 9) rest
  | S s :: rest ->
      Bytes.unsafe_set b pos tag_string;
      let p = ref (pos + 1) in
      for i = 0 to String.length s - 1 do
        let c = String.unsafe_get s i in
        Bytes.unsafe_set b !p c;
        if c = '\x00' then begin
          Bytes.unsafe_set b (!p + 1) '\xff';
          p := !p + 2
        end
        else incr p
      done;
      Bytes.unsafe_set b !p '\x00';
      write b (!p + 1) rest

(* Sized once, then written in place: no [Buffer] growth and no copy. *)
let encode components =
  let b = Bytes.create (encoded_size 0 components) in
  let n = write b 0 components in
  assert (n = Bytes.length b);
  Bytes.unsafe_to_string b

let decode s =
  let len = String.length s in
  let rec go pos acc =
    if pos >= len then List.rev acc
    else if s.[pos] = tag_int then begin
      if pos + 9 > len then invalid_arg "Keycodec.decode: truncated int";
      let x = ref 0 in
      for i = 0 to 7 do
        x := (!x lsl 8) lor Char.code s.[pos + 1 + i]
      done;
      go (pos + 9) (I (flip_sign !x) :: acc)
    end
    else if s.[pos] = tag_string then begin
      let buf = Buffer.create 16 in
      let rec scan i =
        if i >= len then invalid_arg "Keycodec.decode: unterminated string";
        match s.[i] with
        | '\x00' ->
            if i + 1 < len && s.[i + 1] = '\xff' then begin
              Buffer.add_char buf '\x00';
              scan (i + 2)
            end
            else i + 1
        | c ->
            Buffer.add_char buf c;
            scan (i + 1)
      in
      let next = scan (pos + 1) in
      go next (S (Buffer.contents buf) :: acc)
    end
    else invalid_arg "Keycodec.decode: bad tag byte"
  in
  go 0 []

let next_prefix p =
  let b = Bytes.of_string p in
  let rec bump i =
    if i < 0 then None
    else if Bytes.get b i = '\xff' then bump (i - 1)
    else begin
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) + 1));
      Some (Bytes.sub_string b 0 (i + 1))
    end
  in
  bump (Bytes.length b - 1)

let compare_component a b =
  match (a, b) with
  | I x, I y -> compare x y
  | S x, S y -> compare x y
  | I _, S _ -> -1
  | S _, I _ -> 1

let rec compare_components a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
      let c = compare_component x y in
      if c <> 0 then c else compare_components xs ys
