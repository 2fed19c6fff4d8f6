(* xoshiro256** by Blackman & Vigna (public domain reference
   implementation), seeded through splitmix64 as the authors recommend.

   The four 64-bit state words live in one 32-byte [Bytes] (s0 at offset
   0, s1 at 8, s2 at 16, s3 at 24) rather than in boxed [mutable int64]
   fields: every step then reads and writes raw words, so drawing an
   [int] or [float] allocates nothing. *)

type t = Bytes.t

let get = Bytes.get_int64_le
let set = Bytes.set_int64_le

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t (8 * i) (splitmix64 state)
  done;
  t

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The output of the next step depends on s1 alone, so callers read it
   first and then [advance]; keeping both inlined lets the compiler hold
   every intermediate word unboxed. *)
let[@inline] output t = Int64.mul (rotl (Int64.mul (get t 8) 5L) 7) 9L

let advance t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set t 0 s0;
  set t 8 s1;
  set t 16 (logxor s2 tmp);
  set t 24 (rotl s3 45)

let int64 t =
  let result = output t in
  advance t;
  result

let split t = create (int64 t)

(* The low 63 bits of the next output, as [Int64.to_int] keeps them. *)
let[@inline] next_int t =
  let v = Int64.to_int (output t) in
  advance t;
  v

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Masked rejection sampling keeps the distribution exactly uniform.
     Loops rather than local recursive functions: no closure per draw. *)
  let mask = ref 1 in
  while !mask < n - 1 do
    mask := (!mask lsl 1) lor 1
  done;
  let v = ref (next_int t land !mask) in
  while !v >= n do
    v := next_int t land !mask
  done;
  !v

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 random bits give a uniform double in [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (output t) 11) in
  advance t;
  x *. (float_of_int bits /. 9007199254740992.0)

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
