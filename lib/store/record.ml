type prior = { p_value : string; p_ts : int }

type t = {
  mutable value : string;
  mutable stamp : int;
  mutable prior : prior;
}

(* [(epoch, ts)] packed as [epoch lsl 44 lor (ts + 1)]: [ts + 1] fills the
   low 44 bits, so [ts = -1] (the "never written" stamp) packs to a low
   half of 0, and [epoch] the 18 bits above, which keeps the packed int
   non-negative. Both halves are non-negative and the epoch sits above
   every ts bit, so int order is lexicographic [(epoch, ts)] order. *)
let ts_bits = 44
let ts_mask = (1 lsl ts_bits) - 1
let max_ts = ts_mask - 1
let max_epoch = max_int lsr ts_bits

let pack ~epoch ~ts =
  if epoch < 0 || epoch > max_epoch || ts < -1 || ts > max_ts then
    invalid_arg (Printf.sprintf "Record.pack: (epoch %d, ts %d) out of range" epoch ts);
  (epoch lsl ts_bits) lor (ts + 1)

let epoch t = t.stamp lsr ts_bits
let ts_of stamp = (stamp land ts_mask) - 1
let ts t = ts_of t.stamp
let version t = t.stamp

(* The value of a deleted record: a string of its own, so that only a
   physical comparison matches it. It is empty, so [byte_size] counts no
   value bytes for a tombstone. *)
let tomb = Bytes.unsafe_to_string (Bytes.create 0)

let no_prior = { p_value = ""; p_ts = -1 }

let make ?(epoch = 0) ?(ts = 0) value = { value; stamp = pack ~epoch ~ts; prior = no_prior }

let tombstone ?epoch ?ts () = make ?epoch ?ts tomb
let is_deleted t = t.value == tomb
let live v = if v == tomb then None else Some v
let copy t = { t with value = t.value }

let set t ~stamp ~value =
  t.value <- (match value with Some v -> v | None -> tomb);
  t.stamp <- stamp

let install t ~epoch ~ts ~value = set t ~stamp:(pack ~epoch ~ts) ~value
let cas_apply t ~epoch ~ts ~value =
  let stamp = pack ~epoch ~ts in
  if stamp > t.stamp then begin
    set t ~stamp ~value;
    true
  end
  else false

(* Retain the current version in the prior-version slot before it is
   overwritten by a write stamped [next]. A snapshot read is pinned at
   some [pin >= floor], so the outgoing version can only be needed by a
   live pin when [floor < next]; otherwise every current and future pin already
   sees the incoming version and the slot can be reclaimed. This is what
   bounds the chain at depth one: the slot always holds the newest
   version still below the read-pin floor (or is empty). *)
let retain t ~floor ~ts:next =
  t.prior <- (if floor < next then { p_value = t.value; p_ts = ts t } else no_prior)

let install_retain t ~floor ~epoch ~ts ~value =
  let stamp = pack ~epoch ~ts in
  retain t ~floor ~ts;
  set t ~stamp ~value

let cas_apply_retain t ~floor ~epoch ~ts ~value =
  let stamp = pack ~epoch ~ts in
  if stamp > t.stamp then begin
    retain t ~floor ~ts;
    set t ~stamp ~value;
    true
  end
  else begin
    (* Parallel per-stream replay can install a ts-newer write before a
       ts-older one arrives from a slower stream; the strictly-newer CAS
       then discards the older write even though it is precisely the
       newest version below the current stamp — the version a read
       pinned between the two timestamps must observe. Park the loser in
       the slot instead of dropping it, keeping the slot's invariant
       (newest known version below the current stamp). *)
    if ts > t.prior.p_ts && ts < ts_of t.stamp then
      t.prior <- { p_value = (match value with Some v -> v | None -> tomb); p_ts = ts };
    false
  end

type snapshot = Visible of string option * int | Miss

(* Timestamps ride the global counter and are monotone across epochs
   (watermarks never regress at an epoch seal), so visibility at a pin is
   a pure [ts] comparison. *)
let read_at t ~pin =
  let cur = ts t in
  if cur <= pin then Visible (live t.value, cur)
  else
    let p = t.prior in
    if p.p_ts < 0 then
      (* The slot is only empty above a pin when the record was created
         above it (reclamation clears the slot only once the floor — hence
         every live pin — has passed the current stamp). *)
      Visible (None, -1)
    else if p.p_ts <= pin then Visible (live p.p_value, p.p_ts)
    else Miss

let has_prior t = t.prior.p_ts >= 0
let slot_bytes t = if has_prior t then 32 + String.length t.prior.p_value else 0

(* Rough heap footprint: a model constant for the record and its stamp,
   plus the strings. The prior-version slot contributes only while
   occupied — with snapshot reads off it never is, keeping historical
   accounting unchanged. *)
let byte_size ~key t = 64 + String.length key + String.length t.value + slot_bytes t
