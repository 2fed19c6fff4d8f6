type t = {
  mutable value : string;
  mutable deleted : bool;
  mutable epoch : int;
  mutable ts : int;
  mutable version : int;
  mutable locker : int;
  mutable snap_value : string;
  mutable snap_deleted : bool;
  mutable snap_epoch : int;
  mutable snap_ts : int;
}

let make ?(epoch = 0) ?(ts = 0) value =
  {
    value;
    deleted = false;
    epoch;
    ts;
    version = 0;
    locker = -1;
    snap_value = "";
    snap_deleted = false;
    snap_epoch = 0;
    snap_ts = -1;
  }

let copy t = { t with value = t.value }

let is_locked t = t.locker >= 0

let try_lock t ~worker =
  if t.locker = worker then true
  else if t.locker >= 0 then false
  else begin
    t.locker <- worker;
    true
  end

let unlock t ~worker =
  if t.locker <> worker then invalid_arg "Record.unlock: not the lock holder";
  t.locker <- -1

let stamp t ~epoch ~ts ~value =
  (match value with
  | Some v ->
      t.value <- v;
      t.deleted <- false
  | None ->
      t.value <- "";
      t.deleted <- true);
  t.epoch <- epoch;
  t.ts <- ts;
  t.version <- t.version + 1

let install t ~epoch ~ts ~value = stamp t ~epoch ~ts ~value

let newer ~epoch ~ts ~than:t = epoch > t.epoch || (epoch = t.epoch && ts > t.ts)

let cas_apply t ~epoch ~ts ~value =
  if newer ~epoch ~ts ~than:t then begin
    stamp t ~epoch ~ts ~value;
    true
  end
  else false

let snap_clear t =
  t.snap_value <- "";
  t.snap_deleted <- false;
  t.snap_epoch <- 0;
  t.snap_ts <- -1

(* Retain the current version in the prior-version slot before it is
   overwritten by a write stamped [ts]. A snapshot read is pinned at some
   [pin >= floor], so the outgoing version can only be needed by a live
   pin when [floor < ts]; otherwise every current and future pin already
   sees the incoming version and the slot can be reclaimed. This is what
   bounds the chain at depth one: the slot always holds the newest
   version still below the read-pin floor (or is empty). *)
let retain t ~floor ~ts =
  if floor < ts then begin
    t.snap_value <- t.value;
    t.snap_deleted <- t.deleted;
    t.snap_epoch <- t.epoch;
    t.snap_ts <- t.ts
  end
  else snap_clear t

let stamp_retain t ~floor ~epoch ~ts ~value =
  retain t ~floor ~ts;
  stamp t ~epoch ~ts ~value

let install_retain t ~floor ~epoch ~ts ~value = stamp_retain t ~floor ~epoch ~ts ~value

let cas_apply_retain t ~floor ~epoch ~ts ~value =
  if newer ~epoch ~ts ~than:t then begin
    stamp_retain t ~floor ~epoch ~ts ~value;
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
    (if ts > t.snap_ts && ts < t.ts then begin
       (match value with
       | Some v ->
           t.snap_value <- v;
           t.snap_deleted <- false
       | None ->
           t.snap_value <- "";
           t.snap_deleted <- true);
       t.snap_epoch <- epoch;
       t.snap_ts <- ts
     end);
    false
  end

type snapshot = Visible of string option * int | Miss

(* Timestamps ride the global counter and are monotone across epochs
   (watermarks never regress at an epoch seal), so visibility at a pin is
   a pure [ts] comparison. *)
let read_at t ~pin =
  if t.ts <= pin then Visible ((if t.deleted then None else Some t.value), t.ts)
  else if t.snap_ts < 0 then
    (* The slot is only empty above a pin when the record was created
       above it (reclamation clears the slot only once the floor — hence
       every live pin — has passed the current stamp). *)
    Visible (None, -1)
  else if t.snap_ts <= pin then
    Visible ((if t.snap_deleted then None else Some t.snap_value), t.snap_ts)
  else Miss

(* Rough heap footprint: record header + stamped fields + strings. The
   prior-version slot contributes only while occupied — with snapshot
   reads off it never is, keeping historical accounting unchanged. *)
let byte_size ~key t =
  64 + String.length key + String.length t.value
  + (if t.snap_ts >= 0 then 32 + String.length t.snap_value else 0)
