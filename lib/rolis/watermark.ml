type stream_state = {
  mutable cur_epoch : int;
  mutable cur_ts : int;
  sealed : (int, int) Hashtbl.t; (* epoch -> final durable ts in that epoch *)
}

(* The live-watermark query used to fold over every stream on each call;
   with per-worker streams that made the 0.5 ms controller tick (and now
   the per-durable-entry release trigger) O(streams). Instead we cache,
   for one epoch at a time, the minimum defined contribution, how many
   streams sit exactly at that minimum, and how many streams have no
   contribution yet. A stream's contribution for a fixed epoch only ever
   grows (None -> Some ts -> Some final), so the cache needs a full
   rescan only when the unique minimum holder advances. *)
type t = {
  streams : stream_state array;
  mutable tracked : int; (* epoch the cache describes; 0 = no cache *)
  mutable undefined : int; (* streams contributing None to [tracked] *)
  mutable cached_min : int; (* min defined contribution (max_int if none) *)
  mutable at_min : int; (* streams whose contribution = cached_min *)
  mutable scans : int; (* full O(streams) rescans, for tests/telemetry *)
}

let create ~streams =
  if streams < 1 then invalid_arg "Watermark.create: need at least one stream";
  {
    streams =
      Array.init streams (fun _ ->
          { cur_epoch = 0; cur_ts = 0; sealed = Hashtbl.create 4 });
    tracked = 0;
    undefined = 0;
    cached_min = max_int;
    at_min = 0;
    scans = 0;
  }

let contribution s ~epoch =
  if s.cur_epoch < epoch then None (* nothing durable in this epoch yet: W undefined *)
  else if s.cur_epoch = epoch then Some s.cur_ts
  else
    (* The stream moved on; its epoch-e tail is final. A stream that never
       produced an entry in e does not constrain W_e. *)
    Some (match Hashtbl.find_opt s.sealed epoch with Some final -> final | None -> max_int)

let rescan t ~epoch =
  t.scans <- t.scans + 1;
  t.tracked <- epoch;
  t.undefined <- 0;
  t.cached_min <- max_int;
  t.at_min <- 0;
  Array.iter
    (fun s ->
      match contribution s ~epoch with
      | None -> t.undefined <- t.undefined + 1
      | Some c ->
          if c < t.cached_min then begin
            t.cached_min <- c;
            t.at_min <- 1
          end
          else if c = t.cached_min then t.at_min <- t.at_min + 1)
    t.streams

(* Fold the cache forward for one stream's contribution moving from
   [c_old] to [c_new] (monotone: None -> Some v -> Some v', v' >= v). *)
let cache_update t c_old c_new =
  match (c_old, c_new) with
  | None, None -> ()
  | None, Some v ->
      t.undefined <- t.undefined - 1;
      if v < t.cached_min then begin
        t.cached_min <- v;
        t.at_min <- 1
      end
      else if v = t.cached_min then t.at_min <- t.at_min + 1
  | Some v0, Some v1 when v1 <> v0 ->
      if v0 = t.cached_min then
        if t.at_min = 1 then rescan t ~epoch:t.tracked
        else t.at_min <- t.at_min - 1
      (* v1 > v0 >= cached_min, so the new value never lowers the min. *)
  | Some _, Some _ -> ()
  | Some _, None -> assert false (* contributions never become undefined *)

let note_durable t ~stream ~epoch ~ts =
  let s = t.streams.(stream) in
  let c_old = if t.tracked > 0 then contribution s ~epoch:t.tracked else None in
  (if epoch > s.cur_epoch then begin
     if s.cur_epoch > 0 then Hashtbl.replace s.sealed s.cur_epoch s.cur_ts;
     s.cur_epoch <- epoch;
     s.cur_ts <- ts
   end
   else if epoch = s.cur_epoch && ts > s.cur_ts then s.cur_ts <- ts);
  if t.tracked > 0 then
    cache_update t c_old (contribution s ~epoch:t.tracked)

(* Reference implementation: the original fold. The cache must agree with
   it exactly (tests cross-check). *)
let compute_scan t ~epoch =
  Array.fold_left
    (fun acc s ->
      match (acc, contribution s ~epoch) with
      | Some w, Some c -> Some (min w c)
      | _, None | None, _ -> None)
    (Some max_int) t.streams

let compute t ~epoch =
  if epoch < 1 then compute_scan t ~epoch
  else begin
    if epoch <> t.tracked then rescan t ~epoch;
    if t.undefined > 0 then None else Some t.cached_min
  end

(* Checkpoint image of the tracker: per-stream durable tail plus sealed
   epochs. A replica rebuilt from a checkpoint injects only the journal
   tail, so without this the sealed history of old epochs would be lost
   and [contribution] would report max_int for them, corrupting
   [final_watermark] agreement across replicas. Sealed lists are sorted
   for deterministic images. *)
type snapshot = (int * int * (int * int) list) array

let export t : snapshot =
  Array.map
    (fun s ->
      let sealed = Hashtbl.fold (fun e ts acc -> (e, ts) :: acc) s.sealed [] in
      (s.cur_epoch, s.cur_ts, List.sort compare sealed))
    t.streams

let import t (snap : snapshot) =
  if Array.length snap <> Array.length t.streams then
    invalid_arg "Watermark.import: stream count mismatch";
  Array.iteri
    (fun i (cur_epoch, cur_ts, sealed) ->
      let s = t.streams.(i) in
      if s.cur_epoch > 0 || s.cur_ts > 0 || Hashtbl.length s.sealed > 0 then
        invalid_arg "Watermark.import: tracker is not fresh";
      s.cur_epoch <- cur_epoch;
      s.cur_ts <- cur_ts;
      List.iter (fun (e, ts) -> Hashtbl.replace s.sealed e ts) sealed)
    snap;
  (* Invalidate the incremental cache; the next compute rescans. *)
  t.tracked <- 0

let scan_count t = t.scans
let is_sealed t ~epoch = Array.for_all (fun s -> s.cur_epoch > epoch) t.streams
let final_watermark t ~epoch = if is_sealed t ~epoch then compute t ~epoch else None

