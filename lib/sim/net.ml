type latency_model =
  | Fixed of int
  | Uniform of int * int
  | Exp_jitter of { base : int; jitter_mean : int }

type faults = { drop : float; dup : float; reorder : int }

let no_faults = { drop = 0.0; dup = 0.0; reorder = 0 }

let validate_faults f =
  if f.drop < 0.0 || f.drop >= 1.0 then invalid_arg "Net: drop must be in [0,1)";
  if f.dup < 0.0 || f.dup >= 1.0 then invalid_arg "Net: dup must be in [0,1)";
  if f.reorder < 0 then invalid_arg "Net: reorder jitter must be >= 0"

let validate_latency = function
  | Fixed d -> if d < 0 then invalid_arg "Net: Fixed latency must be >= 0"
  | Uniform (lo, hi) ->
      if lo < 0 || hi < lo then invalid_arg "Net: Uniform needs 0 <= lo <= hi"
  | Exp_jitter { base; jitter_mean } ->
      if base < 0 || jitter_mean < 0 then
        invalid_arg "Net: Exp_jitter needs non-negative base and jitter"

type 'm t = {
  eng : Engine.t;
  n : int;
  latency : latency_model;
  rng : Rng.t;
  frng : Rng.t; (* fault decisions draw from their own stream so enabling
                   faults does not perturb latency sampling *)
  inboxes : 'm Sync.Mailbox.t array;
  up : bool array;
  incarnation : int array;
  cut : (int * int, unit) Hashtbl.t; (* directed (src, dst) pairs *)
  mutable default_faults : faults;
  link_latency : (int * int, latency_model) Hashtbl.t;
      (* directed per-link latency overrides (geo topologies); links
         without an entry use the global model *)
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable messages_dropped : int;
  mutable messages_duplicated : int;
}

let create eng ~nodes ~latency =
  if nodes <= 0 then invalid_arg "Net.create: need at least one node";
  let rng = Rng.split (Engine.rng eng) in
  {
    eng;
    n = nodes;
    latency;
    rng;
    frng = Rng.split rng;
    inboxes = Array.init nodes (fun _ -> Sync.Mailbox.create eng);
    up = Array.make nodes true;
    incarnation = Array.make nodes 0;
    cut = Hashtbl.create 7;
    default_faults = no_faults;
    link_latency = Hashtbl.create 7;
    messages_sent = 0;
    bytes_sent = 0;
    messages_dropped = 0;
    messages_duplicated = 0;
  }

let nodes t = t.n
let engine t = t.eng

let check_node t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Net: bad node id %d" i)

let is_up t i =
  check_node t i;
  t.up.(i)

let incarnation t i =
  check_node t i;
  t.incarnation.(i)

let can_send t ~src ~dst =
  check_node t src;
  check_node t dst;
  not (Hashtbl.mem t.cut (src, dst))

let is_connected t a b = can_send t ~src:a ~dst:b && can_send t ~src:b ~dst:a

let set_default_faults t f =
  validate_faults f;
  t.default_faults <- f

let clear_faults t = t.default_faults <- no_faults

let set_link_latency t ~src ~dst model =
  check_node t src;
  check_node t dst;
  validate_latency model;
  Hashtbl.replace t.link_latency (src, dst) model

let link_latency_model t ~src ~dst =
  match Hashtbl.find_opt t.link_latency (src, dst) with
  | Some m -> m
  | None -> t.latency

let sample_model t model =
  match model with
  | Fixed d -> d
  | Uniform (lo, hi) -> Rng.int_in t.rng lo hi
  | Exp_jitter { base; jitter_mean } ->
      base + int_of_float (Rng.exponential t.rng ~mean:(float_of_int jitter_mean))

let sample_latency t ~src ~dst = sample_model t (link_latency_model t ~src ~dst)

(* ---- geo topologies ---- *)

(* [regions.(i)] is node [i]'s region; nodes beyond the array keep the
   global model. Every ordered pair of covered nodes gets an explicit
   per-link override, so a later profile application fully replaces an
   earlier one for those nodes. *)
let apply_regions t ~regions ~intra ~inter =
  validate_latency intra;
  validate_latency inter;
  let n = min (Array.length regions) t.n in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        set_link_latency t ~src ~dst
          (if regions.(src) = regions.(dst) then intra else inter)
    done
  done

type wan_profile = {
  wp_regions : int;  (** region count nodes are assigned to round-robin *)
  wp_intra : latency_model;
  wp_inter : latency_model;
}

(* Named profiles keep CLI flags and Config validation in one place.
   Numbers are one-way delays: intra-DC a few tens of microseconds,
   cross-region tens of milliseconds (continental RTT ~60-70 ms),
   metro-area ~1 ms between availability zones. *)
let wan_profile = function
  | "wan3" ->
      Some
        {
          wp_regions = 3;
          wp_intra = Exp_jitter { base = 25 * 1_000; jitter_mean = 8 * 1_000 };
          wp_inter =
            Exp_jitter { base = 30 * 1_000_000; jitter_mean = 3 * 1_000_000 };
        }
  | "metro3" ->
      Some
        {
          wp_regions = 3;
          wp_intra = Exp_jitter { base = 25 * 1_000; jitter_mean = 8 * 1_000 };
          wp_inter =
            Exp_jitter { base = 1_000_000; jitter_mean = 150 * 1_000 };
        }
  | _ -> None

let wan_profile_names = [ "wan3"; "metro3" ]

(* A message only counts as sent once it is actually put on the wire;
   sends that hit a dead endpoint, a cut link, or the loss model count in
   [messages_dropped] instead (in-flight losses count in both). *)
let send t ?(size = 0) ~src ~dst m =
  check_node t src;
  check_node t dst;
  if (not t.up.(src)) || (not t.up.(dst)) || Hashtbl.mem t.cut (src, dst) then
    t.messages_dropped <- t.messages_dropped + 1
  else begin
    let f = t.default_faults in
    if f.drop > 0.0 && Rng.float t.frng 1.0 < f.drop then
      t.messages_dropped <- t.messages_dropped + 1
    else begin
      let deliver_copy () =
        t.messages_sent <- t.messages_sent + 1;
        t.bytes_sent <- t.bytes_sent + size;
        let delay =
          if src = dst then 0
          else
            sample_latency t ~src ~dst
            + (if f.reorder > 0 then Rng.int t.frng (f.reorder + 1) else 0)
        in
        let inc = t.incarnation.(dst) in
        Engine.schedule t.eng
          (Engine.now t.eng + delay)
          (fun () ->
            (* Re-check at delivery: the destination may have crashed (or
               crashed and restarted: the incarnation moved on), or the
               link may have been cut, while the message was in flight. *)
            if t.up.(dst) && t.incarnation.(dst) = inc
               && not (Hashtbl.mem t.cut (src, dst))
            then Sync.Mailbox.send t.inboxes.(dst) m
            else t.messages_dropped <- t.messages_dropped + 1)
      in
      deliver_copy ();
      if f.dup > 0.0 && Rng.float t.frng 1.0 < f.dup then begin
        t.messages_duplicated <- t.messages_duplicated + 1;
        deliver_copy ()
      end
    end
  end

let recv t i =
  check_node t i;
  Sync.Mailbox.recv t.inboxes.(i)

let recv_timeout t i d =
  check_node t i;
  Sync.Mailbox.recv_timeout t.inboxes.(i) d

let inbox_length t i =
  check_node t i;
  Sync.Mailbox.length t.inboxes.(i)

let crash t i =
  check_node t i;
  t.up.(i) <- false;
  (* In-flight messages captured the old incarnation and can never be
     delivered, even if the node recovers before their delivery event. *)
  t.incarnation.(i) <- t.incarnation.(i) + 1;
  Sync.Mailbox.clear t.inboxes.(i)

let recover t i =
  check_node t i;
  Sync.Mailbox.clear t.inboxes.(i);
  t.up.(i) <- true

let partition t a b =
  check_node t a;
  check_node t b;
  Hashtbl.replace t.cut (a, b) ();
  Hashtbl.replace t.cut (b, a) ()

let partition_oneway t ~src ~dst =
  check_node t src;
  check_node t dst;
  Hashtbl.replace t.cut (src, dst) ()

let heal t a b =
  Hashtbl.remove t.cut (a, b);
  Hashtbl.remove t.cut (b, a)

let heal_all t = Hashtbl.reset t.cut
let messages_sent t = t.messages_sent
let bytes_sent t = t.bytes_sent
let messages_dropped t = t.messages_dropped
let messages_duplicated t = t.messages_duplicated
