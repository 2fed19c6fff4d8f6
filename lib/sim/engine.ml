type event = { at : int; seq : int; mutable thunk : unit -> unit }
type timer = event

(* The thunk of a cancelled event. Compared physically, it marks the
   event dead without a field of its own; the queue drops such events
   when they reach the top, or all at once when they make up more than
   half of it. *)
let cancelled_thunk () = ()

let no_timer = { at = 0; seq = 0; thunk = cancelled_thunk }

type t = {
  mutable clock : int;
  mutable seq : int;
  queue : event Heap.t;
  root_rng : Rng.t;
  mutable next_pid : int;
  mutable running : bool;
  (* (at, seq) of the last event fired; at = -1 before any. Events fire
     in (at, seq) order and none is scheduled behind the last one fired,
     so an event has fired iff it is not after this pair. *)
  mutable last_fired : int;
  mutable last_seq : int;
  mutable dead : int; (* cancelled events still in [queue] *)
}

type proc = {
  pid : int;
  name : string;
  eng : t;
  mutable dead : bool;
}

(* The generic suspension effect: the payload receives a one-shot wake
   function. Declared with an existential result type. *)
type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t
type _ Effect.t += Self : proc Effect.t

exception Process_failure of string * exn

let cmp_event a b = if a.at <> b.at then compare a.at b.at else compare a.seq b.seq

let create ?(seed = 42L) () =
  {
    clock = 0;
    seq = 0;
    queue = Heap.create ~cmp:cmp_event;
    root_rng = Rng.create seed;
    next_pid = 0;
    running = false;
    last_fired = -1;
    last_seq = 0;
    dead = 0;
  }

(* Host-cost counters over every engine of the process: a process runs
   one engine at a time on one thread, so plain ints suffice. *)
let fired_total = ref 0
let ties_total = ref 0
let resumptions_total = ref 0
let cancelled_total = ref 0
let events_fired () = !fired_total
let ties () = !ties_total
let resumptions () = !resumptions_total
let cancelled () = !cancelled_total

let now t = t.clock
let rng t = t.root_rng

let schedule_timer t at thunk =
  let at = if at < t.clock then t.clock else at in
  t.seq <- t.seq + 1;
  let ev = { at; seq = t.seq; thunk } in
  Heap.push t.queue ev;
  ev

let schedule t at thunk = ignore (schedule_timer t at thunk)

let fired t ev = ev.at < t.last_fired || (ev.at = t.last_fired && ev.seq <= t.last_seq)

let cancel t ev =
  if ev.thunk != cancelled_thunk && not (fired t ev) then begin
    ev.thunk <- cancelled_thunk;
    t.dead <- t.dead + 1;
    incr cancelled_total;
    if 2 * t.dead > Heap.length t.queue then begin
      Heap.filter t.queue (fun ev -> ev.thunk != cancelled_thunk);
      t.dead <- 0
    end
  end

let proc_name p = Printf.sprintf "%s#%d" p.name p.pid
let alive p = not p.dead
let kill p = p.dead <- true

(* Run [f] as the body of process [p], handling its suspension effects. *)
let exec_process (p : proc) (f : unit -> unit) : unit =
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun () -> p.dead <- true);
      exnc =
        (fun e ->
          p.dead <- true;
          raise (Process_failure (proc_name p, e)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  let fired = ref false in
                  let wake (v : a) =
                    if (not !fired) && not p.dead then begin
                      fired := true;
                      incr resumptions_total;
                      continue k v
                    end
                    else fired := true
                  in
                  register wake)
          | Self -> Some (fun (k : (a, _) continuation) -> continue k p)
          | _ -> None);
    }

let spawn t ?(name = "proc") f =
  t.next_pid <- t.next_pid + 1;
  let p = { pid = t.next_pid; name; eng = t; dead = false } in
  schedule t t.clock (fun () -> if not p.dead then exec_process p f);
  p

let run ?until ?(max_events = max_int) t =
  if t.running then invalid_arg "Engine.run: already running (re-entrant run)";
  t.running <- true;
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      let fired = ref 0 in
      let continue_run = ref true in
      while !continue_run do
        if Heap.is_empty t.queue then continue_run := false
        else begin
          let ev = Heap.min_exn t.queue in
          let past_deadline =
            match until with Some u -> ev.at > u | None -> false
          in
          if ev.thunk == cancelled_thunk then begin
            ignore (Heap.pop_exn t.queue);
            t.dead <- t.dead - 1
          end
          else if past_deadline || !fired >= max_events then continue_run := false
          else begin
            ignore (Heap.pop_exn t.queue);
            t.clock <- ev.at;
            incr fired;
            incr fired_total;
            if ev.at = t.last_fired then incr ties_total;
            t.last_fired <- ev.at;
            t.last_seq <- ev.seq;
            ev.thunk ()
          end
        end
      done;
      match until with
      | Some u -> if t.clock < u then t.clock <- u
      | None -> ())

(* ---- In-process operations ---- *)

let self () = Effect.perform Self

let suspend (register : wake:('a -> unit) -> unit) : 'a =
  Effect.perform (Suspend (fun wake -> register ~wake))

let engine () = (self ()).eng
let time () = (engine ()).clock

let sleep_until at =
  let p = self () in
  suspend (fun ~wake -> schedule p.eng at (fun () -> wake ()))

let sleep d =
  let p = self () in
  let at = p.eng.clock + if d < 0 then 0 else d in
  sleep_until at

let us = 1_000
let ms = 1_000_000
let s = 1_000_000_000
