type event = { at : int; seq : int; thunk : unit -> unit }

type t = {
  mutable clock : int;
  mutable seq : int;
  queue : event Heap.t;
  root_rng : Rng.t;
  mutable next_pid : int;
  mutable running : bool;
  mutable last_fired : int; (* instant of the last event fired; -1 before any *)
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
  }

(* Host-cost counters over every engine of the process: a process runs
   one engine at a time on one thread, so plain ints suffice. *)
let fired_total = ref 0
let ties_total = ref 0
let events_fired () = !fired_total
let ties () = !ties_total

let now t = t.clock
let rng t = t.root_rng

let schedule t at thunk =
  let at = if at < t.clock then t.clock else at in
  t.seq <- t.seq + 1;
  Heap.push t.queue { at; seq = t.seq; thunk }

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
          if past_deadline || !fired >= max_events then continue_run := false
          else begin
            ignore (Heap.pop_exn t.queue);
            t.clock <- ev.at;
            incr fired;
            incr fired_total;
            if ev.at = t.last_fired then incr ties_total;
            t.last_fired <- ev.at;
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

let ns = 1
let us = 1_000
let ms = 1_000_000
let s = 1_000_000_000

let pp_time fmt t =
  if t >= s then Format.fprintf fmt "%.3fs" (float_of_int t /. float_of_int s)
  else if t >= ms then Format.fprintf fmt "%.3fms" (float_of_int t /. float_of_int ms)
  else if t >= us then Format.fprintf fmt "%.3fus" (float_of_int t /. float_of_int us)
  else Format.fprintf fmt "%dns" t
