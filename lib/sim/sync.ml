type 'a waiter = {
  mutable active : bool;
  mutable deliver : 'a -> unit;
  mutable timer : Engine.timer; (* a timed receive's timeout, else [no_timer] *)
}

let waiter deliver = { active = true; deliver; timer = Engine.no_timer }

(* Deliver through the event queue so that the waker never yields. *)
let deferred_wake eng wake v = Engine.schedule eng (Engine.now eng) (fun () -> wake v)

(* Pop waiters until one is still active; claim and return it. *)
let rec claim_waiter waiters =
  match Queue.take_opt waiters with
  | None -> None
  | Some w -> if w.active then begin w.active <- false; Some w end else claim_waiter waiters

module Ivar = struct
  type 'a t = {
    eng : Engine.t;
    mutable value : 'a option;
    waiters : 'a waiter Queue.t;
  }

  let create eng = { eng; value = None; waiters = Queue.create () }

  let fill t v =
    match t.value with
    | Some _ -> invalid_arg "Ivar.fill: already filled"
    | None ->
        t.value <- Some v;
        let rec flush () =
          match claim_waiter t.waiters with
          | None -> ()
          | Some w ->
              w.deliver v;
              flush ()
        in
        flush ()

  let read t =
    match t.value with
    | Some v -> v
    | None ->
        Engine.suspend (fun ~wake ->
            Queue.add (waiter (deferred_wake t.eng wake)) t.waiters)
end

module Mailbox = struct
  type 'a t = {
    eng : Engine.t;
    msgs : 'a Queue.t;
    waiters : 'a waiter Queue.t;
    (* Timeouts since [waiters] was last rebuilt: an upper bound on the
       timed-out waiters it holds ([send] may have skipped some). *)
    mutable timed_out : int;
  }

  let create eng =
    { eng; msgs = Queue.create (); waiters = Queue.create (); timed_out = 0 }

  let send t msg =
    match claim_waiter t.waiters with
    | Some w -> w.deliver msg
    | None -> Queue.add msg t.msgs

  let try_recv t = Queue.take_opt t.msgs

  let recv t =
    match Queue.take_opt t.msgs with
    | Some v -> v
    | None ->
        Engine.suspend (fun ~wake ->
            Queue.add (waiter (deferred_wake t.eng wake)) t.waiters)

  (* A timed-out waiter stays queued until [send] skips it. Once timeouts
     since the last rebuild are more than half the queue, rebuild it
     without them: O(length) for at least length/2 timeouts, and a
     mailbox that never receives holds O(live) waiters. *)
  let drop_timed_out t =
    let live = Queue.create () in
    Queue.iter (fun w -> if w.active then Queue.add w live) t.waiters;
    Queue.clear t.waiters;
    Queue.transfer live t.waiters;
    t.timed_out <- 0

  let recv_timeout t d =
    match Queue.take_opt t.msgs with
    | Some v -> Some v
    | None ->
        (* The waiter is made before the suspension so that its timer
           is still at hand when a message resumes the receiver. *)
        let w = waiter ignore in
        let r =
          Engine.suspend (fun ~wake ->
              w.deliver <- (fun v -> deferred_wake t.eng wake (Some v));
              Queue.add w t.waiters;
              w.timer <-
                Engine.schedule_timer t.eng
                  (Engine.now t.eng + d)
                  (fun () ->
                    if w.active then begin
                      w.active <- false;
                      t.timed_out <- t.timed_out + 1;
                      if 2 * t.timed_out > Queue.length t.waiters then drop_timed_out t;
                      wake None
                    end))
        in
        (match r with Some _ -> Engine.cancel t.eng w.timer | None -> ());
        r

  let length t = Queue.length t.msgs
  let waiters t = Queue.length t.waiters
  let clear t = Queue.clear t.msgs
end

module Mutex = struct
  type t = {
    eng : Engine.t;
    mutable held : bool;
    waiters : unit waiter Queue.t;
  }

  let create eng = { eng; held = false; waiters = Queue.create () }

  let try_lock t =
    if t.held then false
    else begin
      t.held <- true;
      true
    end

  let lock t =
    if not (try_lock t) then
      Engine.suspend (fun ~wake ->
          Queue.add (waiter (deferred_wake t.eng wake)) t.waiters)

  let unlock t =
    if not t.held then invalid_arg "Mutex.unlock: not locked";
    match claim_waiter t.waiters with
    | Some w -> w.deliver () (* ownership transfers to the waiter *)
    | None -> t.held <- false
end

module Condition = struct
  type t = { eng : Engine.t; waiters : unit waiter Queue.t }

  let create eng = { eng; waiters = Queue.create () }

  let wait t mu =
    Engine.suspend (fun ~wake ->
        Queue.add (waiter (deferred_wake t.eng wake)) t.waiters;
        Mutex.unlock mu);
    Mutex.lock mu

  let signal t = match claim_waiter t.waiters with Some w -> w.deliver () | None -> ()

  let broadcast t =
    let rec flush () =
      match claim_waiter t.waiters with
      | None -> ()
      | Some w ->
          w.deliver ();
          flush ()
    in
    flush ()
end

module Semaphore = struct
  type t = {
    eng : Engine.t;
    mutable count : int;
    waiters : unit waiter Queue.t;
  }

  let create eng count =
    if count < 0 then invalid_arg "Semaphore.create: negative count";
    { eng; count; waiters = Queue.create () }

  let try_acquire t =
    if t.count > 0 then begin
      t.count <- t.count - 1;
      true
    end
    else false

  let acquire t =
    if not (try_acquire t) then
      Engine.suspend (fun ~wake ->
          Queue.add (waiter (deferred_wake t.eng wake)) t.waiters)

  let release t =
    match claim_waiter t.waiters with
    | Some w -> w.deliver () (* the permit transfers directly *)
    | None -> t.count <- t.count + 1

  let value t = t.count
end

module Waitgroup = struct
  type t = {
    eng : Engine.t;
    mutable count : int;
    waiters : unit waiter Queue.t;
  }

  let create eng = { eng; count = 0; waiters = Queue.create () }

  let add t n =
    if t.count + n < 0 then invalid_arg "Waitgroup.add: negative count";
    t.count <- t.count + n

  let finish t =
    if t.count <= 0 then invalid_arg "Waitgroup.finish: count underflow";
    t.count <- t.count - 1;
    if t.count = 0 then begin
      let rec flush () =
        match claim_waiter t.waiters with
        | None -> ()
        | Some w ->
            w.deliver ();
            flush ()
      in
      flush ()
    end

  let wait t =
    if t.count > 0 then
      Engine.suspend (fun ~wake ->
          Queue.add (waiter (deferred_wake t.eng wake)) t.waiters)
end
