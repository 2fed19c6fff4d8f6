(* Tests for the discrete-event simulation substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Heap ---------- *)

let test_heap_order () =
  let h = Sim.Heap.create ~cmp:compare in
  List.iter (Sim.Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc =
    match Sim.Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let test_heap_empty () =
  let h = Sim.Heap.create ~cmp:compare in
  check_bool "empty" true (Sim.Heap.is_empty h);
  check_bool "pop none" true (Sim.Heap.pop h = None);
  Alcotest.check_raises "pop_exn raises" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Sim.Heap.pop_exn h))

let heap_qcheck =
  QCheck.Test.make ~name:"heap drains any list in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Sim.Heap.create ~cmp:compare in
      List.iter (Sim.Heap.push h) xs;
      let rec drain acc =
        match Sim.Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  for _ = 1 to 100 do
    check_bool "same stream" true (Sim.Rng.int64 a = Sim.Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create 7L in
  let c = Sim.Rng.split a in
  (* Drawing from the parent after the split must not change the child's
     stream relative to a reference reconstruction. *)
  let a' = Sim.Rng.create 7L in
  let c' = Sim.Rng.split a' in
  ignore (Sim.Rng.int64 a');
  for _ = 1 to 50 do
    check_bool "child unaffected" true (Sim.Rng.int64 c = Sim.Rng.int64 c')
  done

let rng_bounds_qcheck =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let r = Sim.Rng.create (Int64.of_int seed) in
      let v = Sim.Rng.int r n in
      v >= 0 && v < n)

let test_rng_int_in () =
  let r = Sim.Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int_in r 10 20 in
    check_bool "in range" true (v >= 10 && v <= 20)
  done

let test_rng_uniformity () =
  (* Coarse sanity: each of 10 cells of [0,10) gets 5-15% of 10k draws. *)
  let r = Sim.Rng.create 99L in
  let cells = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int r 10 in
    cells.(v) <- cells.(v) + 1
  done;
  Array.iter (fun c -> check_bool "roughly uniform" true (c > 500 && c < 1500)) cells

(* Golden xoshiro256** vectors: a change to the generator's state layout
   must keep every stream bit-identical.
   Per seed: two [int64] draws, then [int] at three bounds, one [float],
   the first draw of a [split] child and the parent's next draw. *)
let rng_golden =
  [
    ( 0L,
      [ -7355399402456485196L; -4652746763540216534L ],
      [ 736; 640494892; 4298031953262947929 ],
      0x1.ffdf06ebb3d79p-1,
      533229949298291372L,
      -8565655843838424513L );
    ( 42L,
      [ 1546998764402558742L; 6990951692964543102L ],
      [ 417; 62087329; 4460494922783153764 ],
      0x1.8a1b4a6202f2ap-1,
      6277591095277297779L,
      -2766855848391737209L );
    ( -1L,
      [ -8118546653352383224L; -4290065566684577747L ],
      [ 670; 106904623; 1240059989959942954 ],
      0x1.76a6bd2728374p-1,
      6650964370566282453L,
      -4285393230689821982L );
  ]

let test_rng_golden () =
  List.iter
    (fun (seed, i64s, ints, f, child, after) ->
      let r = Sim.Rng.create seed in
      let name what = Printf.sprintf "seed %Ld %s" seed what in
      List.iter (fun v -> Alcotest.(check int64) (name "int64") v (Sim.Rng.int64 r)) i64s;
      List.iter2
        (fun v n -> check_int (name "int") v (Sim.Rng.int r n))
        ints [ 1000; 0x3FFF_FFFF; max_int ];
      Alcotest.(check (float 0.)) (name "float") f (Sim.Rng.float r 1.0);
      let c = Sim.Rng.split r in
      Alcotest.(check int64) (name "split child") child (Sim.Rng.int64 c);
      Alcotest.(check int64) (name "after split") after (Sim.Rng.int64 r))
    rng_golden

(* ---------- Engine ---------- *)

let test_engine_time_order () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule eng 30 (fun () -> log := 3 :: !log);
  Sim.Engine.schedule eng 10 (fun () -> log := 1 :: !log);
  Sim.Engine.schedule eng 20 (fun () -> log := 2 :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" 30 (Sim.Engine.now eng)

let test_engine_fifo_ties () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Engine.schedule eng 10 (fun () -> log := i :: !log)
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "FIFO among equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

(* Five thunks at t=10 (four ties), a timer and a thunk at t=20 (one
   tie), then a process that starts at t=20 (another tie) and wakes at
   t=30 (the one resumption); a timer at t=10 cancelled before the run
   is neither fired nor a tie, and cancelling a timer that already fired,
   or [no_timer], does nothing. A later [run ~until] that moves the clock
   without firing adds nothing, and an event at the moved-to instant is
   not a tie of an unfired one. *)
let test_engine_counters () =
  let e0 = Sim.Engine.events_fired ()
  and t0 = Sim.Engine.ties ()
  and r0 = Sim.Engine.resumptions ()
  and c0 = Sim.Engine.cancelled () in
  let eng = Sim.Engine.create () in
  for _ = 1 to 5 do
    Sim.Engine.schedule eng 10 ignore
  done;
  let tm =
    Sim.Engine.schedule_timer eng 10 (fun () -> Alcotest.fail "cancelled timer ran")
  in
  Sim.Engine.cancel eng tm;
  let fired = Sim.Engine.schedule_timer eng 20 ignore in
  Sim.Engine.schedule eng 20 (fun () ->
      ignore (Sim.Engine.spawn eng (fun () -> Sim.Engine.sleep 10)));
  Sim.Engine.run eng;
  Sim.Engine.cancel eng fired;
  Sim.Engine.cancel eng tm;
  Sim.Engine.cancel eng Sim.Engine.no_timer;
  check_int "events fired" 9 (Sim.Engine.events_fired () - e0);
  check_int "ties" 6 (Sim.Engine.ties () - t0);
  check_int "resumptions" 1 (Sim.Engine.resumptions () - r0);
  check_int "cancelled" 1 (Sim.Engine.cancelled () - c0);
  Sim.Engine.run ~until:100 eng;
  check_int "no event, no count" 9 (Sim.Engine.events_fired () - e0);
  Sim.Engine.schedule eng 100 ignore;
  Sim.Engine.run eng;
  check_int "one more event" 10 (Sim.Engine.events_fired () - e0);
  check_int "not a tie" 6 (Sim.Engine.ties () - t0)

(* A drain stops at the last live event: the answered wait's timeout
   (due at t=100) is cancelled and does not move the clock. *)
let test_drain_clock () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Sync.Mailbox.create eng in
  let got = ref None in
  let _p =
    Sim.Engine.spawn eng (fun () -> got := Sim.Sync.Mailbox.recv_timeout mb 100)
  in
  Sim.Engine.schedule eng 20 (fun () -> Sim.Sync.Mailbox.send mb 5);
  Sim.Engine.run eng;
  check_bool "answered" true (!got = Some 5);
  check_int "clock at the answer" 20 (Sim.Engine.now eng)

(* Half the queue cancelled forces the rebuild: the survivors still fire
   in (at, seq) order, ties in scheduling order. *)
let test_cancel_compaction_order () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let timers =
    List.init 200 (fun i ->
        let at = i * 7919 mod 13 in
        (i, Sim.Engine.schedule_timer eng at (fun () -> log := i :: !log)))
  in
  List.iter (fun (i, tm) -> if i mod 3 <> 0 then Sim.Engine.cancel eng tm) timers;
  Sim.Engine.run eng;
  let expected =
    List.filter (fun i -> i mod 3 = 0) (List.init 200 Fun.id)
    |> List.stable_sort (fun a b -> compare ((a * 7919) mod 13) ((b * 7919) mod 13))
  in
  Alcotest.(check (list int)) "survivors in order" expected (List.rev !log);
  check_int "clock at last survivor" 12 (Sim.Engine.now eng)

(* Random programs over one engine, run twice: with {!Sim.Engine.cancel}
   and {!Sim.Sync.Mailbox.recv_timeout}, and against a reference in which
   a cancelled timer still fires as a no-op and the mailbox is the
   original one whose answered timeouts stay queued. [Timer] thunks cancel
   a timer made so far (possibly one that has fired, or themselves) and
   add a cancellable child; [Recv] processes wait twice on one shared
   mailbox. Every live step logs (label, clock): the logs must match, the
   drain must stop at the last live step, and each cancel must account
   for exactly one reference event. *)
type prog_op =
  | Plain of int
  | Send of int * int
  | Timer of int * int option * int option
  | Cancel of int
  | Recv of int * int

let reference_mailbox eng =
  let msgs = Queue.create () and waiters = Queue.create () in
  let rec claim () =
    match Queue.take_opt waiters with
    | None -> None
    | Some (active, deliver) ->
        if !active then begin
          active := false;
          Some deliver
        end
        else claim ()
  in
  let send v =
    match claim () with Some deliver -> deliver v | None -> Queue.add v msgs
  in
  let recv_timeout d =
    match Queue.take_opt msgs with
    | Some v -> Some v
    | None ->
        Sim.Engine.suspend (fun ~wake ->
            let active = ref true in
            let deliver v =
              Sim.Engine.schedule eng (Sim.Engine.now eng) (fun () -> wake (Some v))
            in
            Queue.add (active, deliver) waiters;
            Sim.Engine.schedule eng
              (Sim.Engine.now eng + d)
              (fun () ->
                if !active then begin
                  active := false;
                  wake None
                end))
  in
  (send, recv_timeout)

let run_program ~reference ops =
  let e0 = Sim.Engine.events_fired () and c0 = Sim.Engine.cancelled () in
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let note label = log := (label, Sim.Engine.now eng) :: !log in
  (* [timer at f] schedules [f] and returns the function that cancels it. *)
  let timer, send, recv_timeout =
    if reference then
      let send, recv = reference_mailbox eng in
      ( (fun at f ->
          let cancelled = ref false in
          Sim.Engine.schedule eng at (fun () -> if not !cancelled then f ());
          fun () -> cancelled := true),
        send,
        recv )
    else
      let mb = Sim.Sync.Mailbox.create eng in
      ( (fun at f ->
          let tm = Sim.Engine.schedule_timer eng at f in
          fun () -> Sim.Engine.cancel eng tm),
        Sim.Sync.Mailbox.send mb,
        Sim.Sync.Mailbox.recv_timeout mb )
  in
  let cancels = Hashtbl.create 16 in
  let add_timer at f = Hashtbl.replace cancels (Hashtbl.length cancels) (timer at f) in
  let cancel_nth c =
    let n = Hashtbl.length cancels in
    if n > 0 then (Hashtbl.find cancels (c mod n)) ()
  in
  List.iteri
    (fun i op ->
      match op with
      | Plain at ->
          Sim.Engine.schedule eng at (fun () -> note (Printf.sprintf "plain %d" i))
      | Send (at, v) ->
          Sim.Engine.schedule eng at (fun () ->
              note (Printf.sprintf "send %d" i);
              send v)
      | Timer (at, c, child) ->
          add_timer at (fun () ->
              note (Printf.sprintf "timer %d" i);
              Option.iter cancel_nth c;
              Option.iter
                (fun dt ->
                  add_timer (Sim.Engine.now eng + dt) (fun () ->
                      note (Printf.sprintf "child %d" i)))
                child)
      | Cancel c -> cancel_nth c
      | Recv (start, d) ->
          ignore
            (Sim.Engine.spawn eng (fun () ->
                 Sim.Engine.sleep start;
                 for round = 1 to 2 do
                   let r = recv_timeout d in
                   note
                     (Printf.sprintf "recv %d.%d %s" i round
                        (match r with None -> "timeout" | Some v -> string_of_int v))
                 done)))
    ops;
  Sim.Engine.run eng;
  ( List.rev !log,
    Sim.Engine.now eng,
    Sim.Engine.events_fired () - e0,
    Sim.Engine.cancelled () - c0 )

let print_op =
  let opt = function None -> "-" | Some n -> string_of_int n in
  function
  | Plain at -> Printf.sprintf "Plain %d" at
  | Send (at, v) -> Printf.sprintf "Send (%d, %d)" at v
  | Timer (at, c, child) -> Printf.sprintf "Timer (%d, %s, %s)" at (opt c) (opt child)
  | Cancel c -> Printf.sprintf "Cancel %d" c
  | Recv (start, d) -> Printf.sprintf "Recv (%d, %d)" start d

let cancel_qcheck =
  let open QCheck in
  let t = Gen.int_range 0 100 in
  let op =
    Gen.frequency
      [
        (2, Gen.map (fun at -> Plain at) t);
        (2, Gen.map2 (fun at v -> Send (at, v)) t Gen.small_nat);
        ( 3,
          Gen.map3
            (fun at c child -> Timer (at, c, child))
            t (Gen.opt Gen.small_nat)
            (Gen.opt (Gen.int_range 0 40)) );
        (3, Gen.map (fun c -> Cancel c) Gen.small_nat);
        ( 2,
          Gen.map2
            (fun start d -> Recv (start, d))
            (Gen.int_range 0 50) (Gen.int_range 0 60) );
      ]
  in
  Test.make ~name:"cancelled events vanish; live ones keep order and clock" ~count:500
    (make ~print:(Print.list print_op) Gen.(list_size (int_range 0 40) op))
    (fun ops ->
      let log, now, fired, cancelled = run_program ~reference:false ops in
      let ref_log, _, ref_fired, _ = run_program ~reference:true ops in
      log = ref_log
      && now = List.fold_left (fun m (_, at) -> max m at) 0 log
      && fired + cancelled = ref_fired)

let test_process_sleep () =
  let eng = Sim.Engine.create () in
  let trace = ref [] in
  let _p =
    Sim.Engine.spawn eng (fun () ->
        trace := (0, Sim.Engine.time ()) :: !trace;
        Sim.Engine.sleep 100;
        trace := (1, Sim.Engine.time ()) :: !trace;
        Sim.Engine.sleep 50;
        trace := (2, Sim.Engine.time ()) :: !trace)
  in
  Sim.Engine.run eng;
  Alcotest.(check (list (pair int int)))
    "sleep advances virtual time"
    [ (0, 0); (1, 100); (2, 150) ]
    (List.rev !trace)

let test_run_until () =
  let eng = Sim.Engine.create () in
  let hits = ref 0 in
  let _p =
    Sim.Engine.spawn eng (fun () ->
        let continue = ref true in
        while !continue do
          Sim.Engine.sleep 10;
          incr hits;
          if !hits > 1000 then continue := false
        done)
  in
  Sim.Engine.run ~until:105 eng;
  check_int "ten sleeps fit in 105ns" 10 !hits;
  check_int "clock clamped to until" 105 (Sim.Engine.now eng)

let test_kill_process () =
  let eng = Sim.Engine.create () in
  let hits = ref 0 in
  let p =
    Sim.Engine.spawn eng (fun () ->
        while true do
          Sim.Engine.sleep 10;
          incr hits
        done)
  in
  Sim.Engine.schedule eng 35 (fun () -> Sim.Engine.kill p);
  Sim.Engine.run ~until:1000 eng;
  check_int "killed after 3 wakeups" 3 !hits;
  check_bool "marked dead" false (Sim.Engine.alive p)

let test_nested_spawn () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let _p =
    Sim.Engine.spawn eng (fun () ->
        log := "outer" :: !log;
        let _child =
          Sim.Engine.spawn eng (fun () ->
              Sim.Engine.sleep 10;
              log := "child" :: !log)
        in
        Sim.Engine.sleep 50;
        log := "outer-end" :: !log)
  in
  Sim.Engine.run eng;
  Alcotest.(check (list string))
    "nested spawn interleaves" [ "outer"; "child"; "outer-end" ] (List.rev !log)

let test_process_exception_surfaces () =
  let eng = Sim.Engine.create () in
  let _p = Sim.Engine.spawn eng (fun () -> failwith "boom") in
  match Sim.Engine.run eng with
  | () -> Alcotest.fail "expected the process failure to surface"
  | exception Sim.Engine.Process_failure (_, Failure msg) ->
      Alcotest.(check string) "original exception carried" "boom" msg

let test_schedule_in_past_clamps () =
  let eng = Sim.Engine.create () in
  let fired_at = ref (-1) in
  Sim.Engine.schedule eng 100 (fun () ->
      (* Scheduling before "now" must clamp to now, not travel back. *)
      Sim.Engine.schedule eng 5 (fun () -> fired_at := Sim.Engine.now eng));
  Sim.Engine.run eng;
  check_int "clamped to now" 100 !fired_at

let test_engine_determinism () =
  let run_once () =
    let eng = Sim.Engine.create ~seed:5L () in
    let rng = Sim.Rng.split (Sim.Engine.rng eng) in
    let log = Buffer.create 64 in
    for i = 1 to 5 do
      let _p =
        Sim.Engine.spawn eng (fun () ->
            for _ = 1 to 10 do
              Sim.Engine.sleep (Sim.Rng.int rng 100 + 1);
              Buffer.add_string log (Printf.sprintf "%d@%d;" i (Sim.Engine.time ()))
            done)
      in
      ()
    done;
    Sim.Engine.run eng;
    Buffer.contents log
  in
  Alcotest.(check string) "identical traces" (run_once ()) (run_once ())

(* ---------- Sync ---------- *)

let test_ivar () =
  let eng = Sim.Engine.create () in
  let iv = Sim.Sync.Ivar.create eng in
  let got = ref (-1) in
  let _reader =
    Sim.Engine.spawn eng (fun () -> got := Sim.Sync.Ivar.read iv)
  in
  let _writer =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.sleep 50;
        Sim.Sync.Ivar.fill iv 42)
  in
  Sim.Engine.run eng;
  check_int "ivar value" 42 !got

let test_mailbox_fifo () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Sync.Mailbox.create eng in
  let got = ref [] in
  let _reader =
    Sim.Engine.spawn eng (fun () ->
        for _ = 1 to 3 do
          got := Sim.Sync.Mailbox.recv mb :: !got
        done)
  in
  let _writer =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.sleep 10;
        Sim.Sync.Mailbox.send mb 1;
        Sim.Sync.Mailbox.send mb 2;
        Sim.Engine.sleep 10;
        Sim.Sync.Mailbox.send mb 3)
  in
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_timeout () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Sync.Mailbox.create eng in
  let first = ref (Some 0) and second = ref None in
  let _reader =
    Sim.Engine.spawn eng (fun () ->
        first := Sim.Sync.Mailbox.recv_timeout mb 50;
        second := Sim.Sync.Mailbox.recv_timeout mb 100)
  in
  let _writer =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.sleep 120;
        Sim.Sync.Mailbox.send mb 9)
  in
  Sim.Engine.run eng;
  check_bool "first timed out" true (!first = None);
  check_bool "second delivered" true (!second = Some 9)

let test_mailbox_timeout_no_double_delivery () =
  (* A message sent after the timeout fired must stay in the queue (the
     timed-out waiter must not consume it). *)
  let eng = Sim.Engine.create () in
  let mb = Sim.Sync.Mailbox.create eng in
  let r = ref None in
  let _reader =
    Sim.Engine.spawn eng (fun () ->
        (match Sim.Sync.Mailbox.recv_timeout mb 10 with
        | Some _ -> Alcotest.fail "unexpected delivery"
        | None -> ());
        Sim.Engine.sleep 100;
        r := Sim.Sync.Mailbox.try_recv mb)
  in
  let _writer =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.sleep 50;
        Sim.Sync.Mailbox.send mb 7)
  in
  Sim.Engine.run eng;
  check_bool "message kept" true (!r = Some 7)

(* A receiver that times out 10,000 times on an idle mailbox leaves at
   most its own live waiter queued; the one send then reaches it, and
   its cancelled timeout leaves the drain at the send. *)
let test_mailbox_timed_out_waiters_dropped () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Sync.Mailbox.create eng in
  let timeouts = ref 0 and got = ref None and queued = ref (-1) in
  let _p =
    Sim.Engine.spawn eng (fun () ->
        for _ = 1 to 10_000 do
          if Sim.Sync.Mailbox.recv_timeout mb 10 = None then incr timeouts
        done;
        got := Sim.Sync.Mailbox.recv_timeout mb Sim.Engine.s)
  in
  Sim.Engine.schedule eng 100_005 (fun () ->
      queued := Sim.Sync.Mailbox.waiters mb;
      Sim.Sync.Mailbox.send mb 42);
  Sim.Engine.run eng;
  check_int "all timed out" 10_000 !timeouts;
  check_int "only the live waiter queued" 1 !queued;
  check_bool "send reached it" true (!got = Some 42);
  check_int "no waiter left" 0 (Sim.Sync.Mailbox.waiters mb);
  check_int "drain ends at the send" 100_005 (Sim.Engine.now eng)

let test_mutex_exclusion () =
  let eng = Sim.Engine.create () in
  let mu = Sim.Sync.Mutex.create eng in
  let inside = ref 0 and max_inside = ref 0 and total = ref 0 in
  for _ = 1 to 5 do
    let _p =
      Sim.Engine.spawn eng (fun () ->
          for _ = 1 to 10 do
            Sim.Sync.Mutex.lock mu;
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Sim.Engine.sleep 7;
            decr inside;
            incr total;
            Sim.Sync.Mutex.unlock mu
          done)
    in
    ()
  done;
  Sim.Engine.run eng;
  check_int "mutual exclusion" 1 !max_inside;
  check_int "all sections ran" 50 !total

let test_semaphore () =
  let eng = Sim.Engine.create () in
  let sem = Sim.Sync.Semaphore.create eng 2 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 6 do
    let _p =
      Sim.Engine.spawn eng (fun () ->
          Sim.Sync.Semaphore.acquire sem;
          incr inside;
          if !inside > !max_inside then max_inside := !inside;
          Sim.Engine.sleep 10;
          decr inside;
          Sim.Sync.Semaphore.release sem)
    in
    ()
  done;
  Sim.Engine.run eng;
  check_int "at most 2 inside" 2 !max_inside

let test_condition () =
  let eng = Sim.Engine.create () in
  let mu = Sim.Sync.Mutex.create eng in
  let cv = Sim.Sync.Condition.create eng in
  let ready = ref false and observed = ref false in
  let _waiter =
    Sim.Engine.spawn eng (fun () ->
        Sim.Sync.Mutex.lock mu;
        while not !ready do
          Sim.Sync.Condition.wait cv mu
        done;
        observed := true;
        Sim.Sync.Mutex.unlock mu)
  in
  let _signaller =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.sleep 100;
        Sim.Sync.Mutex.lock mu;
        ready := true;
        Sim.Sync.Condition.broadcast cv;
        Sim.Sync.Mutex.unlock mu)
  in
  Sim.Engine.run eng;
  check_bool "condition woke waiter" true !observed

let test_waitgroup () =
  let eng = Sim.Engine.create () in
  let wg = Sim.Sync.Waitgroup.create eng in
  let finished_at = ref (-1) in
  Sim.Sync.Waitgroup.add wg 3;
  for i = 1 to 3 do
    let _p =
      Sim.Engine.spawn eng (fun () ->
          Sim.Engine.sleep (i * 100);
          Sim.Sync.Waitgroup.finish wg)
    in
    ()
  done;
  let _waiter =
    Sim.Engine.spawn eng (fun () ->
        Sim.Sync.Waitgroup.wait wg;
        finished_at := Sim.Engine.time ())
  in
  Sim.Engine.run eng;
  check_int "waits for slowest" 300 !finished_at

(* Model-based check: a semaphore of capacity k with random hold times
   never admits more than k holders, and every acquirer eventually runs. *)
let semaphore_model_qcheck =
  QCheck.Test.make ~name:"semaphore admits at most k concurrent holders" ~count:50
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(1 -- 30) (int_range 1 50)))
    (fun (k, holds) ->
      let eng = Sim.Engine.create () in
      let sem = Sim.Sync.Semaphore.create eng k in
      let inside = ref 0 and max_inside = ref 0 and completed = ref 0 in
      List.iter
        (fun hold ->
          ignore
            (Sim.Engine.spawn eng (fun () ->
                 Sim.Sync.Semaphore.acquire sem;
                 incr inside;
                 if !inside > !max_inside then max_inside := !inside;
                 Sim.Engine.sleep hold;
                 decr inside;
                 incr completed;
                 Sim.Sync.Semaphore.release sem)))
        holds;
      Sim.Engine.run eng;
      !max_inside <= k && !completed = List.length holds)

(* ---------- Cpu ---------- *)

let test_cpu_inflation () =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:4 ~efficiency:(fun ~active:_ -> 1.0) () in
  (* 8 threads on 4 cores: 2x oversubscription. *)
  for _ = 1 to 8 do
    Sim.Cpu.register cpu
  done;
  let t_end = ref 0 in
  let _p =
    Sim.Engine.spawn eng (fun () ->
        Sim.Cpu.consume cpu 100;
        t_end := Sim.Engine.time ())
  in
  Sim.Engine.run eng;
  check_int "oversubscription doubles cost" 200 !t_end

let test_cpu_efficiency_curve () =
  check_bool "single thread no penalty" true (Sim.Cpu.default_efficiency ~active:1 = 1.0);
  check_bool "penalty grows" true
    (Sim.Cpu.default_efficiency ~active:8 > Sim.Cpu.default_efficiency ~active:2);
  check_bool "flattens past 16" true
    (Sim.Cpu.default_efficiency ~active:32 = Sim.Cpu.default_efficiency ~active:16)

let test_cpu_utilization () =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:2 ~efficiency:(fun ~active:_ -> 1.0) () in
  Sim.Cpu.register cpu;
  let _p =
    Sim.Engine.spawn eng (fun () ->
        Sim.Cpu.consume cpu 500;
        Sim.Engine.sleep 500)
  in
  Sim.Engine.run eng;
  (* 500ns of work over 1000ns x 2 cores = 25%. *)
  Alcotest.(check (float 0.001)) "utilization" 0.25 (Sim.Cpu.utilization cpu ~since:0)

(* ---------- Net ---------- *)

let test_net_delivery () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng ~nodes:2 ~latency:(Sim.Net.Fixed 100) in
  let got_at = ref (-1) in
  let _receiver =
    Sim.Engine.spawn eng (fun () ->
        let msg = Sim.Net.recv net 1 in
        check_int "payload" 7 msg;
        got_at := Sim.Engine.time ())
  in
  let _sender = Sim.Engine.spawn eng (fun () -> Sim.Net.send net ~src:0 ~dst:1 7) in
  Sim.Engine.run eng;
  check_int "fixed latency" 100 !got_at

let test_net_crash_drops () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng ~nodes:2 ~latency:(Sim.Net.Fixed 100) in
  Sim.Net.crash net 1;
  let _sender = Sim.Engine.spawn eng (fun () -> Sim.Net.send net ~src:0 ~dst:1 7) in
  Sim.Engine.run eng;
  check_int "no delivery to crashed node" 0 (Sim.Net.inbox_length net 1);
  Sim.Net.recover net 1;
  check_bool "recovered" true (Sim.Net.is_up net 1)

let test_net_crash_in_flight () =
  (* The destination crashes while the message is in flight: drop. *)
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng ~nodes:2 ~latency:(Sim.Net.Fixed 100) in
  let _sender = Sim.Engine.spawn eng (fun () -> Sim.Net.send net ~src:0 ~dst:1 7) in
  Sim.Engine.schedule eng 50 (fun () -> Sim.Net.crash net 1);
  Sim.Engine.run eng;
  check_int "in-flight message dropped" 0 (Sim.Net.inbox_length net 1)

(* ---- WAN profiles ---- *)

(* One end-to-end delivery on a region-profiled net: returns the arrival
   time of a single message from [src] to [dst]. *)
let wan_deliver_once ~seed ~profile ~src ~dst =
  let eng = Sim.Engine.create ~seed:(Int64.of_int seed) () in
  let net = Sim.Net.create eng ~nodes:6 ~latency:(Sim.Net.Fixed 10) in
  let p = Option.get (Sim.Net.wan_profile profile) in
  let regions = Array.init 6 (fun i -> i mod p.Sim.Net.wp_regions) in
  Sim.Net.apply_regions net ~regions ~intra:p.Sim.Net.wp_intra
    ~inter:p.Sim.Net.wp_inter;
  let got_at = ref (-1) in
  let _receiver =
    Sim.Engine.spawn eng (fun () ->
        ignore (Sim.Net.recv net dst);
        got_at := Sim.Engine.time ())
  in
  let _sender = Sim.Engine.spawn eng (fun () -> Sim.Net.send net ~src ~dst 0) in
  Sim.Engine.run eng;
  !got_at

let model_base = function
  | Sim.Net.Fixed d -> d
  | Sim.Net.Uniform (lo, _) -> lo
  | Sim.Net.Exp_jitter { base; _ } -> base

(* Every named profile, on every ordered node pair: the delivery pays at
   least the link class's base delay, an inter-region hop is never
   cheaper than an intra-region one, and the sample is deterministic per
   engine seed. *)
let wan_profile_qcheck =
  QCheck.Test.make ~name:"wan profile links respect region bounds" ~count:60
    QCheck.(triple (int_range 0 5) (int_range 0 5) small_nat)
    (fun (src, dst, seed) ->
      QCheck.assume (src <> dst);
      List.for_all
        (fun name ->
          let p = Option.get (Sim.Net.wan_profile name) in
          let same_region =
            src mod p.Sim.Net.wp_regions = dst mod p.Sim.Net.wp_regions
          in
          let lo =
            model_base (if same_region then p.Sim.Net.wp_intra else p.Sim.Net.wp_inter)
          in
          let lat = wan_deliver_once ~seed ~profile:name ~src ~dst in
          lat >= lo
          && (same_region || lo > model_base p.Sim.Net.wp_intra)
          && lat = wan_deliver_once ~seed ~profile:name ~src ~dst)
        Sim.Net.wan_profile_names)

let test_wan_profile_lookup () =
  check_bool "wan3 known" true (Sim.Net.wan_profile "wan3" <> None);
  check_bool "metro3 known" true (Sim.Net.wan_profile "metro3" <> None);
  check_bool "default empty unknown" true (Sim.Net.wan_profile "" = None);
  check_bool "typo unknown" true (Sim.Net.wan_profile "wan9" = None);
  List.iter
    (fun n -> check_bool n true (Sim.Net.wan_profile n <> None))
    Sim.Net.wan_profile_names

let test_net_partition () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng ~nodes:3 ~latency:(Sim.Net.Fixed 10) in
  Sim.Net.partition net 0 1;
  let _sender =
    Sim.Engine.spawn eng (fun () ->
        Sim.Net.send net ~src:0 ~dst:1 1;
        Sim.Net.send net ~src:0 ~dst:2 2)
  in
  Sim.Engine.run eng;
  check_int "partitioned link drops" 0 (Sim.Net.inbox_length net 1);
  check_int "other link delivers" 1 (Sim.Net.inbox_length net 2);
  Sim.Net.heal net 0 1;
  check_bool "healed" true (Sim.Net.is_connected net 0 1)

let test_net_crash_recover_in_flight () =
  (* Regression: the destination crashes *and recovers* while a message is
     in flight. The incarnation bump must still kill the message — a
     restarted node must never receive mail addressed to its previous
     incarnation. *)
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng ~nodes:2 ~latency:(Sim.Net.Fixed 100) in
  let _sender = Sim.Engine.spawn eng (fun () -> Sim.Net.send net ~src:0 ~dst:1 7) in
  Sim.Engine.schedule eng 50 (fun () -> Sim.Net.crash net 1);
  Sim.Engine.schedule eng 60 (fun () -> Sim.Net.recover net 1);
  Sim.Engine.run eng;
  check_bool "node is back up" true (Sim.Net.is_up net 1);
  check_int "incarnation advanced" 1 (Sim.Net.incarnation net 1);
  check_int "pre-crash message never arrives" 0 (Sim.Net.inbox_length net 1);
  check_int "counted as dropped" 1 (Sim.Net.messages_dropped net);
  (* A fresh post-recovery message flows normally. *)
  let _sender2 = Sim.Engine.spawn eng (fun () -> Sim.Net.send net ~src:0 ~dst:1 8) in
  Sim.Engine.run eng;
  check_int "post-recovery message arrives" 1 (Sim.Net.inbox_length net 1)

let test_net_oneway_partition () =
  (* An asymmetric cut blocks exactly one direction. *)
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng ~nodes:2 ~latency:(Sim.Net.Fixed 10) in
  Sim.Net.partition_oneway net ~src:0 ~dst:1;
  check_bool "0->1 cut" false (Sim.Net.can_send net ~src:0 ~dst:1);
  check_bool "1->0 open" true (Sim.Net.can_send net ~src:1 ~dst:0);
  check_bool "not fully connected" false (Sim.Net.is_connected net 0 1);
  let _s =
    Sim.Engine.spawn eng (fun () ->
        Sim.Net.send net ~src:0 ~dst:1 1;
        Sim.Net.send net ~src:1 ~dst:0 2)
  in
  Sim.Engine.run eng;
  check_int "cut direction drops" 0 (Sim.Net.inbox_length net 1);
  check_int "open direction delivers" 1 (Sim.Net.inbox_length net 0);
  check_int "drop accounted" 1 (Sim.Net.messages_dropped net);
  check_int "only the delivered message counts as sent" 1 (Sim.Net.messages_sent net);
  Sim.Net.heal net 0 1;
  check_bool "healed both ways" true (Sim.Net.is_connected net 0 1)

let test_net_fault_model () =
  (* drop = 1-epsilon loses almost everything; dup > 0 delivers extras;
     accounting separates sent / dropped / duplicated. *)
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng ~nodes:2 ~latency:(Sim.Net.Fixed 10) in
  Sim.Net.set_default_faults net { Sim.Net.drop = 0.99; dup = 0.0; reorder = 0 };
  let n = 200 in
  let _s =
    Sim.Engine.spawn eng (fun () ->
        for i = 1 to n do
          Sim.Net.send net ~src:0 ~dst:1 i
        done)
  in
  Sim.Engine.run eng;
  let got = Sim.Net.inbox_length net 1 in
  check_bool "almost all lost" true (got < n / 4);
  check_int "sent + dropped = offered" n (Sim.Net.messages_sent net + Sim.Net.messages_dropped net);
  (* Duplication: every message arrives at least once, some twice. *)
  let eng2 = Sim.Engine.create () in
  let net2 = Sim.Net.create eng2 ~nodes:2 ~latency:(Sim.Net.Fixed 10) in
  Sim.Net.set_link_faults net2 ~src:0 ~dst:1 { Sim.Net.drop = 0.0; dup = 0.5; reorder = 0 };
  let _s2 =
    Sim.Engine.spawn eng2 (fun () ->
        for i = 1 to n do
          Sim.Net.send net2 ~src:0 ~dst:1 i
        done)
  in
  Sim.Engine.run eng2;
  let got2 = Sim.Net.inbox_length net2 1 in
  check_int "delivered = n + duplicates" (n + Sim.Net.messages_duplicated net2) got2;
  check_bool "some duplicates happened" true (Sim.Net.messages_duplicated net2 > 0);
  Sim.Net.clear_faults net2;
  let _s3 = Sim.Engine.spawn eng2 (fun () -> Sim.Net.send net2 ~src:0 ~dst:1 0) in
  let before = got2 in
  Sim.Engine.run eng2;
  check_int "cleared faults deliver exactly once" (before + 1) (Sim.Net.inbox_length net2 1)

let test_fault_plan_deterministic () =
  (* The same seed yields the same plan; plans keep a majority up and end
     quiesced. *)
  let plan_of seed =
    let rng = Sim.Rng.create seed in
    Sim.Fault.random_plan rng ~nodes:5 ~steps:30 ()
  in
  let p1 = plan_of 11L and p2 = plan_of 11L and p3 = plan_of 12L in
  check_bool "same seed, same plan" true (p1 = p2);
  check_bool "different seed, different plan" true (p1 <> p3);
  let down = Array.make 5 false in
  let ndown () = Array.fold_left (fun a b -> if b then a + 1 else a) 0 down in
  List.iter
    (fun { Sim.Fault.action; _ } ->
      (match action with
      | Sim.Fault.Crash i -> down.(i) <- true
      | Sim.Fault.Restart i -> down.(i) <- false
      | _ -> ());
      check_bool "majority always up" true (ndown () <= 2))
    p1;
  check_int "plan ends with every node up" 0 (ndown ())

let test_net_broadcast () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng ~nodes:4 ~latency:(Sim.Net.Fixed 10) in
  let _sender = Sim.Engine.spawn eng (fun () -> Sim.Net.broadcast net ~src:0 9) in
  Sim.Engine.run eng;
  check_int "not self" 0 (Sim.Net.inbox_length net 0);
  for i = 1 to 3 do
    check_int "others got it" 1 (Sim.Net.inbox_length net i)
  done

(* ---------- Metrics ---------- *)

let test_hist_quantiles () =
  let h = Sim.Metrics.Hist.create () in
  for i = 1 to 100 do
    Sim.Metrics.Hist.add h i
  done;
  check_int "p50" 50 (Sim.Metrics.Hist.quantile h 0.5);
  check_int "p95" 95 (Sim.Metrics.Hist.quantile h 0.95);
  check_int "p100" 100 (Sim.Metrics.Hist.quantile h 1.0);
  check_int "min" 1 (Sim.Metrics.Hist.min_value h);
  Alcotest.(check (float 0.001)) "mean" 50.5 (Sim.Metrics.Hist.mean h)

let hist_qcheck =
  QCheck.Test.make ~name:"hist max quantile equals max sample" ~count:200
    QCheck.(list_of_size Gen.(1 -- 200) small_nat)
    (fun xs ->
      let h = Sim.Metrics.Hist.create () in
      List.iter (Sim.Metrics.Hist.add h) xs;
      Sim.Metrics.Hist.quantile h 1.0 = List.fold_left max 0 xs)

let test_series () =
  let s = Sim.Metrics.Series.create ~bucket_ns:100 in
  Sim.Metrics.Series.add s ~at:10 1;
  Sim.Metrics.Series.add s ~at:90 1;
  Sim.Metrics.Series.add s ~at:250 5;
  Alcotest.(check (list (pair int int)))
    "buckets with gap filled"
    [ (0, 2); (100, 0); (200, 5) ]
    (Sim.Metrics.Series.buckets s)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_order;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          qc heap_qcheck;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "golden vectors" `Quick test_rng_golden;
          qc rng_bounds_qcheck;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "event and tie counters" `Quick test_engine_counters;
          Alcotest.test_case "drain stops at last live event" `Quick test_drain_clock;
          Alcotest.test_case "cancel compaction keeps order" `Quick
            test_cancel_compaction_order;
          qc cancel_qcheck;
          Alcotest.test_case "process sleep" `Quick test_process_sleep;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "kill process" `Quick test_kill_process;
          Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
          Alcotest.test_case "process exception surfaces" `Quick
            test_process_exception_surfaces;
          Alcotest.test_case "past schedule clamps" `Quick test_schedule_in_past_clamps;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
        ] );
      ( "sync",
        [
          Alcotest.test_case "ivar" `Quick test_ivar;
          Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "mailbox timeout" `Quick test_mailbox_timeout;
          Alcotest.test_case "timeout no double delivery" `Quick
            test_mailbox_timeout_no_double_delivery;
          Alcotest.test_case "timed-out waiters dropped" `Quick
            test_mailbox_timed_out_waiters_dropped;
          Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
          Alcotest.test_case "semaphore" `Quick test_semaphore;
          Alcotest.test_case "condition" `Quick test_condition;
          Alcotest.test_case "waitgroup" `Quick test_waitgroup;
          qc semaphore_model_qcheck;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "oversubscription" `Quick test_cpu_inflation;
          Alcotest.test_case "efficiency curve" `Quick test_cpu_efficiency_curve;
          Alcotest.test_case "utilization" `Quick test_cpu_utilization;
        ] );
      ( "net",
        [
          Alcotest.test_case "delivery" `Quick test_net_delivery;
          Alcotest.test_case "crash drops" `Quick test_net_crash_drops;
          Alcotest.test_case "crash in flight" `Quick test_net_crash_in_flight;
          Alcotest.test_case "partition" `Quick test_net_partition;
          Alcotest.test_case "crash+recover in flight" `Quick
            test_net_crash_recover_in_flight;
          Alcotest.test_case "one-way partition" `Quick test_net_oneway_partition;
          Alcotest.test_case "fault model" `Quick test_net_fault_model;
          Alcotest.test_case "fault plan deterministic" `Quick
            test_fault_plan_deterministic;
          Alcotest.test_case "broadcast" `Quick test_net_broadcast;
          Alcotest.test_case "wan profile lookup" `Quick test_wan_profile_lookup;
          qc wan_profile_qcheck;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "quantiles" `Quick test_hist_quantiles;
          Alcotest.test_case "series" `Quick test_series;
          qc hist_qcheck;
        ] );
    ]
