(* Forked children: every workload — and every failover trial — runs in
   its own process, so its heap is its own and nothing it allocates
   outlives it. *)

(* The running child, so an interrupted benchmark never leaves it
   behind: SIGINT or SIGTERM stops it (and, through its own handler, any
   child of its own) before this process exits. *)
let current = ref None

let stop_on signal =
  Sys.set_signal signal
    (Sys.Signal_handle
       (fun _ ->
         Option.iter
           (fun pid ->
             (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
             ignore (Unix.waitpid [] pid))
           !current;
         exit 2))

let () = List.iter stop_on [ Sys.sigint; Sys.sigterm ]

(* Run [f] in a forked child; its result comes back marshalled over a
   pipe. *)
let run (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (r : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      current := Some pid;
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file | Failure _ -> Error "child ended without a result"
      in
      close_in ic;
      let status = snd (Unix.waitpid [] pid) in
      current := None;
      match status with
      | Unix.WEXITED 0 -> r
      | Unix.WEXITED c -> Error (Printf.sprintf "child exited with code %d" c)
      | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "child killed by signal %d" n))
