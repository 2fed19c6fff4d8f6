(* perf/main.exe — the benchmark: four client-session workloads measured
   on the virtual clock (the simulated Rolis) and the host clock (the
   simulator), with an outside-in per-layer trace.

     dune exec perf/main.exe -- --seed 42                  all four workloads
     dune exec perf/main.exe -- --workload tpcc --seed 7 --seconds 10 --trace 0
     dune exec perf/main.exe -- --workload tpcc --trace 1  per-layer metrics + spans
     dune exec perf/main.exe -- --workload tpcc --repeat 5 median and quartiles

   Every workload runs in its own forked child, one at a time. Each
   end-to-end metric prints as [<workload> <metric> <value> <unit>
   n=<samples>]; the last line of standard output is one JSON object
   [{"correct", "attempted", "failed", "metrics"}] carrying the
   end-to-end metrics, or with [--trace 1] the per-layer ones. Any
   correctness violation is printed and the exit code is 1. See
   perf/README.md. *)

let median = Measure.median

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default exclusive method). *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

type run = {
  e2e : Measure.metric list;
  layers : Measure.metric list;  (** empty unless traced *)
  attempted : int;
  failed : int;
  violations : string list;
}

let failed_run msg = { e2e = []; layers = []; attempted = 0; failed = 0; violations = [ msg ] }

(* Virtual-clock end-to-end metrics: the traced run must reproduce each
   bit for bit, proving the probes and trace sampling are host-only. *)
let virtual_metrics =
  [ "commit_tps"; "commit_p50_ms"; "commit_p99_ms"; "focus_per_s"; "focus_p50_ms";
    "focus_p99_ms"; "unavail_ms"; "ok_frac" ]

let run_once (w : Workloads.t) ~seed ~size ~trace ~trace_dir =
  let untraced = Child.run (fun () -> w.run ~traced:false ~spans:None ~seed size) in
  let extra =
    match (untraced, w.setup_only) with
    | Error _, _ | _, None -> []
    | Ok _, Some f ->
        List.init 2 (fun _ ->
            Child.run (fun () -> snd (Workloads.timed_setup (fun () -> f ~seed size))))
        |> List.filter_map Result.to_option
  in
  let traced =
    if trace then Some (Child.run (fun () -> w.run ~traced:true ~spans:(Some trace_dir) ~seed size))
    else None
  in
  match untraced with
  | Error e -> failed_run (Printf.sprintf "untraced run: %s" e)
  | Ok u -> (
      let setups = List.map (fun (x : Measure.window) -> x.setup) u.windows @ extra in
      let e2e =
        Measure.end_to_end u.windows ~setup_s:(median setups)
          ~setups:(List.length setups) ~peak_heap_mb:u.peak_heap_mb
      in
      let count f = List.fold_left (fun acc x -> acc + f x) 0 u.windows in
      let base =
        {
          e2e;
          layers = [];
          attempted = count (fun x -> x.Measure.completions);
          failed = count (fun x -> x.Measure.failed);
          violations = u.violations;
        }
      in
      match traced with
      | None -> base
      | Some (Error e) -> { base with violations = base.violations @ [ "traced run: " ^ e ] }
      | Some (Ok t) ->
          let te2e =
            Measure.end_to_end t.windows ~setup_s:0.0 ~setups:0
              ~peak_heap_mb:t.peak_heap_mb
          in
          let value l name = (List.find (fun m -> m.Measure.name = name) l).Measure.value in
          let drift =
            List.filter_map
              (fun name ->
                let a = value e2e name and b = value te2e name in
                if Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) then None
                else
                  Some
                    (Printf.sprintf "trace self-check: %s is %.17g untraced but %.17g traced" name a
                       b))
              virtual_metrics
          in
          let cpu r = List.fold_left (fun acc x -> acc +. x.Measure.d.Measure.cpu) 0.0 r in
          {
            base with
            layers =
              Measure.per_layer t.windows
                ~trace_overhead:(cpu t.windows /. Float.max 1e-9 (cpu u.windows));
            violations = base.violations @ t.violations @ drift;
          })

(* Repeated runs: each metric's median, and its quartiles for the
   spread. *)
type agg = { m : Measure.metric; q1 : float; q3 : float; runs : int }

let aggregate (runs : Measure.metric list list) =
  (* A run that failed measured nothing; its violation is reported. *)
  match List.filter (fun r -> r <> []) runs with
  | [] -> []
  | first :: _ as runs ->
      List.map
        (fun (m : Measure.metric) ->
          let vs =
            List.map
              (fun ms -> (List.find (fun x -> x.Measure.name = m.name) ms).Measure.value)
              runs
          in
          let q1, q3 = quartiles vs in
          { m = { m with value = median vs }; q1; q3; runs = List.length runs })
        first

let line workload a =
  let base =
    Printf.sprintf "%s %s %.10g %s n=%d" workload a.m.Measure.name a.m.value a.m.unit_ a.m.n
  in
  if a.runs < 2 then base
  else
    Printf.sprintf "%s runs=%d q1=%.10g q3=%.10g spread=%.4f" base a.runs a.q1 a.q3
      (if a.m.value = 0.0 then 0.0 else (a.q3 -. a.q1) /. Float.abs a.m.value)

type report = {
  workload : string;
  e2e_agg : agg list;
  layer_agg : agg list;
  r_attempted : int;
  r_failed : int;
  r_violations : string list;
}

let measure_workload (w : Workloads.t) ~seed ~size ~trace ~trace_dir ~repeat =
  let runs = List.init repeat (fun _ -> run_once w ~seed ~size ~trace ~trace_dir) in
  {
    workload = w.name;
    e2e_agg = aggregate (List.map (fun r -> r.e2e) runs);
    layer_agg = aggregate (List.map (fun r -> r.layers) runs);
    r_attempted = List.fold_left (fun acc r -> acc + r.attempted) 0 runs;
    r_failed = List.fold_left (fun acc r -> acc + r.failed) 0 runs;
    r_violations = List.concat_map (fun r -> r.violations) runs;
  }

let text_lines r =
  List.map (line r.workload) r.e2e_agg
  @ List.map (line r.workload) r.layer_agg
  @ List.map (Printf.sprintf "%s VIOLATION %s" r.workload) r.r_violations

(* The result object: a single workload's metrics under their own names,
   several workloads' as [<workload>/<metric>]. *)
let json_line reports ~trace =
  let qualify = List.length reports > 1 in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun a ->
            ( (if qualify then r.workload ^ "/" ^ a.m.Measure.name else a.m.Measure.name),
              Report.Json.Obj
                [ ("value", Report.Json.Float a.m.value); ("unit", Report.Json.String a.m.unit_) ]
            ))
          (if trace then r.layer_agg else r.e2e_agg))
      reports
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  Report.Json.to_string
    (Report.Json.Obj
       [
         ("correct", Report.Json.Bool (List.for_all (fun r -> r.r_violations = []) reports));
         ("attempted", Report.Json.Int (sum (fun r -> r.r_attempted)));
         ("failed", Report.Json.Int (sum (fun r -> r.r_failed)));
         ("metrics", Report.Json.Obj metrics);
       ])

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ---- smoke test: every metric BENCHMARK.json names is printed ---- *)

let smoke file =
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt in
  let spec =
    match Report.Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail "%s: %s" file e
  in
  let list key =
    Option.value (Option.bind (Report.Json.member key spec) Report.Json.to_list) ~default:[]
  in
  let str key j = Option.bind (Report.Json.member key j) Report.Json.to_string_opt in
  let names key =
    List.filter_map (fun j -> Option.map (fun n -> (n, str "unit" j)) (str "name" j)) (list key)
  in
  let dir = "smoke-spans" in
  mkdir_p dir;
  let size = { Workloads.scale = 0.02; smoke = true } in
  List.iter
    (fun j ->
      let name = Option.value (str "name" j) ~default:"" in
      match Workloads.find name with
      | None -> fail "workload %S is not defined" name
      | Some w ->
          let r = measure_workload w ~seed:1 ~size ~trace:true ~trace_dir:dir ~repeat:1 in
          if r.r_violations <> [] then fail "%s: %s" name (String.concat "; " r.r_violations);
          let printed = text_lines r in
          let check (metric, unit_) =
            let ok l =
              match String.split_on_char ' ' l with
              | [ w'; m; v; u; n ] ->
                  w' = name && m = metric && Some u = unit_
                  && Float.is_finite (float_of_string v)
                  && String.starts_with ~prefix:"n=" n
              | _ -> false
            in
            if not (List.exists ok printed) then
              fail "%s: metric %s is not printed with a number and its unit" name metric
          in
          List.iter check (names "end_to_end" @ names "per_layer");
          if
            not
              (List.exists
                 (fun m -> m.m.Measure.name = "shard.unjoined_cross" && m.m.value = 0.0)
                 r.layer_agg)
          then fail "%s: cross-shard ops failed to join their 2PC marks" name;
          let spans = Filename.concat dir (name ^ ".spans.jsonl") in
          In_channel.with_open_bin spans In_channel.input_all
          |> String.split_on_char '\n'
          |> List.iter (fun l ->
                 if l <> "" then
                   match Report.Json.of_string l with
                   | Ok o when List.for_all (fun k -> Report.Json.member k o <> None)
                                 [ "name"; "id"; "parent"; "start_ns"; "end_ns"; "clock" ] -> ()
                   | _ -> fail "%s: malformed span line %s" spans l);
          Sys.remove spans;
          Printf.printf "smoke: %s ok\n%!" name)
    (list "workloads");
  Sys.rmdir dir

(* ---- command line ---- *)

let () =
  let workloads = ref [] and seed = ref 42 and seconds = ref 10 and trace = ref 0 in
  let trace_dir = ref "perf-trace" and repeat = ref 1 and smoke_file = ref "" in
  let names = String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all) in
  let spec =
    [
      ("--workload", Arg.String (fun w -> workloads := w :: !workloads),
       "NAME  run only this workload (repeatable; default: all of " ^ names ^ ")");
      ("--seed", Arg.Set_int seed, "N  seed the inputs are generated from (default 42)");
      ("--seconds", Arg.Set_int seconds,
       "N  measurement windows sized for about N host seconds each (default 10)");
      ("--trace", Arg.Set_int trace,
       "0|1  1: also run traced, print the per-layer metrics, write spans (default 0)");
      ("--trace-dir", Arg.Set_string trace_dir,
       "DIR  where --trace 1 writes <workload>.spans.jsonl (default perf-trace)");
      ("--repeat", Arg.Set_int repeat, "N  run each workload N times; report median and quartiles");
      ("--smoke", Arg.Set_string smoke_file,
       "FILE  tiny runs asserting every metric FILE (BENCHMARK.json) names is printed");
    ]
  in
  let usage = "main.exe [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--repeat N]" in
  let bad msg =
    prerr_endline msg;
    Arg.usage spec usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with
  | Arg.Bad msg -> bad msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if !smoke_file <> "" then smoke !smoke_file
  else begin
    if !seconds < 1 then bad "--seconds must be at least 1";
    if !repeat < 1 then bad "--repeat must be at least 1";
    if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
    let selected =
      match List.rev !workloads with
      | [] -> Workloads.all
      | l ->
          List.map
            (fun n ->
              match Workloads.find n with Some w -> w | None -> bad ("unknown workload " ^ n))
            l
    in
    let trace = !trace = 1 in
    if trace then mkdir_p !trace_dir;
    let size = { Workloads.scale = float_of_int !seconds /. 10.0; smoke = false } in
    let reports =
      List.map
        (fun w ->
          let r =
            measure_workload w ~seed:!seed ~size ~trace ~trace_dir:!trace_dir ~repeat:!repeat
          in
          List.iter print_endline (text_lines r);
          flush stdout;
          r)
        selected
    in
    print_endline (json_line reports ~trace);
    if List.exists (fun r -> r.r_violations <> []) reports then exit 1
  end
