(* Tests for the report library: the JSON layer, the benchmark result
   schema, and the bench-diff regression gate. The round-trip properties
   here are what lets CI trust a committed baseline file: encode/decode
   must be lossless or the gate would drift. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let replace_substring ~sub ~by s =
  let n = String.length sub in
  let buf = Buffer.create (String.length s) in
  let rec go i =
    if i >= String.length s then ()
    else if i + n <= String.length s && String.sub s i n = sub then begin
      Buffer.add_string buf by;
      go (i + n)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

(* ---------- Json ---------- *)

(* Random JSON trees. Floats are drawn from a finite generator (NaN and
   infinities are rejected by the serializer by design); object keys
   exercise the escaper with quotes, backslashes and control bytes. *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Report.Json.Null;
        map (fun b -> Report.Json.Bool b) bool;
        map (fun i -> Report.Json.Int i) (int_range (-1_000_000_000) 1_000_000_000);
        map (fun f -> Report.Json.Float f) (float_bound_exclusive 1e12);
        map (fun f -> Report.Json.Float (-.f)) (float_bound_exclusive 1e-3);
        map (fun s -> Report.Json.String s) (string_size ~gen:printable (int_bound 12));
        map
          (fun s -> Report.Json.String ("\"\\\n\t " ^ s))
          (string_size ~gen:printable (int_bound 6));
      ]
  in
  let key = string_size ~gen:printable (int_bound 8) in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            ( 1,
              map (fun l -> Report.Json.List l)
                (list_size (int_bound 4) (self (depth - 1))) );
            ( 1,
              map (fun l -> Report.Json.Obj l)
                (list_size (int_bound 4) (pair key (self (depth - 1)))) );
          ])
    3

let json_arb =
  QCheck.make ~print:(fun j -> Report.Json.to_string ~pretty:true j) json_gen

let json_roundtrip_qcheck =
  QCheck.Test.make ~name:"json: of_string (to_string j) = j" ~count:500 json_arb
    (fun j ->
      match Report.Json.of_string (Report.Json.to_string j) with
      | Ok j' -> j' = j
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let json_pretty_roundtrip_qcheck =
  QCheck.Test.make ~name:"json: pretty printing parses back identically"
    ~count:200 json_arb (fun j ->
      match Report.Json.of_string (Report.Json.to_string ~pretty:true j) with
      | Ok j' -> j' = j
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let test_json_rejects_non_finite () =
  List.iter
    (fun f ->
      match Report.Json.to_string (Report.Json.Float f) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "serialized non-finite float as %s" s)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Report.Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "nan" ]

let test_json_accessors () =
  let j =
    Report.Json.Obj
      [
        ("n", Report.Json.Int 3);
        ("f", Report.Json.Float 2.5);
        ("s", Report.Json.String "x");
        ("l", Report.Json.List [ Report.Json.Bool true ]);
      ]
  in
  check_bool "member present" true (Report.Json.member "n" j <> None);
  check_bool "member absent" true (Report.Json.member "zz" j = None);
  check_bool "int coerces to float" true
    (Report.Json.member "n" j |> Option.get |> Report.Json.to_float = Some 3.0);
  check_bool "float does not coerce to int" true
    (Report.Json.member "f" j |> Option.get |> Report.Json.to_int = None);
  check_bool "to_list" true
    (Report.Json.member "l" j |> Option.get |> Report.Json.to_list
    = Some [ Report.Json.Bool true ])

(* ---------- Schema ---------- *)

(* A small but fully-populated report: two figures, multiple series,
   stage summaries, knobs, a non-gated figure. *)
let sample_report =
  let stages =
    [
      { Report.Schema.stage = "execute"; count = 512; p50_ms = 0.012; p95_ms = 0.030; p99_ms = 0.055 };
      { Report.Schema.stage = "replicate_durable"; count = 512; p50_ms = 1.5; p95_ms = 2.75; p99_ms = 4.0 };
    ]
  in
  Report.Schema.make_report ~mode:"quick"
    [
      {
        Report.Schema.fig = "fig10a";
        title = "Rolis vs Silo, TPC-C";
        x_label = "threads";
        gated = true;
        knobs = [ ("warehouses", "8"); ("batch", "50000") ];
        points =
          [
            {
              Report.Schema.series = "rolis";
              x = 16.0;
              metrics = [ ("tput", 1.23e6); ("p50_ms", 3.5); ("p95_ms", 9.25) ];
              stages;
            };
            {
              Report.Schema.series = "silo";
              x = 16.0;
              metrics = [ ("tput", 1.9e6) ];
              stages = [];
            };
          ];
      };
      {
        Report.Schema.fig = "micro";
        title = "wall clock";
        x_label = "n/a";
        gated = false;
        knobs = [];
        points =
          [
            {
              Report.Schema.series = "btree.find";
              x = 0.0;
              metrics = [ ("ns_per_op", 312.5) ];
              stages = [];
            };
          ];
      };
    ]

let test_schema_roundtrip () =
  match Report.Schema.of_string (Report.Schema.to_string sample_report) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok r ->
      check_bool "report survives encode/decode" true (r = sample_report);
      check_string "schema version stamped" "rolis-bench/1" r.Report.Schema.schema

let schema_metrics_qcheck =
  QCheck.Test.make ~name:"schema: arbitrary finite metrics round-trip"
    ~count:200
    QCheck.(
      list
        (pair (string_of_size (Gen.int_bound 10))
           (map (fun (m, e) -> Float.of_int m *. (10.0 ** Float.of_int e))
              (pair (int_range (-1_000_000) 1_000_000) (int_range (-9) 9)))))
    (fun metrics ->
      let r =
        Report.Schema.make_report ~mode:"full"
          [
            {
              Report.Schema.fig = "f";
              title = "t";
              x_label = "x";
              gated = true;
              knobs = [];
              points =
                [ { Report.Schema.series = "s"; x = 1.0; metrics; stages = [] } ];
            };
          ]
      in
      match Report.Schema.of_string (Report.Schema.to_string r) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

let test_schema_rejects_bad_version () =
  let s = Report.Schema.to_string sample_report in
  let doctored =
    replace_substring ~sub:"rolis-bench/1" ~by:"rolis-bench/999" s
  in
  match Report.Schema.of_string doctored with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown schema version"

let test_schema_rejects_garbage () =
  List.iter
    (fun s ->
      match Report.Schema.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ "{}"; "[]"; "{\"schema\":\"rolis-bench/1\"}"; "not json at all" ]

let test_schema_lookups () =
  let r = Option.get (Report.Schema.find_result sample_report ~fig:"fig10a") in
  let p = Option.get (Report.Schema.find_point r ~series:"rolis" ~x:16.0) in
  check_bool "metric present" true (List.assoc_opt "tput" p.Report.Schema.metrics = Some 1.23e6);
  check_bool "metric absent" true (List.assoc_opt "nope" p.Report.Schema.metrics = None);
  check_bool "missing series" true
    (Report.Schema.find_point r ~series:"calvin" ~x:16.0 = None);
  check_bool "missing figure" true
    (Report.Schema.find_result sample_report ~fig:"fig99" = None)

(* ---------- Diff ---------- *)

(* Rebuild a copy of [sample_report] with one metric of one point
   rewritten — the "doctored regression" the acceptance criteria call
   for. *)
let with_metric report ~fig ~series ~metric v =
  {
    report with
    Report.Schema.results =
      List.map
        (fun (r : Report.Schema.result) ->
          if r.Report.Schema.fig <> fig then r
          else
            {
              r with
              Report.Schema.points =
                List.map
                  (fun (p : Report.Schema.point) ->
                    if p.Report.Schema.series <> series then p
                    else
                      {
                        p with
                        Report.Schema.metrics =
                          List.map
                            (fun (k, x) -> if k = metric then (k, v) else (k, x))
                            p.Report.Schema.metrics;
                      })
                  r.Report.Schema.points;
            })
        report.Report.Schema.results;
  }

let test_diff_identical_ok () =
  let o =
    Report.Diff.compare_reports ~tolerance:0.15 ~baseline:sample_report
      ~current:sample_report
  in
  check_bool "identical reports pass" true (Report.Diff.ok o);
  check_int "no regressions" 0 (List.length (Report.Diff.regressions o));
  check_int "nothing missing" 0 (List.length o.Report.Diff.missing);
  (* tput x2, p50_ms, p95_ms, tput, and the two stage p95s — but never
     the ungated micro figure. *)
  check_bool "gated metrics compared" true (o.Report.Diff.verdicts <> []);
  List.iter
    (fun (v : Report.Diff.verdict) ->
      check_bool "micro excluded from gate" true (v.Report.Diff.fig <> "micro"))
    o.Report.Diff.verdicts

let test_diff_catches_tput_drop () =
  let current =
    with_metric sample_report ~fig:"fig10a" ~series:"rolis" ~metric:"tput"
      (1.23e6 *. 0.5)
  in
  let o =
    Report.Diff.compare_reports ~tolerance:0.15 ~baseline:sample_report ~current
  in
  check_bool "halved tput fails the gate" false (Report.Diff.ok o);
  match Report.Diff.regressions o with
  | [ v ] ->
      check_string "regressed metric" "tput" v.Report.Diff.metric;
      check_bool "delta ~ +50%" true (Float.abs (v.Report.Diff.delta -. 0.5) < 1e-9)
  | vs -> Alcotest.failf "expected 1 regression, got %d" (List.length vs)

let test_diff_catches_latency_rise () =
  let current =
    with_metric sample_report ~fig:"fig10a" ~series:"rolis" ~metric:"p95_ms" 20.0
  in
  let o =
    Report.Diff.compare_reports ~tolerance:0.15 ~baseline:sample_report ~current
  in
  check_bool "latency rise fails the gate" false (Report.Diff.ok o);
  check_bool "the p95_ms verdict regressed" true
    (List.exists
       (fun (v : Report.Diff.verdict) ->
         v.Report.Diff.metric = "p95_ms" && v.Report.Diff.regressed)
       o.Report.Diff.verdicts)

let test_diff_within_tolerance_ok () =
  (* 10% worse on a 15% gate: compared, flagged in delta, not a failure. *)
  let current =
    with_metric sample_report ~fig:"fig10a" ~series:"rolis" ~metric:"tput"
      (1.23e6 *. 0.9)
  in
  let o =
    Report.Diff.compare_reports ~tolerance:0.15 ~baseline:sample_report ~current
  in
  check_bool "10% drop under 15% tolerance passes" true (Report.Diff.ok o);
  (* The same drop under a 5% gate fails: tolerance is honoured. *)
  let o5 =
    Report.Diff.compare_reports ~tolerance:0.05 ~baseline:sample_report ~current
  in
  check_bool "10% drop over 5% tolerance fails" false (Report.Diff.ok o5)

let test_diff_improvement_ok () =
  let current =
    with_metric sample_report ~fig:"fig10a" ~series:"rolis" ~metric:"tput"
      (1.23e6 *. 2.0)
  in
  let o =
    Report.Diff.compare_reports ~tolerance:0.15 ~baseline:sample_report ~current
  in
  check_bool "improvement is not a regression" true (Report.Diff.ok o)

let test_diff_missing_figure_fails () =
  let current =
    {
      sample_report with
      Report.Schema.results =
        List.filter
          (fun (r : Report.Schema.result) -> r.Report.Schema.fig <> "fig10a")
          sample_report.Report.Schema.results;
    }
  in
  let o =
    Report.Diff.compare_reports ~tolerance:0.15 ~baseline:sample_report ~current
  in
  check_bool "missing figure fails the gate" false (Report.Diff.ok o);
  check_bool "missing list names the figure" true
    (List.exists (contains_substring ~sub:"fig10a") o.Report.Diff.missing)

let test_diff_ungated_drop_ignored () =
  let current =
    with_metric sample_report ~fig:"micro" ~series:"btree.find"
      ~metric:"ns_per_op" 1.0e9
  in
  let o =
    Report.Diff.compare_reports ~tolerance:0.15 ~baseline:sample_report ~current
  in
  check_bool "wall-clock figures never gate" true (Report.Diff.ok o)

(* A delta of exactly the tolerance is not a regression (the gate is
   strict-greater): tolerance 0.15 must accept a 15.000% drop and reject
   the first representable step past it. *)
let test_diff_tolerance_boundary () =
  let drop frac =
    with_metric sample_report ~fig:"fig10a" ~series:"rolis" ~metric:"tput"
      (1.23e6 *. (1.0 -. frac))
  in
  let run current =
    Report.Diff.compare_reports ~tolerance:0.15 ~baseline:sample_report ~current
  in
  let at = run (drop 0.15) in
  check_bool "drop = tolerance passes" true (Report.Diff.ok at);
  (let v =
     List.find
       (fun (v : Report.Diff.verdict) -> v.Report.Diff.metric = "tput")
       at.Report.Diff.verdicts
   in
   check_bool "boundary delta still reported" true
     (Float.abs (v.Report.Diff.delta -. 0.15) < 1e-9));
  let past = run (drop 0.1501) in
  check_bool "a hair past tolerance fails" false (Report.Diff.ok past)

(* A single datapoint (series, x) present in the baseline but absent
   from the run is a coverage regression even when the figure itself
   survives. *)
let test_diff_missing_point_fails () =
  let current =
    {
      sample_report with
      Report.Schema.results =
        List.map
          (fun (r : Report.Schema.result) ->
            if r.Report.Schema.fig <> "fig10a" then r
            else
              {
                r with
                Report.Schema.points =
                  List.filter
                    (fun (p : Report.Schema.point) ->
                      p.Report.Schema.series <> "silo")
                    r.Report.Schema.points;
              })
          sample_report.Report.Schema.results;
    }
  in
  let o =
    Report.Diff.compare_reports ~tolerance:0.15 ~baseline:sample_report ~current
  in
  check_bool "missing datapoint fails the gate" false (Report.Diff.ok o);
  check_bool "missing list names series and x" true
    (List.exists (contains_substring ~sub:"silo@x=16") o.Report.Diff.missing);
  (* The surviving series is still compared as usual. *)
  check_bool "other points still compared" true
    (List.exists
       (fun (v : Report.Diff.verdict) -> v.Report.Diff.series = "rolis")
       o.Report.Diff.verdicts)

(* "_words" allocation counters gate downward: growth is a regression,
   shrinkage an improvement. *)
let test_diff_words_lower_better () =
  let with_words v =
    {
      sample_report with
      Report.Schema.results =
        sample_report.Report.Schema.results
        @ [
            {
              Report.Schema.fig = "alloc";
              title = "words allocated";
              x_label = "workload";
              gated = true;
              knobs = [];
              points =
                [
                  {
                    Report.Schema.series = "tpcc";
                    x = 1.0;
                    metrics = [ ("exec_words", v) ];
                    stages = [];
                  };
                ];
            };
          ];
    }
  in
  let baseline = with_words 900.0 in
  let grown =
    Report.Diff.compare_reports ~tolerance:0.15 ~baseline
      ~current:(with_words 1200.0)
  in
  check_bool "allocation growth fails the gate" false (Report.Diff.ok grown);
  (match Report.Diff.regressions grown with
  | [ v ] -> check_string "regressed metric" "exec_words" v.Report.Diff.metric
  | vs -> Alcotest.failf "expected one regression, got %d" (List.length vs));
  let shrunk =
    Report.Diff.compare_reports ~tolerance:0.15 ~baseline
      ~current:(with_words 500.0)
  in
  check_bool "allocation drop passes" true (Report.Diff.ok shrunk)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "report"
    [
      ( "json",
        [
          qc json_roundtrip_qcheck;
          qc json_pretty_roundtrip_qcheck;
          Alcotest.test_case "rejects NaN/inf" `Quick test_json_rejects_non_finite;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "schema",
        [
          Alcotest.test_case "report round-trip" `Quick test_schema_roundtrip;
          qc schema_metrics_qcheck;
          Alcotest.test_case "rejects unknown version" `Quick
            test_schema_rejects_bad_version;
          Alcotest.test_case "rejects malformed input" `Quick
            test_schema_rejects_garbage;
          Alcotest.test_case "find_result/find_point/metric" `Quick
            test_schema_lookups;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical reports pass" `Quick test_diff_identical_ok;
          Alcotest.test_case "doctored tput drop fails" `Quick
            test_diff_catches_tput_drop;
          Alcotest.test_case "latency rise fails" `Quick
            test_diff_catches_latency_rise;
          Alcotest.test_case "tolerance honoured" `Quick
            test_diff_within_tolerance_ok;
          Alcotest.test_case "improvement passes" `Quick test_diff_improvement_ok;
          Alcotest.test_case "missing figure fails" `Quick
            test_diff_missing_figure_fails;
          Alcotest.test_case "ungated drop ignored" `Quick
            test_diff_ungated_drop_ignored;
          Alcotest.test_case "tolerance boundary exact" `Quick
            test_diff_tolerance_boundary;
          Alcotest.test_case "missing datapoint fails" `Quick
            test_diff_missing_point_fails;
          Alcotest.test_case "_words gates downward" `Quick
            test_diff_words_lower_better;
        ] );
    ]
