type stage_summary = {
  stage : string;
  count : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

type point = {
  series : string;
  x : float;
  metrics : (string * float) list;
  stages : stage_summary list;
}

type result = {
  fig : string;
  title : string;
  x_label : string;
  gated : bool;
  knobs : (string * string) list;
  points : point list;
}

type report = { schema : string; mode : string; results : result list }

let schema_version = "rolis-bench/1"
let make_report ~mode results = { schema = schema_version; mode; results }

(* ---- encoding ---- *)

let encode_stage s =
  Json.Obj
    [
      ("stage", Json.String s.stage);
      ("count", Json.Int s.count);
      ("p50_ms", Json.Float s.p50_ms);
      ("p95_ms", Json.Float s.p95_ms);
      ("p99_ms", Json.Float s.p99_ms);
    ]

let encode_point p =
  Json.Obj
    [
      ("series", Json.String p.series);
      ("x", Json.Float p.x);
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) p.metrics));
      ("stages", Json.List (List.map encode_stage p.stages));
    ]

let encode_result r =
  Json.Obj
    [
      ("fig", Json.String r.fig);
      ("title", Json.String r.title);
      ("x_label", Json.String r.x_label);
      ("gated", Json.Bool r.gated);
      ("knobs", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) r.knobs));
      ("points", Json.List (List.map encode_point r.points));
    ]

let encode r =
  Json.Obj
    [
      ("schema", Json.String r.schema);
      ("mode", Json.String r.mode);
      ("results", Json.List (List.map encode_result r.results));
    ]

(* ---- decoding ---- *)

let ( let* ) r f = Result.bind r f

let field ctx name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or ill-typed field %S" ctx name)

let map_result f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok v -> go (v :: acc) rest | Error _ as e -> e)
  in
  go [] xs

let decode_stage j =
  let ctx = "stage" in
  let* stage = field ctx "stage" Json.to_string_opt j in
  let* count = field ctx "count" Json.to_int j in
  let* p50_ms = field ctx "p50_ms" Json.to_float j in
  let* p95_ms = field ctx "p95_ms" Json.to_float j in
  let* p99_ms = field ctx "p99_ms" Json.to_float j in
  Ok { stage; count; p50_ms; p95_ms; p99_ms }

let decode_assoc name conv j =
  match Json.member name j with
  | Some (Json.Obj kvs) ->
      map_result
        (fun (k, v) ->
          match conv v with
          | Some v -> Ok (k, v)
          | None -> Error (Printf.sprintf "ill-typed entry %S in %S" k name))
        kvs
  | Some _ -> Error (Printf.sprintf "field %S must be an object" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let decode_point j =
  let ctx = "point" in
  let* series = field ctx "series" Json.to_string_opt j in
  let* x = field ctx "x" Json.to_float j in
  let* metrics = decode_assoc "metrics" Json.to_float j in
  let* stages =
    match Json.member "stages" j with
    | Some (Json.List xs) -> map_result decode_stage xs
    | Some _ -> Error "field \"stages\" must be a list"
    | None -> Ok []
  in
  Ok { series; x; metrics; stages }

let decode_result j =
  let ctx = "result" in
  let* fig = field ctx "fig" Json.to_string_opt j in
  let* title = field ctx "title" Json.to_string_opt j in
  let* x_label = field ctx "x_label" Json.to_string_opt j in
  let* gated = field ctx "gated" Json.to_bool j in
  let* knobs = decode_assoc "knobs" Json.to_string_opt j in
  let* points =
    match Json.member "points" j with
    | Some (Json.List xs) -> map_result decode_point xs
    | _ -> Error (Printf.sprintf "%s %s: missing list field \"points\"" ctx fig)
  in
  Ok { fig; title; x_label; gated; knobs; points }

let decode j =
  let* schema = field "report" "schema" Json.to_string_opt j in
  if schema <> schema_version then
    Error (Printf.sprintf "unsupported schema %S (want %S)" schema schema_version)
  else
    let* mode = field "report" "mode" Json.to_string_opt j in
    let* results =
      match Json.member "results" j with
      | Some (Json.List xs) -> map_result decode_result xs
      | _ -> Error "report: missing list field \"results\""
    in
    Ok { schema; mode; results }

let to_string r = Json.to_string ~pretty:true (encode r) ^ "\n"

let of_string s =
  let* j = Json.of_string s in
  decode j

let find_result r ~fig = List.find_opt (fun res -> res.fig = fig) r.results

let find_point res ~series ~x =
  List.find_opt (fun p -> p.series = series && Float.abs (p.x -. x) < 1e-9) res.points

