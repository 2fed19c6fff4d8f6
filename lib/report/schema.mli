(** Machine-readable benchmark results ([BENCH_rolis.json]).

    Every [bench/fig*.ml] experiment produces one or more {!result}
    records; the harness collects them into a {!report} written next to
    the human-readable transcript. [rolis-cli bench-diff] consumes two
    such files (see {!Diff}).

    Conventions:
    - [metrics] values are floats keyed by name. Keys ending in ["_ms"]
      are latencies (lower is better); the key ["tput"] is
      release-committed transactions per second (higher is better). Other
      keys are informational.
    - a {!point} is one datapoint of one series at one x position (e.g.
      series ["rolis"], x = 16 worker threads).
    - [gated = false] marks results that are not deterministic in virtual
      time (wall-clock micro-benchmarks) and are excluded from the CI
      regression gate. *)

type stage_summary = {
  stage : string;  (** {!Rolis.Trace.stage_name} of the pipeline stage *)
  count : int;  (** sampled spans in the window *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

type point = {
  series : string;
  x : float;
  metrics : (string * float) list;
  stages : stage_summary list;  (** empty when tracing is off / not a cluster run *)
}

type result = {
  fig : string;  (** experiment id, e.g. ["fig10a"] *)
  title : string;
  x_label : string;  (** meaning of [point.x], e.g. ["threads"] *)
  gated : bool;
  knobs : (string * string) list;  (** config knobs the run used *)
  points : point list;
}

type report = { schema : string; mode : string; results : result list }
(** [mode] is ["quick"] or ["full"]. *)

val make_report : mode:string -> result list -> report

val to_string : report -> string
(** Pretty-printed JSON. *)

val of_string : string -> (report, string) Stdlib.result
(** Structural validation: unknown fields are ignored, missing or
    ill-typed required fields are errors, and a schema other than
    ["rolis-bench/1"] (the one {!make_report} stamps) is rejected. *)

val find_result : report -> fig:string -> result option
val find_point : result -> series:string -> x:float -> point option
