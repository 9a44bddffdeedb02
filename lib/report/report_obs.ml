module Metrics = Broker_obs.Metrics

let kind_label (e : Metrics.entry) =
  let base =
    match e.value with
    | Metrics.Counter _ -> "counter"
    | Metrics.Gauge_max _ -> "gauge.max"
    | Metrics.Histogram _ -> "histogram"
  in
  if e.volatile then base ^ " (volatile)" else base

let scalar_cell (e : Metrics.entry) v =
  (* Deterministic values diff as exact integers; volatile ones reuse the
     Seconds volatility channel (0 decimals keeps the text rendering an
     integer) so Report_diff skips them. *)
  if e.volatile then Report.seconds ~decimals:0 (float_of_int v)
  else Report.int v

let histogram_total buckets = Array.fold_left ( + ) 0 buckets

let report snap =
  let rep = Report.create ~name:"obs_metrics" () in
  let s = Report.section rep "Observability - metrics snapshot" in
  let t =
    Report.table s ~key:"metrics"
      ~columns:[ Report.col "Metric"; Report.col "Kind"; Report.col "Value" ]
      ()
  in
  List.iter
    (fun (e : Metrics.entry) ->
      let value_cell =
        match e.value with
        | Metrics.Counter v | Metrics.Gauge_max v -> scalar_cell e v
        | Metrics.Histogram buckets -> scalar_cell e (histogram_total buckets)
      in
      Report.row t [ Report.str e.name; Report.str (kind_label e); value_cell ])
    snap;
  (* Non-volatile histograms additionally export their full (log-bucketed)
     shape as a diffable series: x = bucket index, y = observations. *)
  List.iter
    (fun (e : Metrics.entry) ->
      match e.value with
      | Metrics.Histogram buckets when not e.volatile ->
          let points = ref [] in
          Array.iteri
            (fun i c ->
              if c > 0 then
                points := (float_of_int i, float_of_int c) :: !points)
            buckets;
          Report.series s
            ~key:("hist." ^ e.name)
            ~x:"bucket" ~y:"count"
            (Array.of_list (List.rev !points))
      | _ -> ())
    snap;
  Report.note s
    "Counters/gauges above are deterministic for a fixed seed and scale \
     unless marked volatile; volatile entries (wall-clock, GC words, \
     scheduling) are excluded from `report diff`.\n";
  rep

(* --- brokerstat timelines --------------------------------------------- *)

module Ts = Broker_obs.Timeseries
module Sketch = Broker_obs.Sketch

let quantile_points quantile pts =
  let out = ref [] in
  Array.iter
    (fun (p : Ts.point) ->
      match p.Ts.sketch with
      | Some sk when p.Ts.count > 0 ->
          out := (p.Ts.t_start, float_of_int (Sketch.quantile sk quantile)) :: !out
      | _ -> ())
    pts;
  Array.of_list (List.rev !out)

(* Every registered series that holds data, as one section: a [Series |
   Window | Windows | Count | Sum] table, one [ts.<series>] series of
   per-window [(t, sum)] points each, and [ts.<series>.p50]/[.p99]
   timelines for windows carrying a latency sketch (values in
   [Timeseries.to_fp] micro-units of sim-time). Everything is keyed on
   sim-time, hence deterministic and gated by [report diff]; wall-clock
   stays in the volatile trace/metrics channels. *)
let timeline_report () =
  let rep = Report.create ~name:"obs_timeline" () in
  let s = Report.section rep "Observability - sim-time timelines" in
  let with_data =
    List.filter (fun ts -> Array.length (Ts.points ts) > 0) (Ts.all ())
  in
  let t =
    Report.table s ~key:"series"
      ~columns:
        [
          Report.col "Series";
          Report.col "Window";
          Report.col "Windows";
          Report.col "Count";
          Report.col "Sum";
        ]
      ()
  in
  List.iter
    (fun ts ->
      let pts = Ts.points ts in
      let count = Array.fold_left (fun a (p : Ts.point) -> a + p.Ts.count) 0 pts in
      let sum = Array.fold_left (fun a (p : Ts.point) -> a + p.Ts.sum) 0 pts in
      Report.row t
        [
          Report.str (Ts.name ts);
          Report.float ~decimals:3 (Ts.width ts);
          Report.int (Array.length pts);
          Report.int count;
          Report.int sum;
        ])
    with_data;
  (* Every series exports its per-window sums; windows that carry a
     sketch additionally export p50/p99 timelines. All values are keyed
     on sim-time — deterministic for a fixed seed/scale, so two runs
     diff clean through `report diff` (wall-clock never enters here;
     the Perfetto C events carry the volatile view). Sketched series
     are in Timeseries fixed-point micro-units of sim-time. *)
  List.iter
    (fun ts ->
      let pts = Ts.points ts in
      Report.series s ~key:("ts." ^ Ts.name ts) ~x:"t" ~y:"sum" (Ts.values ts);
      let p50 = quantile_points 0.5 pts in
      if Array.length p50 > 0 then begin
        Report.series s ~key:("ts." ^ Ts.name ts ^ ".p50") ~x:"t" ~y:"p50" p50;
        Report.series s
          ~key:("ts." ^ Ts.name ts ^ ".p99")
          ~x:"t" ~y:"p99" (quantile_points 0.99 pts)
      end)
    with_data;
  Report.note s
    "Windowed series keyed on deterministic sim-time (brokerstat). \
     Latency sketches are recorded in fixed-point micro-units of \
     sim-time; divide by 1e6 for sim-time units.\n";
  rep

let timeline_to_json () = Report_json.to_string (timeline_report ())
let to_text snap = Report_text.render (report snap)
let to_json snap = Report_json.to_string (report snap)
