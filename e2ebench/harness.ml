(* Measurement helpers shared by every workload: timed calls into a
   library layer (inside a [bench.<layer>] span when the trace ring is
   armed), order statistics, deterministic counter reads, and the
   per-layer self-time rollup of a recorded trace. *)

module Obs = Broker_obs
module Json = Broker_report.Report_json

let seconds_since t0 = float_of_int (Obs.Clock.now_ns () - t0) *. 1e-9

(* [call layer f] is [f ()] together with its wall time in seconds. The
   span is named after the layer, so the rollup can attribute the
   benchmark's calls without any probe inside the library. *)
let call layer f =
  let tr = Obs.Trace.enter () in
  let t0 = Obs.Clock.now_ns () in
  let x = f () in
  let dt = seconds_since t0 in
  if Obs.Trace.armed () then Obs.Trace.leave_named ("bench." ^ layer) tr;
  (x, dt)

let median xs = Broker_util.Stats.median xs

let counter snapshot name =
  match Obs.Metrics.find snapshot name with
  | Some { Obs.Metrics.value = Obs.Metrics.Counter v | Obs.Metrics.Gauge_max v; _ }
    ->
      v
  | Some { Obs.Metrics.value = Obs.Metrics.Histogram _; _ } | None -> 0

(* --- Self-time rollup ----------------------------------------------- *)

(* The layer a span belongs to: its name with the benchmark's [bench.]
   prefix dropped, up to the first dot ([msbfs.sweep.top_down] ->
   [msbfs], [bench.simulator] and [simulator.run] -> [simulator]). *)
let layer_of_span name =
  let name =
    if String.starts_with ~prefix:"bench." name then
      String.sub name 6 (String.length name - 6)
    else name
  in
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

type span = { name : string; tid : int; ts : float; dur : float }

let spans_of_chrome json =
  let field k fields = List.assoc_opt k fields in
  match Json.json_of_string json with
  | Error e -> failwith ("trace: " ^ e)
  | Ok (Json.Obj top) -> (
      match field "traceEvents" top with
      | Some (Json.List evs) ->
          List.filter_map
            (function
              | Json.Obj f -> (
                  match
                    ( field "ph" f,
                      field "name" f,
                      field "tid" f,
                      field "ts" f,
                      field "dur" f )
                  with
                  | ( Some (Json.Str "X"),
                      Some (Json.Str name),
                      Some (Json.Num tid),
                      Some (Json.Num ts),
                      Some (Json.Num dur) ) ->
                      Some { name; tid = int_of_float tid; ts; dur }
                  | _ -> None)
              | _ -> None)
            evs
      | _ -> failwith "trace: no traceEvents array")
  | Ok _ -> failwith "trace: not a JSON object"

type rollup = {
  self_us : (string * float) list;
      (** per layer, main domain only, microseconds; sums to [wall_us] *)
  wall_us : float;  (** duration of the root span *)
}

(* Self time of a span = its duration minus the part its direct children
   on the same domain cover. Spans of one domain nest (a domain runs one
   call at a time), so a stack walk in start order finds each parent.
   Only the domain that recorded [root] is summed: worker domains run
   concurrently with it, and their time is already inside the main
   domain's span that waited for them. *)
let rollup ~root spans =
  let main =
    match List.find_opt (fun s -> String.equal s.name root) spans with
    | Some s -> s
    | None -> failwith ("trace: no " ^ root ^ " span")
  in
  let mine =
    Array.of_list (List.filter (fun s -> s.tid = main.tid) spans)
  in
  Array.sort
    (fun a b ->
      let c = Float.compare a.ts b.ts in
      if c <> 0 then c else Float.compare b.dur a.dur)
    mine;
  let self = Array.map (fun s -> s.dur) mine in
  let stack = ref [] in
  Array.iteri
    (fun i s ->
      let rec pop = function
        | j :: rest when mine.(j).ts +. mine.(j).dur <= s.ts -> pop rest
        | st -> st
      in
      stack := pop !stack;
      (match !stack with
      | j :: _ -> self.(j) <- self.(j) -. s.dur
      | [] -> ());
      stack := i :: !stack)
    mine;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      if s.ts >= main.ts && s.ts < main.ts +. main.dur then begin
        let l = layer_of_span s.name in
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl l) in
        Hashtbl.replace tbl l (prev +. self.(i))
      end)
    mine;
  {
    self_us =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []);
    wall_us = main.dur;
  }
