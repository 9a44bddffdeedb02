(* End-to-end benchmark: six workloads from paper regeneration to
   full-scale simulation, with per-layer rollups.

   Usage (from the repository root; e2ebench/run.sh builds and runs it):
     e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--domains D] [--report FILE] [--trace-file FILE]
         one workload in this process. --trace 0 prints the end-to-end
         metrics; --trace 1 runs half the time with the trace ring armed
         and half untraced, then the layer probes, and prints the
         per-layer metrics. The last stdout line is one JSON object
         {"correct", "attempted", "failed", "metrics"}.
     e2e.exe --all [--seed N] [--seconds S] [--domains D] [--report FILE]
         every workload, each in its own child process, untraced then
         traced, merged into one report.
     e2e.exe --compare A.json B.json
         apply the end-to-end bounds of BENCHMARK.json to B against A;
         exits 1 on any regression beyond its bound.
     e2e.exe --summarize OUT.json RUN.json...
         per-workload median/q1/q3 of each end-to-end metric over runs
         (the committed baseline), with its spread against the bound.
     e2e.exe --smoke
         every workload once at tiny size; checks pass and the emitted
         metric names equal the ones BENCHMARK.json declares.
   --benchmark FILE names BENCHMARK.json (default: ./BENCHMARK.json). *)

module Obs = Broker_obs
module Report = Broker_report.Report
module Report_json = Broker_report.Report_json
module Report_diff = Broker_report.Report_diff
module Json = Report_json
module W = Workloads

let usage_error msg =
  prerr_endline ("e2e: Invalid_argument: " ^ msg);
  exit 2

(* --- Declared metrics (BENCHMARK.json) ------------------------------ *)

type declared = {
  workloads : string list;
  e2e : (string * string * string * float) list;  (** name, unit, better, bound *)
  layers : (string * string * string) list;  (** name, unit, better *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_declared path =
  let str = function Json.Str s -> s | _ -> failwith (path ^ ": expected a string") in
  let num = function Json.Num x -> x | _ -> failwith (path ^ ": expected a number") in
  let entries key fields =
    match List.assoc_opt key fields with
    | Some (Json.List l) ->
        List.map (function Json.Obj f -> f | _ -> failwith (path ^ ": bad " ^ key)) l
    | _ -> failwith (path ^ ": missing " ^ key)
  in
  match Json.json_of_string (read_file path) with
  | Ok (Json.Obj top) ->
      let get f k =
        match List.assoc_opt k f with Some v -> v | None -> failwith (path ^ ": missing " ^ k)
      in
      {
        workloads = List.map (fun f -> str (get f "name")) (entries "workloads" top);
        e2e =
          List.map
            (fun f ->
              (str (get f "name"), str (get f "unit"), str (get f "better"), num (get f "bound")))
            (entries "end_to_end" top);
        layers =
          List.map
            (fun f -> (str (get f "name"), str (get f "unit"), str (get f "better")))
            (entries "per_layer" top);
      }
  | Ok _ -> failwith (path ^ ": not a JSON object")
  | Error e -> failwith (path ^ ": " ^ e)

(* --- Per-layer metric set ------------------------------------------- *)

(* Layers of the self-time rollup with a declared share. "harness" is
   the benchmark's own time between calls (its checks and loop). The
   report's self table lists every layer the trace holds, these and any
   other. *)
let rollup_layers =
  [
    "harness"; "experiment"; "maxsg"; "celf"; "greedy"; "connectivity";
    "projected"; "msbfs"; "bfs"; "parallel"; "directional"; "simulator";
    "incremental"; "delta";
  ]

(* Deterministic Broker_obs counters, read after the first traced rep. *)
let counters =
  [
    "msbfs.sweeps"; "msbfs.frontier_bits"; "msbfs.active_words";
    "projected.arcs_kept"; "bfs.runs"; "bfs.settled"; "maxsg.lazy_hits";
    "maxsg.lazy_misses"; "celf.lazy_hits"; "celf.lazy_misses";
    "greedy.gain_evals"; "sim.events.depart"; "sim.events.fault";
    "sim.events.retry"; "sim.events.topo_update"; "sim.queue.max_depth";
    "sim.cache.hits"; "sim.cache.served_degraded"; "sim.cache.repaired_lazily";
    "sim.cache.recomputed"; "sim.cache.invalidated_keys";
    "incr.batches.reevaluated"; "incr.batches.skipped"; "incr.sources.affected";
    "topo.delta.compactions"; "experiments.runs"; "parallel.invocations";
  ]

(* --- One workload run ------------------------------------------------ *)

type phase = {
  reps : W.rep list;
  minor : float list;  (** minor-heap words per rep, main domain *)
  major : float list;
}

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : float array;  (** what [value] summarizes, for the report *)
  deterministic : bool;  (** replays exactly from the seed *)
}

type result = {
  workload : W.t;
  reps : int;
  e2e : metric list;  (** from the untraced reps only *)
  layers : metric list;  (** empty unless traced *)
  self_us : (string * float) list;
  detail : (string * float * string) list;
  outputs : Report.t list;
  attempted : int;
  failed : int;
  failures : string list;
}

let rep_total (r : W.rep) = Array.fold_left ( +. ) 0.0 r.W.parts

(* The time of a rep as it runs without interference: each part's best
   over the reps, summed. Every rep repeats the same work from a
   collected heap (see [run_phase]) on one domain, so the reps of a run
   do nearly the same collection work: over ten runs of each workload,
   the minor collections of a rep (32 to 1,745, by workload) varied by
   at most 7 within a run, the major ones (0 to 551) by at most 8. The
   exception is the registry's rep 0, which grows the heap and collects
   more (2,442 minor and 1,523 major against 1,740 and 545); the best of
   each part leaves that warm-up out. The rest of the spread of a part
   over the reps of a run is outside noise. On the shared 2-core host
   this benchmark was sized on, that noise comes in phases that slow
   everything by 40-60% for seconds to minutes; a median of rep times
   flips between the two modes from run to run, the best of each part
   only moves when a slow phase covers the whole run. *)
let best_total (p : phase) =
  let timed = List.filter (fun (r : W.rep) -> Array.length r.W.parts > 0) p.reps in
  match timed with
  | [] -> failwith "every rep raised"
  | r0 :: rest ->
      let best = Array.copy r0.W.parts in
      List.iter
        (fun (r : W.rep) ->
          if Array.length r.W.parts <> Array.length best then failwith "reps made different calls";
          Array.iteri (fun i x -> if x < best.(i) then best.(i) <- x) r.W.parts)
        rest;
      Array.fold_left ( +. ) 0.0 best

(* Reps from index [first] until [seconds] of wall time have passed and
   at least [min_reps] ran. An exception fails that rep, not the run.
   Every rep starts from a collected heap, untimed, so no rep pays for
   collecting what an earlier one left. *)
let run_phase (inst : W.instance) ~first ~seconds ~min_reps =
  let t0 = Obs.Clock.now_ns () in
  let rec go i acc =
    if i - first >= min_reps && Harness.seconds_since t0 >= seconds then
      let reps, minor, major =
        List.fold_left (fun (r, mi, ma) (x, a, b) -> (x :: r, a :: mi, b :: ma)) ([], [], []) acc
      in
      { reps; minor; major }
    else begin
      Gc.full_major ();
      let g0 = Gc.quick_stat () in
      let r =
        try inst.W.rep i with e -> { W.parts = [||]; failures = [ Printexc.to_string e ] }
      in
      let g1 = Gc.quick_stat () in
      go (i + 1)
        ((r, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_words -. g0.Gc.major_words)
        :: acc)
    end
  in
  go first []

let median_list l = match l with [] -> 0.0 | l -> Harness.median (Array.of_list l)

let m ?(deterministic = false) ?samples name value unit_ =
  let samples = Option.value ~default:[| value |] samples in
  { name; value; unit_; samples; deterministic }

let e2e_metrics (inst : W.instance) setup (p : phase) =
  let ops = float_of_int inst.W.ops_per_rep in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    m "ops_per_s" (ops /. best_total p) "1/s"
      ~samples:
        (Array.of_list
           (List.filter_map
              (fun (r : W.rep) ->
                if Array.length r.W.parts = 0 then None else Some (ops /. rep_total r))
              p.reps));
    m "top_heap_mb" (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.0) "MB";
    m "setup_s" (Harness.median setup) "s" ~samples:setup;
  ]

let trace_capacity = 1 lsl 20

(* The traced half: probes on, ring armed, everything under one root
   span so the rollup can attribute the whole interval. *)
let traced_phase (inst : W.instance) ~first ~seconds ~trace_file =
  Obs.Control.set_enabled true;
  Obs.Metrics.reset ();
  Obs.Trace.arm ~capacity:trace_capacity ();
  let root = Obs.Trace.enter () in
  let t0 = Obs.Clock.now_ns () in
  let p1 = run_phase inst ~first ~seconds:0.0 ~min_reps:1 in
  let snap = Obs.Metrics.snapshot () in
  let rest =
    run_phase inst ~first:(first + 1) ~seconds:(seconds -. Harness.seconds_since t0) ~min_reps:0
  in
  Obs.Trace.leave_named "bench.harness" root;
  let dropped = Obs.Trace.dropped () in
  let spans = Harness.spans_of_chrome (Obs.Trace.to_chrome_json ()) in
  (match trace_file with
  | Some path -> ignore (Obs.Trace.write ~path)
  | None -> ());
  Obs.Trace.disarm ();
  Obs.Control.set_enabled false;
  let phase =
    { reps = p1.reps @ rest.reps; minor = p1.minor @ rest.minor; major = p1.major @ rest.major }
  in
  (phase, snap, dropped, Harness.rollup ~root:"bench.harness" spans)

let layer_metrics ~seed ~scale (inst : W.instance) ~untraced ~traced ~snap
    (roll : Harness.rollup) =
  let unknown =
    List.filter (fun c -> Option.is_none (Obs.Metrics.find snap c)) counters
  in
  if unknown <> [] then failwith ("unregistered counters: " ^ String.concat ", " unknown);
  let c name = Harness.counter snap name in
  let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  let self l = Option.value ~default:0.0 (List.assoc_opt l roll.Harness.self_us) in
  let share us = 100.0 *. us /. roll.Harness.wall_us in
  let overhead = 100.0 *. ((best_total traced /. best_total untraced) -. 1.0) in
  List.concat
    [
      List.map (fun (k, v, u) -> m k v u) (W.probes ~seed ~scale inst);
      List.map (fun l -> m ("self." ^ l ^ "_pct") (share (self l)) "%") rollup_layers;
      [
        m "trace_overhead_pct" overhead "%";
        m "gc.minor_mwords_per_rep" (median_list untraced.minor /. 1e6) "Mwords";
        m "gc.major_mwords_per_rep" (median_list untraced.major /. 1e6) "Mwords";
      ];
      List.map (fun k -> m ~deterministic:true k (float_of_int (c k)) "count") counters;
      [
        m ~deterministic:true "cache.hit_ratio"
          (ratio (c "sim.cache.hits")
             (c "sim.cache.served_degraded" + c "sim.cache.repaired_lazily"
             + c "sim.cache.recomputed"))
          "ratio";
        m ~deterministic:true "incr.batch_skip_ratio"
          (ratio (c "incr.batches.skipped") (c "incr.batches.reevaluated"))
          "ratio";
      ];
    ]

(* Set-ups timed per run. Their spread within a run is small next to the
   host's run-to-run speed changes, which more samples do not remove: on
   the 2-core host this was sized on, the spread over ten runs of the
   median of 3, 5, 7 and 9 full-scale set-ups was 14-22%, 9-26%, 7-29%
   and 8-25%, by workload. Seven keep a full-scale run near 18 s. *)
let setup_samples = function W.Full -> 7 | W.Smoke -> 1

(* An untraced run measures for [seconds] of wall time and at least three
   reps: every run checks that repeated work reproduces its outputs, and
   the registry's 7 s passes get three samples per experiment. A traced
   run spends the first half traced — starting at rep 0, so its counters
   replay exactly from the seed — and the second half untraced; the
   end-to-end metrics always come from untraced reps. The timed set-ups
   run first, back to back, each from a collected heap with no earlier
   instance live; the workload runs on the last. *)
let run ~size ~seed ~seconds ~traced ?trace_file (w : W.t) =
  let last = ref None in
  let setup =
    Array.init (setup_samples size) (fun _ ->
        last := None;
        Gc.full_major ();
        let inst, dt = Harness.call "setup" (fun () -> w.W.setup ~size ~seed) in
        last := Some inst;
        dt)
  in
  let inst = Option.get !last in
  let traced_part =
    if traced then Some (traced_phase inst ~first:0 ~seconds:(seconds /. 2.0) ~trace_file)
    else None
  in
  let b_reps = match traced_part with Some (b, _, _, _) -> b.reps | None -> [] in
  let a =
    run_phase inst ~first:(List.length b_reps)
      ~seconds:(if traced then seconds /. 2.0 else seconds)
      ~min_reps:(if traced then 1 else 3)
  in
  let e2e = e2e_metrics inst setup a in
  let layers, self_us, trace_failures =
    match traced_part with
    | None -> ([], [], [])
    | Some (b, snap, dropped, roll) ->
        let covered =
          List.fold_left (fun acc (_, us) -> acc +. us) 0.0 roll.Harness.self_us
          /. roll.Harness.wall_us
        in
        ( layer_metrics ~seed ~scale:(w.W.scale size) inst ~untraced:a ~traced:b ~snap roll,
          roll.Harness.self_us,
          (if Float.abs (covered -. 1.0) <= 0.1 then []
           else
             [ Printf.sprintf "layer self times cover %.1f%% of the traced wall time"
                 (100.0 *. covered) ])
          @ if dropped = 0 then [] else [ Printf.sprintf "trace ring dropped %d events" dropped ] )
  in
  let finish = (try inst.W.finish () with e -> [ Printexc.to_string e ]) @ trace_failures in
  let reps = b_reps @ a.reps in
  let bad = List.length (List.filter (fun (r : W.rep) -> r.W.failures <> []) reps) in
  let attempted = List.length reps * inst.W.ops_per_rep in
  {
    workload = w;
    reps = List.length reps;
    e2e;
    layers;
    self_us;
    detail = inst.W.detail ();
    outputs = inst.W.outputs ();
    attempted;
    failed = min attempted ((bad + if finish = [] then 0 else 1) * inst.W.ops_per_rep);
    failures = List.concat_map (fun (r : W.rep) -> r.W.failures) reps @ finish;
  }

(* --- Reports ---------------------------------------------------------- *)

(* Size and digest of a report's non-volatile content: equal digests mean
   the two runs produced the same outputs. *)
let digest r =
  let flat = Report_diff.flatten r in
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, e) ->
      Buffer.add_string b k;
      Buffer.add_char b '=';
      (match e with
      | Report_diff.Num x -> Buffer.add_string b (Printf.sprintf "%h" x)
      | Report_diff.Text s -> Buffer.add_string b s);
      Buffer.add_char b '\n')
    flat;
  (List.length flat, Digest.to_hex (Digest.string (Buffer.contents b)))

let nproc = Domain.recommended_domain_count ()

let run_meta ~seed ~domains ~seconds =
  [
    ("seed", float_of_int seed);
    ("domains", float_of_int domains);
    ("nproc", float_of_int nproc);
    ("seconds", seconds);
  ]

let vol ?(decimals = 4) x = Report.seconds ~decimals x

(* Timings are volatile (never diffed); counters, check outcomes and
   output digests are not, so [brokerctl report diff] on two runs of one
   seed proves they did identical work. *)
let add_result rep ~traced (r : result) =
  let w = r.workload.W.name in
  let tag = w ^ if traced then ".traced" else ".untraced" in
  let s =
    Report.section rep (Printf.sprintf "%s (%s)" w (if traced then "traced" else "untraced"))
  in
  let key k = tag ^ "." ^ k in
  let col = Report.col in
  if not traced then begin
    let t =
      Report.table s ~key:(key "e2e")
        ~columns:
          [ col "Metric"; col "Unit"; col "Value"; col "Median"; col "Q1"; col "Q3"; col "N" ]
        ()
    in
    List.iter
      (fun x ->
        let q p = Broker_util.Stats.quantile x.samples p in
        Report.row t
          [
            Report.str x.name; Report.str x.unit_; vol x.value; vol (q 0.5); vol (q 0.25);
            vol (q 0.75); vol ~decimals:0 (float_of_int (Array.length x.samples));
          ];
        Report.metric s ~key:("e2e." ^ w ^ "." ^ x.name) ~unit:x.unit_ ~volatile:true x.value)
      r.e2e
  end
  else begin
    let t =
      Report.table s ~key:(key "layers") ~columns:[ col "Metric"; col "Unit"; col "Value" ] ()
    in
    List.iter
      (fun x ->
        Report.row t
          [
            Report.str x.name;
            Report.str x.unit_;
            (if not x.deterministic then vol x.value
             else if Float.is_integer x.value then Report.int (int_of_float x.value)
             else Report.float ~decimals:6 x.value);
          ];
        Report.metric s ~key:("layer." ^ w ^ "." ^ x.name) ~unit:x.unit_
          ~volatile:(not x.deterministic) x.value)
      r.layers;
    let t =
      Report.table s ~key:(key "self")
        ~columns:[ col "Layer"; col ~unit:"ms" "Self time"; col ~unit:"%" "Share" ]
        ()
    in
    let wall = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 r.self_us in
    List.iter
      (fun (l, us) ->
        Report.row t [ Report.str l; vol (us /. 1e3); vol (100.0 *. us /. wall) ])
      r.self_us
  end;
  (match r.detail with
  | [] -> ()
  | detail ->
      let t =
        Report.table s ~key:(key "detail") ~columns:[ col "Name"; col "Value"; col "Unit" ] ()
      in
      List.iter (fun (n, v, u) -> Report.row t [ Report.str n; vol v; Report.str u ]) detail);
  let t = Report.table s ~key:(key "checks") ~columns:[ col "Check"; col "Result" ] () in
  (match r.failures with
  | [] -> Report.row t [ Report.str "all checks"; Report.str "ok" ]
  | fs -> List.iter (fun f -> Report.row t [ Report.str f; Report.str "FAIL" ]) fs);
  Report.metric s ~key:(key "reps") ~volatile:true (float_of_int r.reps);
  Report.metric s ~key:(key "attempted") ~volatile:true (float_of_int r.attempted);
  Report.metric s ~key:(key "failed") ~volatile:true (float_of_int r.failed);
  let t =
    Report.table s ~key:(key "outputs")
      ~columns:[ col "Output"; col "Entries"; col "Digest" ]
      ()
  in
  List.iter
    (fun o ->
      let entries, hex = digest o in
      Report.row t [ Report.str (Report.name o); Report.int entries; Report.str hex ])
    r.outputs

let write_report path r =
  Out_channel.with_open_bin path (fun oc -> output_string oc (Report_json.to_string r))

let load_report path =
  match Report_json.of_string (read_file path) with
  | Ok r -> r
  | Error e -> failwith (path ^ ": " ^ e)

(* Append every section of [src] to [dst]. *)
let copy_into dst src =
  List.iter
    (fun sec ->
      let s = Report.section dst (Report.section_title sec) in
      List.iter
        (function
          | Report.Table t ->
              let t' =
                Report.table s ~key:(Report.table_key t) ~columns:(Report.columns t) ()
              in
              List.iter
                (function Report.Row cells -> Report.row t' cells | Report.Rule -> Report.rule t')
                (Report.rows t)
          | Report.Note n -> Report.note s n
          | Report.Metric x -> (
              match x.Report.display with
              | Some d ->
                  Report.metricf s ~key:x.Report.mkey ?unit:x.Report.munit
                    ~volatile:x.Report.mvolatile x.Report.value "%s" d
              | None ->
                  Report.metric s ~key:x.Report.mkey ?unit:x.Report.munit
                    ~volatile:x.Report.mvolatile x.Report.value)
          | Report.Series x ->
              Report.series s ~key:x.Report.skey ~x:x.Report.x_label ~y:x.Report.y_label
                x.Report.points)
        (Report.items sec))
    (Report.sections src)

(* --- Output ------------------------------------------------------------ *)

let print_result ~traced (r : result) =
  let w = r.workload in
  Printf.printf "%s: %d reps, %d %ss attempted, %d failed\n" w.W.name r.reps r.attempted
    w.W.op r.failed;
  List.iter
    (fun x -> Printf.printf "  %-30s %16.6f %s\n" x.name x.value x.unit_)
    (if traced then r.layers else r.e2e);
  List.iter (fun (n, v, u) -> Printf.printf "  %-30s %16.6f %s (detail)\n" n v u) r.detail;
  List.iter (fun f -> Printf.printf "  FAIL %s\n" f) r.failures

(* The result line: the last line of stdout, one JSON object. *)
let print_json_line ~correct ~attempted ~failed metrics =
  let num x =
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.17g" x
  in
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let run_one ~seed ~seconds ~traced ~domains ~report ~trace_file (w : W.t) =
  let r =
    try run ~size:W.Full ~seed ~seconds ~traced ?trace_file w
    with e ->
      Printf.eprintf "e2e: %s: %s\n%!" w.W.name (Printexc.to_string e);
      exit 1
  in
  let metrics = if traced then r.layers else r.e2e in
  let finite = List.filter (fun x -> not (Float.is_finite x.value)) metrics in
  let failures = r.failures @ List.map (fun x -> x.name ^ " is not finite") finite in
  let r = { r with failures } in
  print_result ~traced r;
  (match report with
  | Some path ->
      let rep = Report.create ~name:"e2e" ~meta:(run_meta ~seed ~domains ~seconds) () in
      add_result rep ~traced r;
      write_report path rep
  | None -> ());
  let correct = r.failures = [] in
  print_json_line ~correct ~attempted:r.attempted ~failed:r.failed
    (List.map (fun x -> if Float.is_finite x.value then x else { x with value = 0.0 }) metrics);
  if not correct then exit 1

(* Every workload in its own child process, untraced then traced, one
   after another; the children's reports merge into one. *)
let run_all ~seed ~seconds ~domains ~report =
  let exe = Sys.executable_name in
  let merged = Report.create ~name:"e2e" ~meta:(run_meta ~seed ~domains ~seconds) () in
  let ok = ref true in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun trace ->
          let part = Option.map (fun p -> Printf.sprintf "%s.%s.%s" p w.W.name trace) report in
          let args =
            [ exe; "--workload"; w.W.name; "--seed"; string_of_int seed; "--seconds";
              Printf.sprintf "%g" seconds; "--trace"; trace; "--domains"; string_of_int domains ]
            @ match part with Some p -> [ "--report"; p ] | None -> []
          in
          let ic = Unix.open_process_args_in exe (Array.of_list args) in
          (try
             while true do
               print_endline (input_line ic)
             done
           with End_of_file -> ());
          (match Unix.close_process_in ic with Unix.WEXITED 0 -> () | _ -> ok := false);
          match part with
          | Some p when Sys.file_exists p ->
              copy_into merged (load_report p);
              Sys.remove p
          | Some _ -> ok := false
          | None -> ())
        [ "0"; "1" ])
    W.all;
  Option.iter (fun p -> write_report p merged) report;
  if not !ok then exit 1

(* --- Comparison and baseline ------------------------------------------ *)

(* (workload, metric) -> value of every "e2e.<workload>.<metric>" metric. *)
let e2e_values r =
  List.concat_map
    (fun sec ->
      List.filter_map
        (function
          | Report.Metric x -> (
              match String.split_on_char '.' x.Report.mkey with
              | [ "e2e"; w; name ] -> Some ((w, name), x.Report.value)
              | _ -> None)
          | Report.Table _ | Report.Note _ | Report.Series _ -> None)
        (Report.items sec))
    (Report.sections r)

let bound_of (decl : declared) name =
  List.find_map
    (fun (n, _, better, bound) -> if String.equal n name then Some (better, bound) else None)
    decl.e2e

(* Workloads missing from [b] altogether are skipped, so a baseline of
   every workload can be compared with a run of one. *)
let compare_runs decl a b =
  let vb = e2e_values b in
  let in_b w = List.exists (fun ((w', _), _) -> String.equal w w') vb in
  let breaches =
    List.fold_left
      (fun acc (((w, name) as key), va) ->
        match (bound_of decl name, List.assoc_opt key vb) with
        | None, _ -> acc
        | Some _, None when not (in_b w) -> acc
        | Some _, None ->
            Printf.printf "%-12s %-14s missing from the second run  BREACH\n" w name;
            acc + 1
        | Some (better, bound), Some v ->
            let change = (v -. va) /. va in
            let worse = if String.equal better "lower" then change else -.change in
            let breach = worse > bound in
            Printf.printf "%-12s %-14s %14.6g -> %14.6g  %+7.2f%%  bound %.0f%%  %s\n" w name va v
              (100.0 *. change) (100.0 *. bound)
              (if breach then "BREACH" else "ok");
            if breach then acc + 1 else acc)
      0 (e2e_values a)
  in
  if breaches > 0 then begin
    Printf.printf "%d end-to-end metric(s) regressed beyond their bound\n" breaches;
    exit 1
  end

(* Median/q1/q3 of every end-to-end metric over several runs (one seed
   each), with the spread (q3 - q1) / median the bounds are judged
   against: the committed baseline. *)
let summarize decl ~out runs =
  let reports = List.map load_report runs in
  let values = Hashtbl.create 64 in
  let keys = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun (k, v) ->
          if not (Hashtbl.mem values k) then keys := k :: !keys;
          Hashtbl.replace values k (v :: Option.value ~default:[] (Hashtbl.find_opt values k)))
        (e2e_values r))
    reports;
  let meta k = match reports with r :: _ -> List.assoc_opt k (Report.meta r) | [] -> None in
  let rep =
    Report.create ~name:"e2e_baseline"
      ~meta:
        [
          ("runs", float_of_int (List.length runs));
          ("domains", Option.value ~default:0.0 (meta "domains"));
          ("nproc", float_of_int nproc);
          ("seconds", Option.value ~default:0.0 (meta "seconds"));
        ]
      ()
  in
  let s = Report.section rep "End-to-end baseline: one run per seed, untraced" in
  Report.notef s "host nproc %d, OCaml %s, commit %s\n" nproc Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "E2E_COMMIT"));
  let t =
    Report.table s ~key:"baseline"
      ~columns:
        (List.map
           (fun c -> Report.col c)
           [ "Workload"; "Metric"; "Median"; "Q1"; "Q3"; "Runs"; "Spread"; "Bound" ])
      ()
  in
  let wide = ref 0 in
  List.iter
    (fun ((w, name) as k) ->
      let vs = Array.of_list (List.rev (Hashtbl.find values k)) in
      let q p = Broker_util.Stats.quantile vs p in
      let q1 = q 0.25 and med = q 0.5 and q3 = q 0.75 in
      let spread = (q3 -. q1) /. med in
      let bound = match bound_of decl name with Some (_, b) -> b | None -> Float.nan in
      let verdict =
        if spread <= bound /. 3.0 then "ok"
        else if spread <= bound then "within bound, above a third of it"
        else (incr wide; "WIDER THAN BOUND")
      in
      Printf.printf
        "%-12s %-14s median %14.6g  q1 %14.6g  q3 %14.6g  n %2d  spread %6.2f%%  bound %3.0f%%  %s\n"
        w name med q1 q3 (Array.length vs) (100.0 *. spread) (100.0 *. bound) verdict;
      Report.row t
        [
          Report.str w; Report.str name; vol med; vol q1; vol q3;
          Report.int (Array.length vs); vol spread; Report.float bound;
        ];
      Report.metric s ~key:(Printf.sprintf "e2e.%s.%s" w name) ~volatile:true med)
    (List.rev !keys);
  write_report out rep;
  if !wide > 0 then exit 1

(* --- Smoke ------------------------------------------------------------- *)

let smoke (decl : declared) =
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> ok := false; print_endline ("FAIL " ^ s)) fmt in
  let names = List.map (fun (w : W.t) -> w.W.name) W.all in
  if not (List.equal String.equal names decl.workloads) then
    fail "workloads %s <> declared %s" (String.concat "," names)
      (String.concat "," decl.workloads);
  let same what emitted declared =
    let sort = List.sort (fun (a, _) (b, _) -> String.compare a b) in
    let emitted = sort emitted and declared = sort declared in
    let same_pair (a, u) (b, v) = String.equal a b && String.equal u v in
    if not (List.equal same_pair emitted declared) then
      fail "%s metrics differ from BENCHMARK.json: emitted [%s]" what
        (String.concat " " (List.map (fun (n, u) -> n ^ ":" ^ u) emitted))
  in
  List.iter
    (fun (w : W.t) ->
      let t0 = Obs.Clock.now_ns () in
      match run ~size:W.Smoke ~seed:42 ~seconds:0.0 ~traced:true w with
      | exception e -> fail "%s raised %s" w.W.name (Printexc.to_string e)
      | r ->
          Printf.printf "%-12s %d reps, %d ops, %.2f s\n%!" w.W.name r.reps r.attempted
            (Harness.seconds_since t0);
          List.iter (fun f -> fail "%s: %s" w.W.name f) r.failures;
          let pairs l = List.map (fun x -> (x.name, x.unit_)) l in
          same (w.W.name ^ " end-to-end") (pairs r.e2e)
            (List.map (fun (n, u, _, _) -> (n, u)) decl.e2e);
          same (w.W.name ^ " per-layer") (pairs r.layers)
            (List.map (fun (n, u, _) -> (n, u)) decl.layers))
    W.all;
  if not !ok then exit 1;
  print_endline "smoke: all workloads pass their checks; metric names match BENCHMARK.json"

(* --- Command line ------------------------------------------------------ *)

let flags_with_value =
  [ "--workload"; "--seed"; "--seconds"; "--trace"; "--domains"; "--report"; "--trace-file";
    "--benchmark" ]

let modes = [ "--all"; "--smoke"; "--compare"; "--summarize" ]

let parse argv =
  let rec go opts mode pos = function
    | [] -> (opts, mode, List.rev pos)
    | f :: rest when List.mem f flags_with_value -> (
        match rest with
        | v :: rest -> go ((f, v) :: opts) mode pos rest
        | [] -> usage_error (f ^ " expects a value"))
    | f :: rest when List.mem f modes -> (
        match mode with
        | None -> go opts (Some f) pos rest
        | Some m -> usage_error (Printf.sprintf "%s and %s are exclusive" m f))
    | a :: _ when String.length a > 1 && Char.equal a.[0] '-' ->
        usage_error (Printf.sprintf "unknown option %S" a)
    | a :: rest -> go opts mode (a :: pos) rest
  in
  go [] None [] argv

let int_opt opts flag ~default ~ok what =
  match List.assoc_opt flag opts with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some v when ok v -> v
      | _ -> usage_error (Printf.sprintf "%s expects %s, got %S" flag what s))

let () =
  let opts, mode, pos = parse (List.tl (Array.to_list Sys.argv)) in
  let seed = int_opt opts "--seed" ~default:42 ~ok:(fun v -> v >= 0) "a non-negative integer" in
  (* One domain by default: with two, when the collector runs depends on
     how the domains interleave, and on a 2-core host top_heap_mb spread
     11% over identical work while curves/s rose only 3%. *)
  let domains =
    int_opt opts "--domains" ~default:1
      ~ok:(fun d -> d >= 1 && d <= nproc)
      (Printf.sprintf "an integer in [1, %d] (nproc)" nproc)
  in
  let seconds =
    match List.assoc_opt "--seconds" opts with
    | None -> 10.0
    | Some s -> (
        match float_of_string_opt s with
        | Some v when Float.is_finite v && v >= 0.0 -> v
        | _ -> usage_error (Printf.sprintf "--seconds expects a non-negative number, got %S" s))
  in
  let traced =
    match List.assoc_opt "--trace" opts with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some s -> usage_error (Printf.sprintf "--trace expects 0 or 1, got %S" s)
  in
  let report = List.assoc_opt "--report" opts in
  let benchmark = Option.value ~default:"BENCHMARK.json" (List.assoc_opt "--benchmark" opts) in
  let decl () =
    try load_declared benchmark with Failure e | Sys_error e -> usage_error e
  in
  Unix.putenv "REPRO_DOMAINS" (string_of_int domains);
  match (mode, pos) with
  | None, [] -> (
      match List.assoc_opt "--workload" opts with
      | None -> usage_error "--workload NAME, --all, --smoke, --compare or --summarize required"
      | Some name -> (
          match W.find name with
          | Some w ->
              run_one ~seed ~seconds ~traced ~domains ~report
                ~trace_file:(List.assoc_opt "--trace-file" opts) w
          | None ->
              usage_error
                (Printf.sprintf "unknown workload %S; known: %s" name
                   (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all)))))
  | Some "--all", [] -> run_all ~seed ~seconds ~domains ~report
  | Some "--smoke", [] -> smoke (decl ())
  | Some "--compare", [ a; b ] -> (
      let decl = decl () in
      match (load_report a, load_report b) with
      | ra, rb -> compare_runs decl ra rb
      | exception (Failure e | Sys_error e) -> usage_error e)
  | Some "--summarize", out :: (_ :: _ as runs) -> (
      let decl = decl () in
      try summarize decl ~out runs with Failure e | Sys_error e -> usage_error e)
  | Some m, _ -> usage_error (m ^ ": wrong number of file arguments")
  | None, a :: _ -> usage_error (Printf.sprintf "unexpected argument %S" a)

