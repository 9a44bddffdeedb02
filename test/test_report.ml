(* Report IR tests: JSON round-trip, text byte-identity against the
   committed goldens in test/goldens/, and the regression-diff semantics
   behind `brokerctl report diff`. *)

open Helpers
module R = Broker_report.Report
module Rtext = Broker_report.Report_text
module Rjson = Broker_report.Report_json
module Rcsv = Broker_report.Report_csv
module Rdiff = Broker_report.Report_diff
module E = Broker_experiments

(* A synthetic report exercising every item and cell constructor; the
   optional arguments let the diff tests perturb one value at a time. *)
let synthetic ?(frac = 0.123456) ?(secs = 0.031) ?(vol = 0.125)
    ?(extra_metric = false) () =
  let r =
    R.create ~meta:[ ("scale", 0.02); ("seed", 42.0) ] ~name:"synthetic" ()
  in
  let s = R.section r "Section one" in
  R.note s "plain note\n";
  R.notef s "formatted %d\n" 7;
  R.metric s ~key:"silent.metric" 0.5;
  R.metricf s ~key:"loud.metric" ~unit:"ms" 12.5 "latency = %.1f ms\n" 12.5;
  R.metric s ~key:"volatile.metric" ~volatile:true vol;
  R.series s ~key:"curve" ~x:"k" ~y:"conn"
    [| (1.0, 0.5); (2.0, nan); (3.0, infinity) |];
  let t =
    R.table s ~key:"cells"
      ~columns:
        [
          R.col "Name"; R.col ~unit:"count" "N"; R.col "Frac"; R.col "Pct";
          R.col "Secs";
        ]
      ()
  in
  R.row t
    [ R.str "a"; R.int 3; R.float ~decimals:5 frac; R.pct 0.25; R.seconds secs ];
  R.rule t;
  R.row t
    [
      R.strf "b%d" 2; R.int (-1); R.float nan; R.pct ~decimals:0 1.0;
      R.seconds ~decimals:1 2.5;
    ];
  if extra_metric then R.metric s ~key:"extra.metric" 1.0;
  r

let test_json_roundtrip_synthetic () =
  let r = synthetic () in
  match Rjson.of_string (Rjson.to_string r) with
  | Ok r' -> check_bool "round-trip equal" true (R.equal r r')
  | Error msg -> Alcotest.fail msg

let test_json_rejects_garbage () =
  (match Rjson.of_string "{\"schema\": \"nope\"}" with
  | Ok _ -> Alcotest.fail "bad schema accepted"
  | Error _ -> ());
  match Rjson.of_string "{ not json" with
  | Ok _ -> Alcotest.fail "malformed input accepted"
  | Error _ -> ()

let tiny_ctx () = E.Ctx.create ~scale:0.008 ~sources:24 ~seed:99 ()

let test_json_roundtrip_experiments () =
  (* Every experiment's report must survive serialization. *)
  let ctx = tiny_ctx () in
  List.iter
    (fun (e : E.All.experiment) ->
      let r = E.All.report_of ctx e in
      match Rjson.of_string (Rjson.to_string r) with
      | Ok r' -> check_bool (e.id ^ " round-trips") true (R.equal r r')
      | Error msg -> Alcotest.fail (e.id ^ ": " ^ msg))
    E.All.experiments

(* Text byte-identity: the pinned experiments must render exactly
   the goldens captured at the CI reproduction point (fresh context,
   scale 0.02, sources 192, seed 42). *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let render r = Format.asprintf "%a" Rtext.pp r

let test_text_golden id () =
  let golden = read_file ("goldens/" ^ id ^ ".txt") in
  let ctx = E.Ctx.create ~scale:0.02 ~sources:192 ~seed:42 () in
  match E.All.find id with
  | None -> Alcotest.fail ("unknown experiment " ^ id)
  | Some e ->
      Alcotest.(check string) (id ^ " text output") golden
        (render (E.All.report_of ctx e))

(* JSON golden drift: the whole registry, in order, on one context built
   like the CI reproduction point, diffed against goldens/json/<id>.json
   the way the golden-diff job does (volatile cells never count). *)
let test_json_goldens () =
  let ctx = E.Ctx.create ~scale:0.02 ~sources:192 ~seed:42 () in
  let drifts =
    List.filter_map
      (fun (e : E.All.experiment) ->
        match Rjson.of_string (read_file ("goldens/json/" ^ e.id ^ ".json")) with
        | Error msg -> Some (e.id ^ ": unreadable golden: " ^ msg)
        | Ok golden ->
            let o = Rdiff.compare golden (E.All.report_of ctx e) in
            if Rdiff.ok o then None
            else Some (Format.asprintf "%s:@\n%a" e.id Rdiff.pp o))
      E.All.experiments
  in
  List.iter print_endline drifts;
  check_int "experiments drifting from their JSON golden" 0 (List.length drifts)

(* The committed BENCH_kernels.json (bench/main.exe --perf-smoke --json)
   is read by CI: it must stay a report document that carries the three
   gated speedups and the deterministic msbfs.* counter fingerprint. *)
let test_bench_artifact () =
  match Rjson.of_string (read_file "../BENCH_kernels.json") with
  | Error msg -> Alcotest.fail ("BENCH_kernels.json: " ^ msg)
  | Ok r ->
      let metrics =
        List.concat_map
          (fun s ->
            List.filter_map
              (function R.Metric m -> Some m | _ -> None)
              (R.items s))
          (R.sections r)
      in
      let find key = List.find_opt (fun m -> String.equal m.R.mkey key) metrics in
      List.iter
        (fun key ->
          match find key with
          | Some m -> check_bool (key ^ " is volatile") true m.R.mvolatile
          | None -> Alcotest.fail (key ^ " missing"))
        [ "msbfs_vs_legacy"; "incremental_vs_rebuild"; "incremental_small_vs_rebuild" ];
      match find "msbfs.sweeps" with
      | Some m ->
          check_bool "msbfs.sweeps is a deterministic count" true
            ((not m.R.mvolatile) && m.R.value > 0.0)
      | None -> Alcotest.fail "msbfs.* counters missing"

(* Diff semantics. *)

let test_diff_equal () =
  let o = Rdiff.compare (synthetic ()) (synthetic ()) in
  check_bool "identical reports match" true (Rdiff.ok o)

let test_diff_volatile_ignored () =
  (* Wall-clock cells and volatile metrics must not gate regressions. *)
  let o = Rdiff.compare (synthetic ()) (synthetic ~secs:9.9 ~vol:7.0 ()) in
  check_bool "volatile drift ignored" true (Rdiff.ok o)

let test_diff_drift () =
  let o = Rdiff.compare (synthetic ()) (synthetic ~frac:0.124456 ()) in
  check_bool "perturbation detected" false (Rdiff.ok o);
  check_int "exactly one drift" 1 (List.length o.Rdiff.drifts);
  let d = List.hd o.Rdiff.drifts in
  check_bool "key names the cell" true
    (String.equal d.Rdiff.key "table.cells.r0.frac");
  let rendered = Format.asprintf "%a" Rdiff.pp o in
  check_bool "pp mentions the key" true
    (contains ~needle:"table.cells.r0.frac" rendered)

let test_diff_tolerance () =
  let a = synthetic () and b = synthetic ~frac:0.124456 () in
  check_bool "within global tolerance" true
    (Rdiff.ok (Rdiff.compare ~tols:[ ("", 0.01) ] a b));
  (* Longest matching prefix wins: the tighter table-specific epsilon
     overrides the loose global default. *)
  check_bool "specific prefix overrides global" false
    (Rdiff.ok
       (Rdiff.compare ~tols:[ ("", 0.01); ("table.cells", 1e-6) ] a b));
  check_bool "unrelated prefix ignored" false
    (Rdiff.ok (Rdiff.compare ~tols:[ ("metric.", 0.01) ] a b))

let test_diff_missing_keys () =
  let o = Rdiff.compare (synthetic ()) (synthetic ~extra_metric:true ()) in
  check_bool "extra key is drift" false (Rdiff.ok o);
  check_int "reported as only-b" 1 (List.length o.Rdiff.only_b);
  check_int "nothing missing in a" 0 (List.length o.Rdiff.only_a)

(* IR invariants. *)

let test_duplicate_key_rejected () =
  let r = R.create ~name:"dup" () in
  let s = R.section r "s" in
  R.metric s ~key:"k" 1.0;
  match R.metric s ~key:"k" 2.0 with
  | () -> Alcotest.fail "duplicate key accepted"
  | exception Invalid_argument _ -> ()

let test_row_arity_rejected () =
  let r = R.create ~name:"arity" () in
  let s = R.section r "s" in
  let t = R.table s ~columns:[ R.col "A"; R.col "B" ] () in
  match R.row t [ R.int 1 ] with
  | () -> Alcotest.fail "short row accepted"
  | exception Invalid_argument _ -> ()

let test_cell_text () =
  Alcotest.(check string) "pct" "25.00%" (R.cell_text (R.pct 0.25));
  Alcotest.(check string) "float decimals" "0.12346"
    (R.cell_text (R.float ~decimals:5 0.123456));
  Alcotest.(check string) "seconds" "0.031" (R.cell_text (R.seconds 0.031))

let test_csv_files () =
  let files = Rcsv.files (synthetic ()) in
  let names = List.map fst files in
  check_bool "table file" true
    (List.exists (String.equal "synthetic.table.cells.csv") names);
  check_bool "series file" true
    (List.exists (String.equal "synthetic.series.curve.csv") names);
  let table = List.assoc "synthetic.table.cells.csv" files in
  check_bool "unit in header" true (contains ~needle:"N (count)" table)

let suite =
  [
    ( "report.json",
      [
        Alcotest.test_case "round-trip synthetic" `Quick
          test_json_roundtrip_synthetic;
        Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        Alcotest.test_case "round-trip all experiments" `Slow
          test_json_roundtrip_experiments;
        Alcotest.test_case "BENCH_kernels.json artifact" `Quick
          test_bench_artifact;
      ] );
    ( "report.text-goldens",
      [
        Alcotest.test_case "table1" `Quick (test_text_golden "table1");
        Alcotest.test_case "fig5c" `Quick (test_text_golden "fig5c");
        Alcotest.test_case "ext_resilience" `Quick
          (test_text_golden "ext_resilience");
        Alcotest.test_case "ext_churn_cache" `Quick
          (test_text_golden "ext_churn_cache");
        Alcotest.test_case "ext_reconverge" `Quick
          (test_text_golden "ext_reconverge");
        Alcotest.test_case "ext_timeline" `Quick
          (test_text_golden "ext_timeline");
      ] );
    ( "report.json-goldens",
      [ Alcotest.test_case "registry" `Quick test_json_goldens ] );
    ( "report.diff",
      [
        Alcotest.test_case "equal" `Quick test_diff_equal;
        Alcotest.test_case "volatile ignored" `Quick test_diff_volatile_ignored;
        Alcotest.test_case "drift" `Quick test_diff_drift;
        Alcotest.test_case "tolerance prefixes" `Quick test_diff_tolerance;
        Alcotest.test_case "missing keys" `Quick test_diff_missing_keys;
      ] );
    ( "report.ir",
      [
        Alcotest.test_case "duplicate key" `Quick test_duplicate_key_rejected;
        Alcotest.test_case "row arity" `Quick test_row_arity_rejected;
        Alcotest.test_case "cell text" `Quick test_cell_text;
        Alcotest.test_case "csv files" `Quick test_csv_files;
      ] );
  ]
