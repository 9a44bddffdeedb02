(* The bit-parallel multi-source BFS kernel: per-lane equivalence with
   the Bfs.distances oracle, batched connectivity curves bitwise equal
   to the frozen reference oracle across batch-boundary source counts,
   batched gain probes equal to scalar Coverage.gain, determinism across
   REPRO_DOMAINS, and argument validation. *)

open Helpers
module G = Broker_graph.Graph
module Bfs = Broker_graph.Bfs
module Msbfs = Broker_graph.Msbfs
module Conn = Broker_core.Connectivity

let q ?(count = 60) name arb law =
  qcheck (QCheck.Test.make ~count ~name arb law)

(* A graph, a random broker set, and a seed for drawing sources. *)
let graph_brokers_arb =
  QCheck.make
    ~print:(fun (g, brokers, seed) ->
      Printf.sprintf "<graph n=%d m=%d brokers=%d seed=%d>" (G.n g) (G.m g)
        (Array.length brokers) seed)
    QCheck.Gen.(
      int_range 2 40 >>= fun n ->
      int_range 0 80 >>= fun m ->
      int_range 0 8 >>= fun k ->
      int_range 0 1_000_000 >|= fun seed ->
      let rng = Broker_util.Xrandom.create seed in
      let g = random_graph rng ~n ~m in
      let brokers = Array.init k (fun _ -> Broker_util.Xrandom.int rng n) in
      (g, brokers, seed))

(* Sources drawn with replacement: exercises duplicate sources (distinct
   lanes) and lets a 40-vertex graph host a 192-source batch sequence. *)
let draw_sources rng ~n ~count =
  Array.init count (fun _ -> Broker_util.Xrandom.int rng n)

let lanes_is_word_width () =
  check_int "lanes = Bitset.bits_per_word" Broker_util.Bitset.bits_per_word
    Msbfs.lanes;
  check_int "63-bit native ints" 63 Msbfs.lanes

(* --- per-lane semantics vs the Bfs.distances oracle -------------------- *)

(* Entries equal to each depth in a distance array: a lane's per-level
   counts. *)
let level_counts dist =
  let c = Array.make (Array.length dist + 1) 0 in
  Array.iter (fun d -> if d >= 0 then c.(d) <- c.(d) + 1) dist;
  c

let lanes_match_scalar =
  (* One workspace reused across cases: stresses the epoch/tick-stamp
     reuse invariants. *)
  let ws = Msbfs.workspace () in
  q "each lane settles the scalar BFS levels" graph_brokers_arb
    (fun (g, _, seed) ->
      let n = G.n g in
      let rng = Broker_util.Xrandom.create (seed + 1) in
      let len = 1 + Broker_util.Xrandom.int rng (min Msbfs.lanes (4 * n)) in
      let sources = draw_sources rng ~n ~count:len in
      Msbfs.run ws g sources ~lo:0 ~len;
      let ok = ref (Msbfs.batch_lanes ws = len) in
      let max_level = ref 0 in
      let reached = ref 0 in
      let level = Array.make (n + 1) 0 in
      for b = 0 to len - 1 do
        let dist = Bfs.distances g sources.(b) in
        Array.iter (fun d -> if d > !max_level then max_level := d) dist;
        for v = 0 to n - 1 do
          (* bit b of v's settled word <-> lane b's scalar BFS reaches v *)
          let bit = Msbfs.settled_bits ws v land (1 lsl b) <> 0 in
          if bit <> (dist.(v) >= 0) then ok := false;
          if dist.(v) >= 1 then begin
            incr reached;
            level.(dist.(v)) <- level.(dist.(v)) + 1
          end
        done
      done;
      if Msbfs.max_level ws <> !max_level then ok := false;
      if Msbfs.reached_pairs ws <> !reached then ok := false;
      if Msbfs.level_pairs ws 0 <> len then ok := false;
      for d = 1 to !max_level do
        if Msbfs.level_pairs ws d <> level.(d) then ok := false
      done;
      !ok)

(* Per-lane level counts: every lane of a [~per_lane:true] run must
   report its own scalar BFS histogram. Graphs run up to a few hundred
   vertices with a dense random part, so single levels hold well past
   eight settled words (the carry-save tree's block) and counts past a
   few bit planes; the same workspace is reused across cases and
   [max_depth] cuts some runs short. *)
let lane_levels_arb =
  QCheck.make
    ~print:(fun (n, m, seed) -> Printf.sprintf "<n=%d m=%d seed=%d>" n m seed)
    QCheck.Gen.(
      int_range 2 400 >>= fun n ->
      int_range 0 (4 * n) >>= fun m ->
      int_range 0 1_000_000 >|= fun seed -> (n, m, seed))

let lane_levels_match_scalar =
  let ws = Msbfs.workspace ~per_lane:true () in
  q ~count:80 "per-lane level counts = per-source Bfs.distances histogram"
    lane_levels_arb (fun (n, m, seed) ->
      let rng = Broker_util.Xrandom.create seed in
      let g = random_graph rng ~n ~m in
      let len = 1 + Broker_util.Xrandom.int rng Msbfs.lanes in
      let sources = draw_sources rng ~n ~count:len in
      let max_depth =
        if Broker_util.Xrandom.int rng 4 = 0 then
          1 + Broker_util.Xrandom.int rng 3
        else max_int
      in
      Msbfs.run ws g ~max_depth sources ~lo:0 ~len;
      (* The oracle runs unbounded: its levels up to [max_depth] are the
         bounded run's. *)
      let ok = ref (Msbfs.max_level ws <= max_depth) in
      for b = 0 to len - 1 do
        let scalar = level_counts (Bfs.distances g sources.(b)) in
        for d = 0 to Msbfs.max_level ws do
          if Msbfs.lane_level ws b d <> scalar.(d) then ok := false
        done
      done;
      !ok)

let max_depth_matches_bounded =
  let ws = Msbfs.workspace () in
  q ~count:40 "max_depth truncates like the scalar bounded BFS"
    graph_brokers_arb
    (fun (g, _, seed) ->
      let n = G.n g in
      let rng = Broker_util.Xrandom.create (seed + 2) in
      let len = min Msbfs.lanes (1 + Broker_util.Xrandom.int rng 8) in
      let sources = draw_sources rng ~n ~count:len in
      let ok = ref true in
      List.iter
        (fun md ->
          Msbfs.run ws g ~max_depth:md sources ~lo:0 ~len;
          for b = 0 to len - 1 do
            let dist = Bfs.distances_bounded g ~max_depth:md sources.(b) in
            for v = 0 to n - 1 do
              let bit = Msbfs.settled_bits ws v land (1 lsl b) <> 0 in
              if bit <> (dist.(v) >= 0) then ok := false
            done
          done)
        [ 0; 1; 2 ];
      !ok)

(* --- batched connectivity = reference oracle, bitwise ----------------- *)

let curves_equal (a : Conn.curve) (b : Conn.curve) =
  a.Conn.l_max = b.Conn.l_max
  && a.Conn.per_hop = b.Conn.per_hop
  && a.Conn.saturated = b.Conn.saturated

(* Source counts straddling the 63-lane word boundary: 1 (degenerate
   batch), 63 (one full word), 64/65 (full word + ragged tail), 192
   (three words + tail). *)
let boundary_counts = [ 1; 63; 64; 65; 192 ]

let eval_matches_reference_at_boundaries =
  q ~count:30 "batched eval = reference across batch-boundary source counts"
    graph_brokers_arb
    (fun (g, brokers, seed) ->
      let n = G.n g in
      let is_broker = Conn.of_brokers ~n brokers in
      let rng = Broker_util.Xrandom.create (seed + 3) in
      List.for_all
        (fun count ->
          let sources = draw_sources rng ~n ~count in
          List.for_all
            (fun l_max ->
              let batched = Conn.eval_sources ~l_max g ~is_broker sources in
              let oracle =
                Conn.eval_sources_reference ~l_max g ~is_broker sources
              in
              curves_equal batched oracle)
            [ 1; 2; 10 ])
        boundary_counts)

(* --- batched gain probes = scalar Coverage.gain ----------------------- *)

let gains_match_scalar =
  q "Coverage.gains_into = Coverage.gain per candidate" graph_brokers_arb
    (fun (g, brokers, seed) ->
      let n = G.n g in
      let cov = Broker_core.Coverage.create g in
      Array.iter (Broker_core.Coverage.add cov) brokers;
      let rng = Broker_util.Xrandom.create (seed + 4) in
      let len = 1 + Broker_util.Xrandom.int rng (min Msbfs.lanes (2 * n)) in
      let cands = draw_sources rng ~n ~count:(len + 3) in
      let out = Array.make Msbfs.lanes (-7) in
      Broker_core.Coverage.gains_into cov cands ~lo:2 ~len out;
      let ok = ref true in
      for b = 0 to len - 1 do
        if out.(b) <> Broker_core.Coverage.gain cov cands.(2 + b) then
          ok := false
      done;
      (* entries beyond the batch stay untouched *)
      for b = len to Msbfs.lanes - 1 do
        if out.(b) <> -7 then ok := false
      done;
      !ok)

(* The greedy selectors ride the batched probes: their selections must be
   what the scalar probes produced before (CELF and naive agree on
   submodular coverage with deterministic tie-breaks). *)
let celf_matches_naive () =
  let t = small_internet ~seed:3 ~scale:0.008 () in
  let g = t.Broker_topo.Topology.graph in
  let c = Broker_core.Greedy_mcb.celf g ~k:20 in
  let nv = Broker_core.Greedy_mcb.naive g ~k:20 in
  check_bool "celf = naive selections" true (c = nv)

(* --- determinism across REPRO_DOMAINS --------------------------------- *)

let deterministic_across_domains () =
  let t = small_internet ~seed:11 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let n = G.n g in
  let brokers = Broker_core.Maxsg.run g ~k:16 in
  let is_broker = Conn.of_brokers ~n brokers in
  let sources =
    draw_sources (Broker_util.Xrandom.create 23) ~n ~count:192
  in
  let run () = Conn.eval_sources ~l_max:10 g ~is_broker sources in
  let c1 = with_domains "1" run in
  let c4 = with_domains "4" run in
  check_bool "REPRO_DOMAINS=1 = REPRO_DOMAINS=4" true (curves_equal c1 c4)

(* --- validation ------------------------------------------------------- *)

let run_validates_arguments () =
  let ws = Msbfs.workspace () in
  let g = path_graph 4 in
  let srcs = [| 0; 1; 2; 3 |] in
  Alcotest.check_raises "len = 0"
    (Invalid_argument "Msbfs: batch size out of range") (fun () ->
      Msbfs.run ws g srcs ~lo:0 ~len:0);
  Alcotest.check_raises "len > lanes"
    (Invalid_argument "Msbfs: batch size out of range") (fun () ->
      Msbfs.run ws g srcs ~lo:0 ~len:(Msbfs.lanes + 1));
  Alcotest.check_raises "range escapes sources"
    (Invalid_argument "Msbfs: source range out of bounds") (fun () ->
      Msbfs.run ws g srcs ~lo:2 ~len:3);
  Alcotest.check_raises "negative lo"
    (Invalid_argument "Msbfs: source range out of bounds") (fun () ->
      Msbfs.run ws g srcs ~lo:(-1) ~len:2);
  Alcotest.check_raises "source out of range"
    (Invalid_argument "Msbfs: source out of range") (fun () ->
      Msbfs.run ws g [| 0; 99 |] ~lo:0 ~len:2);
  (* Validation happens before any mutation: the workspace still answers
     for the last good run. *)
  let vw = Broker_graph.View.of_graph g in
  Msbfs.run_view ws vw ~watch:[| 3; 1 |] srcs ~lo:0 ~len:1;
  List.iter
    (fun watch ->
      Alcotest.check_raises "watched vertex out of range"
        (Invalid_argument "Msbfs: watched vertex out of range") (fun () ->
          Msbfs.run_view ws vw ~watch srcs ~lo:1 ~len:2))
    [ [| 0; 4 |]; [| -1 |] ];
  check_int "batch kept" 1 (Msbfs.batch_lanes ws);
  check_int "watched distance kept" 3 (Msbfs.watch_distance ws 0 0);
  check_int "second watch entry kept" 1 (Msbfs.watch_distance ws 1 0);
  Alcotest.check_raises "watch lane out of range"
    (Invalid_argument "Msbfs.watch_distance: lane out of range") (fun () ->
      ignore (Msbfs.watch_distance ws 0 1));
  Alcotest.check_raises "watch index out of range"
    (Invalid_argument "Msbfs.watch_distance: watch index out of range")
    (fun () -> ignore (Msbfs.watch_distance ws 2 0));
  Msbfs.run ws g srcs ~lo:0 ~len:2;
  Alcotest.check_raises "a run without a watch list watches nothing"
    (Invalid_argument "Msbfs.watch_distance: watch index out of range")
    (fun () -> ignore (Msbfs.watch_distance ws 0 0));
  Alcotest.check_raises "level out of range"
    (Invalid_argument "Msbfs.level_pairs: level out of range") (fun () ->
      ignore (Msbfs.level_pairs ws (Msbfs.max_level ws + 1)));
  Alcotest.check_raises "vertex out of range"
    (Invalid_argument "Msbfs.settled_bits: vertex out of range") (fun () ->
      ignore (Msbfs.settled_bits ws 99));
  Alcotest.check_raises "short out array"
    (Invalid_argument "Msbfs.lane_counts_into: output shorter than the batch")
    (fun () -> Msbfs.lane_counts_into ws ~keep:(fun _ -> true) (Array.make 1 0));
  Alcotest.check_raises "no per-lane tallies"
    (Invalid_argument "Msbfs.lane_level: workspace does not tally per lane")
    (fun () -> ignore (Msbfs.lane_level ws 0 0));
  let lws = Msbfs.workspace ~per_lane:true () in
  Msbfs.run lws g srcs ~lo:0 ~len:2;
  Alcotest.check_raises "lane out of range"
    (Invalid_argument "Msbfs.lane_level: lane out of range") (fun () ->
      ignore (Msbfs.lane_level lws 2 0));
  Alcotest.check_raises "lane level out of range"
    (Invalid_argument "Msbfs.lane_level: level out of range") (fun () ->
      ignore (Msbfs.lane_level lws 0 (Msbfs.max_level lws + 1)))

let suite =
  [
    ( "msbfs.lanes",
      [
        Alcotest.test_case "word width" `Quick lanes_is_word_width;
        lanes_match_scalar;
        lane_levels_match_scalar;
        max_depth_matches_bounded;
      ] );
    ( "msbfs.connectivity",
      [
        eval_matches_reference_at_boundaries;
        Alcotest.test_case "deterministic across REPRO_DOMAINS" `Quick
          deterministic_across_domains;
      ] );
    ( "msbfs.gains",
      [
        gains_match_scalar;
        Alcotest.test_case "celf selections unchanged" `Quick celf_matches_naive;
      ] );
    ( "msbfs.validation",
      [ Alcotest.test_case "argument validation" `Quick run_validates_arguments ] );
  ]
