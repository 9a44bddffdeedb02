(* The dominated-path BFS engine: projection correctness, equivalence of
   the MS-BFS workspace's watched distances with the generic filtered
   BFS, bitwise equality of the engine and reference connectivity
   curves, and determinism across REPRO_DOMAINS settings. *)

open Helpers
module G = Broker_graph.Graph
module Bfs = Broker_graph.Bfs
module Msbfs = Broker_graph.Msbfs
module View = Broker_graph.View
module Projected = Broker_graph.Projected
module Conn = Broker_core.Connectivity

let q ?(count = 60) name arb law =
  qcheck (QCheck.Test.make ~count ~name arb law)

let seed_arb = QCheck.int_range 0 100_000

(* A graph together with a random broker set (possibly empty). *)
let graph_brokers_arb =
  QCheck.make
    ~print:(fun (g, brokers) ->
      Printf.sprintf "<graph n=%d m=%d brokers=%d>" (G.n g) (G.m g)
        (Array.length brokers))
    QCheck.Gen.(
      int_range 2 40 >>= fun n ->
      int_range 0 80 >>= fun m ->
      int_range 0 8 >>= fun k ->
      int_range 0 1_000_000 >|= fun seed ->
      let rng = Broker_util.Xrandom.create seed in
      let g = random_graph rng ~n ~m in
      let brokers =
        Array.init k (fun _ -> Broker_util.Xrandom.int rng n)
      in
      (g, brokers))

(* --- projection ------------------------------------------------------ *)

let projection_barbell () =
  (* Brokers {2,3}: the bridge and both triangles are dominated, but the
     far edges 0-1 and 4-5 (no broker endpoint) are dropped. *)
  let g = barbell_graph () in
  let proj = Projected.project g ~is_broker:(fun v -> v = 2 || v = 3) in
  let pg = Projected.graph proj in
  check_int "same vertex count" (G.n g) (G.n pg);
  check_int "dominated edges" 5 (G.m pg);
  check_bool "bridge kept" true (G.mem_edge pg 2 3);
  check_bool "0-2 kept" true (G.mem_edge pg 0 2);
  check_bool "0-1 dropped" false (G.mem_edge pg 0 1);
  check_bool "4-5 dropped" false (G.mem_edge pg 4 5);
  check_int "broker count" 2 (Projected.broker_count proj);
  check_int "arcs = 2m" (2 * G.m pg) (Projected.arcs proj)

let projection_empty_and_full () =
  let g = clique_graph 6 in
  let none = Projected.graph (Projected.project g ~is_broker:(fun _ -> false)) in
  check_int "no brokers -> no edges" 0 (G.m none);
  let all = Projected.graph (Projected.project g ~is_broker:(fun _ -> true)) in
  check_int "all brokers -> all edges" (G.m g) (G.m all)

let projection_matches_predicate =
  q "projected edges = dominated edges" graph_brokers_arb (fun (g, brokers) ->
      let n = G.n g in
      let is_broker = Conn.of_brokers ~n brokers in
      let pg = Projected.graph (Projected.project g ~is_broker) in
      let ok = ref true in
      (* Every original edge appears in the projection iff dominated; the
         projection introduces nothing new. *)
      G.iter_edges g (fun u v ->
          let dominated = is_broker u || is_broker v in
          if G.mem_edge pg u v <> dominated then ok := false);
      G.iter_edges pg (fun u v -> if not (G.mem_edge g u v) then ok := false);
      !ok)

(* --- MS-BFS watched distances vs the generic filtered oracle -------- *)

(* Every (lane, watched vertex) distance of a sweep over the projection
   equals the filtered BFS from the lane's source, within [max_depth].
   Sources and watched vertices are drawn with replacement, so lanes and
   watch entries repeat; the watch list also holds the lanes' own
   sources (distance 0), and on sparse draws unreachable vertices (-1).
   One workspace is reused across every case, so watch lists of
   different lengths grow and refill the same distance table. *)
let watched_distances_match_filtered =
  let ws = Msbfs.workspace () in
  q "watched distances = distances_filtered" graph_brokers_arb
    (fun (g, brokers) ->
      let n = G.n g in
      let is_broker = Conn.of_brokers ~n brokers in
      let edge_ok = Conn.edge_ok ~is_broker in
      let pg = Projected.graph (Projected.project g ~is_broker) in
      let rng = Broker_util.Xrandom.create (G.m g + (31 * n)) in
      let len = 1 + Broker_util.Xrandom.int rng Msbfs.lanes in
      let sources = Array.init len (fun _ -> Broker_util.Xrandom.int rng n) in
      let watch =
        Array.append
          (Array.init (Broker_util.Xrandom.int rng (2 * n)) (fun _ ->
               Broker_util.Xrandom.int rng n))
          (Array.sub sources 0 (min len 3))
      in
      let max_depth =
        if Broker_util.Xrandom.int rng 3 = 0 then Broker_util.Xrandom.int rng 3
        else max_int
      in
      Msbfs.run_view ws (View.of_graph pg) ~max_depth ~watch sources ~lo:0 ~len;
      let ok = ref true in
      for b = 0 to len - 1 do
        let expect = Bfs.distances_filtered g ~edge_ok sources.(b) in
        Array.iteri
          (fun i v ->
            let d = if expect.(v) > max_depth then -1 else expect.(v) in
            if Msbfs.watch_distance ws i b <> d then ok := false)
          watch
      done;
      !ok)

(* A hand-built scene with every case named: path 0-1-2-3, vertex 4
   isolated. Lanes 0 and 2 both start at 0 (a duplicate source), lane 1
   at 3; vertex 2 is watched twice, the source 0 once, and 4 is never
   reached. A second run with a shorter watch list and a depth cut reuses
   the workspace. *)
let watched_distances_scene () =
  let g = G.of_edges ~n:5 [| (0, 1); (1, 2); (2, 3) |] in
  let ws = Msbfs.workspace () in
  let watch = [| 2; 0; 4; 2; 3 |] in
  Msbfs.run_view ws (View.of_graph g) ~watch [| 0; 3; 0 |] ~lo:0 ~len:3;
  let row b = Array.init (Array.length watch) (fun i -> Msbfs.watch_distance ws i b) in
  Alcotest.(check (array int)) "lane 0 from 0" [| 2; 0; -1; 2; 3 |] (row 0);
  Alcotest.(check (array int)) "lane 1 from 3" [| 1; 3; -1; 1; 0 |] (row 1);
  Alcotest.(check (array int)) "lane 2 = lane 0" (row 0) (row 2);
  Msbfs.run_view ws (View.of_graph g) ~max_depth:1 ~watch:[| 1; 3 |] [| 0; 2 |]
    ~lo:0 ~len:2;
  Alcotest.(check (array int)) "depth cut, lane 0" [| 1; -1 |]
    [| Msbfs.watch_distance ws 0 0; Msbfs.watch_distance ws 1 0 |];
  Alcotest.(check (array int)) "depth cut, lane 1" [| 1; 1 |]
    [| Msbfs.watch_distance ws 0 1; Msbfs.watch_distance ws 1 1 |];
  Alcotest.check_raises "watch index past the shorter list"
    (Invalid_argument "Msbfs.watch_distance: watch index out of range") (fun () ->
      ignore (Msbfs.watch_distance ws 2 0))

(* --- Bfs.generic validates all sources before mutating --------------- *)

let generic_validates_sources_upfront () =
  let g = path_graph 5 in
  Alcotest.check_raises "bad source in multi-source list"
    (Invalid_argument "Bfs: source out of range") (fun () ->
      ignore (Bfs.distances_multi g [ 0; 2; 99 ]));
  (* The same traversal without the bad source still works — and a caller
     that catches the exception observes no partially-run state because
     validation happens before any mutation. *)
  let d = Bfs.distances_multi g [ 0; 2 ] in
  check_int "multi-source still correct" 1 d.(3)

(* --- connectivity: engine = reference, bitwise ----------------------- *)

let curves_equal (a : Conn.curve) (b : Conn.curve) =
  a.Conn.l_max = b.Conn.l_max
  && a.Conn.per_hop = b.Conn.per_hop
  && a.Conn.saturated = b.Conn.saturated

let eval_matches_reference =
  q ~count:40 "Connectivity.eval = reference oracle (bitwise)"
    graph_brokers_arb
    (fun (g, brokers) ->
      let n = G.n g in
      let is_broker = Conn.of_brokers ~n brokers in
      let sources = Array.init (min 12 n) (fun i -> i) in
      let engine = Conn.eval_sources ~l_max:6 g ~is_broker sources in
      let oracle = Conn.eval_sources_reference ~l_max:6 g ~is_broker sources in
      curves_equal engine oracle)

let exact_matches_reference () =
  let t = small_internet ~seed:5 ~scale:0.008 () in
  let g = t.Broker_topo.Topology.graph in
  let n = G.n g in
  let brokers = Broker_core.Maxsg.run g ~k:12 in
  let is_broker = Conn.of_brokers ~n brokers in
  let engine = Conn.exact ~l_max:8 g ~is_broker in
  let oracle =
    Conn.eval_sources_reference ~l_max:8 g ~is_broker
      (Array.init n (fun i -> i))
  in
  check_bool "exact curve bitwise equal" true (curves_equal engine oracle)

(* --- determinism across REPRO_DOMAINS -------------------------------- *)

let deterministic_across_domains () =
  let t = small_internet ~seed:9 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let n = G.n g in
  let brokers = Broker_core.Maxsg.run g ~k:16 in
  let is_broker = Conn.of_brokers ~n brokers in
  let sources = Array.init (min 64 n) (fun i -> i) in
  let run () = Conn.eval_sources ~l_max:10 g ~is_broker sources in
  let c1 = with_domains "1" run in
  let c4 = with_domains "4" run in
  check_bool "REPRO_DOMAINS=1 = REPRO_DOMAINS=4" true (curves_equal c1 c4);
  let oracle =
    with_domains "4" (fun () ->
        Conn.eval_sources_reference ~l_max:10 g ~is_broker sources)
  in
  check_bool "engine = oracle under domains" true (curves_equal c1 oracle)

(* --- Graph.of_edges in-place construction ---------------------------- *)

let of_edges_matches_naive =
  q ~count:80 "of_edges: in-place sort/dedup matches naive construction"
    QCheck.(pair seed_arb (pair (int_range 1 30) (int_range 0 120)))
    (fun (seed, (n, m)) ->
      let rng = Broker_util.Xrandom.create seed in
      (* Raw edges with self-loops and duplicates in both orientations. *)
      let edges =
        Array.init m (fun _ ->
            (Broker_util.Xrandom.int rng n, Broker_util.Xrandom.int rng n))
      in
      let g = G.of_edges ~n edges in
      let naive u =
        Array.to_list edges
        |> List.concat_map (fun (a, b) ->
               if a = u && b <> u then [ b ]
               else if b = u && a <> u then [ a ]
               else [])
        |> List.sort_uniq Int.compare
      in
      let ok = ref true in
      for u = 0 to n - 1 do
        if neighbor_list g u <> naive u then ok := false
      done;
      !ok)

let of_edges_hub_segment () =
  (* A hub of degree > the insertion-sort cutoff, fed in descending order
     with duplicates: exercises the partitioning path of the range sort. *)
  let spokes = Array.init 100 (fun i -> (0, 100 - i)) in
  let dups = Array.init 50 (fun i -> ((2 * i) + 1, 0)) in
  let g = G.of_edges ~n:101 (Array.append spokes dups) in
  check_int "hub degree" 100 (G.degree g 0);
  Alcotest.(check (list int)) "hub adjacency sorted" (List.init 100 succ)
    (neighbor_list g 0)

(* Segments far past the insertion-sort cutoff: a few hubs take most
   endpoints, with long runs of duplicate keys, so the introsort
   partitions around repeated pivots on every level. *)
let of_edges_hubs_match_naive =
  q ~count:60 "of_edges: hub segments match naive construction"
    QCheck.(pair seed_arb (pair (int_range 40 300) (int_range 0 2000)))
    (fun (seed, (n, m)) ->
      let rng = Broker_util.Xrandom.create seed in
      let hubs = 1 + Broker_util.Xrandom.int rng 4 in
      let draw () =
        if Broker_util.Xrandom.int rng 3 = 0 then Broker_util.Xrandom.int rng hubs
        else Broker_util.Xrandom.int rng (1 + Broker_util.Xrandom.int rng n)
      in
      let edges = Array.init m (fun _ -> (draw (), draw ())) in
      let g = G.of_edges ~n edges in
      let adj = Array.make n [] in
      Array.iter
        (fun (a, b) ->
          if a <> b then begin
            adj.(a) <- b :: adj.(a);
            adj.(b) <- a :: adj.(b)
          end)
        edges;
      Array.for_all Fun.id
        (Array.init n (fun u -> neighbor_list g u = List.sort_uniq Int.compare adj.(u))))

(* The flat builder reads only the first [len] pairs: raw pairs with
   self-loops and duplicates in both orientations, shuffled, then junk
   past [len], some of it out of range, and arrays of unequal length. *)
let of_edge_arrays_matches_of_edges =
  q ~count:80 "of_edge_arrays: first len pairs = of_edges"
    QCheck.(pair seed_arb (pair (int_range 1 30) (int_range 0 120)))
    (fun (seed, (n, m)) ->
      let rng = Broker_util.Xrandom.create seed in
      let draw () = Broker_util.Xrandom.int rng n in
      let raw = Array.init m (fun _ -> (draw (), draw ())) in
      let edges =
        Array.concat
          [
            raw;
            Array.map (fun (u, v) -> (v, u)) (Array.sub raw 0 (m / 3));
            Array.init (m / 10) (fun _ ->
                let v = draw () in
                (v, v));
          ]
      in
      Broker_util.Xrandom.shuffle rng edges;
      let len = Broker_util.Xrandom.int rng (Array.length edges + 1) in
      let junk k = Array.init k (fun i -> if i land 1 = 0 then -1 - i else n + i) in
      let us = Array.append (Array.map fst edges) (junk 3) in
      let vs = Array.append (Array.map snd edges) (junk 6) in
      G.equal (G.of_edge_arrays ~n ~len us vs) (G.of_edges ~n (Array.sub edges 0 len)))

let of_edge_arrays_invalid () =
  let refused what msg f =
    Alcotest.check_raises what (Invalid_argument ("Graph.of_edge_arrays: " ^ msg)) (fun () ->
        ignore (f ()))
  in
  let us = [| 0; 1; 2 |] and vs = [| 1; 2 |] in
  refused "negative n" "negative n" (fun () -> G.of_edge_arrays ~n:(-1) ~len:0 us vs);
  refused "negative len" "len outside [0, min lengths]" (fun () ->
      G.of_edge_arrays ~n:3 ~len:(-1) us vs);
  refused "len past the shorter array" "len outside [0, min lengths]" (fun () ->
      G.of_edge_arrays ~n:3 ~len:3 us vs);
  refused "endpoint = n" "endpoint out of range" (fun () ->
      G.of_edge_arrays ~n:2 ~len:2 us vs);
  refused "negative endpoint" "endpoint out of range" (fun () ->
      G.of_edge_arrays ~n:3 ~len:1 [| 0 |] [| -1 |]);
  check_int "len = the shorter length" 2 (G.m (G.of_edge_arrays ~n:3 ~len:2 us vs));
  check_int "n = 0, len = 0" 0 (G.n (G.of_edge_arrays ~n:0 ~len:0 [||] [||]))

let suite =
  [
    ( "bfs_engine.projection",
      [
        Alcotest.test_case "barbell projection" `Quick projection_barbell;
        Alcotest.test_case "empty/full broker sets" `Quick projection_empty_and_full;
        projection_matches_predicate;
      ] );
    ( "bfs_engine.workspace",
      [
        watched_distances_match_filtered;
        Alcotest.test_case "watched distances: named cases" `Quick
          watched_distances_scene;
        Alcotest.test_case "generic validates sources upfront" `Quick
          generic_validates_sources_upfront;
      ] );
    ( "bfs_engine.connectivity",
      [
        eval_matches_reference;
        Alcotest.test_case "exact = reference at small scale" `Quick
          exact_matches_reference;
        Alcotest.test_case "deterministic across REPRO_DOMAINS" `Quick
          deterministic_across_domains;
      ] );
    ( "bfs_engine.graph_build",
      [
        of_edges_matches_naive;
        Alcotest.test_case "hub segment heapsort" `Quick of_edges_hub_segment;
        of_edges_hubs_match_naive;
        of_edge_arrays_matches_of_edges;
        Alcotest.test_case "of_edge_arrays: invalid arguments" `Quick of_edge_arrays_invalid;
      ] );
  ]
