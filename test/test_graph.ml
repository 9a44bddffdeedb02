(* Tests for Broker_graph: Graph, Bfs, Components, Dijkstra, Pagerank,
   Kcore, Metrics, Dot. *)

open Helpers
module G = Broker_graph.Graph
module Bfs = Broker_graph.Bfs
module Components = Broker_graph.Components
module Dijkstra = Broker_graph.Dijkstra
module Pagerank = Broker_graph.Pagerank
module Kcore = Broker_graph.Kcore
module Metrics = Broker_graph.Metrics
module Dot = Broker_graph.Dot

(* ---------- Graph ---------- *)

let test_graph_dedupe_self_loops () =
  let g = G.of_edges ~n:4 [| (0, 1); (1, 0); (0, 1); (2, 2); (1, 2) |] in
  check_int "edges deduped" 2 (G.m g);
  check_int "degree 0" 1 (G.degree g 0);
  check_int "degree 1" 2 (G.degree g 1);
  check_int "degree 2 (self loop dropped)" 1 (G.degree g 2);
  check_int "degree 3" 0 (G.degree g 3)

let test_graph_neighbors_sorted () =
  let g = G.of_edges ~n:5 [| (2, 4); (2, 0); (2, 3); (2, 1) |] in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3; 4 ] (neighbor_list g 2)

let test_graph_mem_edge () =
  let g = barbell_graph () in
  check_bool "edge" true (G.mem_edge g 2 3);
  check_bool "sym" true (G.mem_edge g 3 2);
  check_bool "non-edge" false (G.mem_edge g 0 5);
  check_bool "out of range" false (G.mem_edge g 0 17)

let test_graph_iter_edges_once () =
  let g = clique_graph 5 in
  let count = ref 0 in
  G.iter_edges g (fun u v ->
      check_bool "u < v" true (u < v);
      incr count);
  check_int "C(5,2)" 10 !count

let test_graph_bad_endpoint () =
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (G.of_edges ~n:3 [| (0, 3) |]))

let graph_qcheck_symmetric =
  qcheck
    (QCheck.Test.make ~count:100 ~name:"adjacency is symmetric" graph_arbitrary
       (fun g ->
         let ok = ref true in
         for u = 0 to G.n g - 1 do
           G.iter_neighbors g u (fun v -> if not (G.mem_edge g v u) then ok := false)
         done;
         !ok))

let graph_qcheck_degree_sum =
  qcheck
    (QCheck.Test.make ~count:100 ~name:"sum of degrees = 2m" graph_arbitrary
       (fun g ->
         let n = G.n g in
         let degrees = Array.make (n + 1) (-1) in
         G.degrees_into g degrees;
         degrees.(n) = -1
         && Array.fold_left ( + ) 0 (Array.sub degrees 0 n) = 2 * G.m g))

(* ---------- Bfs ---------- *)

let test_bfs_path_distances () =
  let g = path_graph 6 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4; 5 |] (Bfs.distances g 0)

let test_bfs_unreachable () =
  let g = G.of_edges ~n:4 [| (0, 1) |] in
  let d = Bfs.distances g 0 in
  check_int "reachable" 1 d.(1);
  check_int "unreachable" (-1) d.(2)

let test_bfs_bounded () =
  let g = path_graph 10 in
  let d = Bfs.distances_bounded g ~max_depth:3 0 in
  check_int "at bound" 3 d.(3);
  check_int "beyond bound" (-1) d.(4)

let test_bfs_filtered () =
  (* Forbid traversing through vertex 2 of the path: everything past is
     unreachable. *)
  let g = path_graph 6 in
  let edge_ok u v = u <> 2 && v <> 2 in
  let d = Bfs.distances_filtered g ~edge_ok 0 in
  check_int "before cut" 1 d.(1);
  check_int "cut vertex" (-1) d.(2);
  check_int "after cut" (-1) d.(3)

let test_bfs_multi_source () =
  let g = path_graph 10 in
  let d = Bfs.distances_multi g [ 0; 9 ] in
  check_int "near left" 1 d.(1);
  check_int "near right" 1 d.(8);
  check_int "middle" 4 d.(4)

let test_bfs_parents_path () =
  let g = barbell_graph () in
  let parents = Bfs.parents g 0 in
  let path = Bfs.path_to ~parents ~src:0 5 in
  check_bool "starts at src" true (List.hd path = 0);
  check_bool "ends at dst" true (List.nth path (List.length path - 1) = 5);
  (* consecutive vertices adjacent *)
  let rec ok = function
    | u :: (v :: _ as rest) -> G.mem_edge g u v && ok rest
    | _ -> true
  in
  check_bool "valid path" true (ok path);
  Alcotest.(check (list int)) "self path" [ 3 ] (Bfs.path_to ~parents ~src:3 3)

(* ---------- Components ---------- *)

let test_components () =
  let g = G.of_edges ~n:7 [| (0, 1); (1, 2); (3, 4) |] in
  let c = Components.compute g in
  check_int "count" 4 (Array.length c.Components.sizes);
  let _, largest = Components.largest c in
  check_int "largest" 3 largest;
  let comp = c.Components.component in
  check_bool "same" true (comp.(0) = comp.(2));
  check_bool "not same" false (comp.(0) = comp.(3))

(* ---------- Dijkstra ---------- *)

let test_dijkstra_unit_weights_match_bfs () =
  let g = barbell_graph () in
  let dist, _ = Dijkstra.shortest_paths g ~weight:(fun _ _ -> 1.0) 0 in
  let bfs = Bfs.distances g 0 in
  for v = 0 to G.n g - 1 do
    check_float "matches BFS" (float_of_int bfs.(v)) dist.(v)
  done

let test_dijkstra_weighted_detour () =
  (* Triangle where the direct edge is expensive. *)
  let g = G.of_edges ~n:3 [| (0, 1); (1, 2); (0, 2) |] in
  let weight u v = if (u, v) = (0, 2) || (u, v) = (2, 0) then 10.0 else 1.0 in
  let dist, parent = Dijkstra.shortest_paths g ~weight 0 in
  check_float "detour wins" 2.0 dist.(2);
  check_int "via 1" 1 parent.(2);
  Alcotest.(check (list int)) "path" [ 0; 1; 2 ] (Dijkstra.shortest_path g ~weight 0 2)

let test_dijkstra_negative_weight () =
  let g = path_graph 3 in
  Alcotest.check_raises "negative"
    (Invalid_argument "Dijkstra: negative edge weight") (fun () ->
      ignore (Dijkstra.shortest_paths g ~weight:(fun _ _ -> -1.0) 0))

(* ---------- Pagerank ---------- *)

let test_pagerank_sums_to_one () =
  let g = random_graph (rng ()) ~n:50 ~m:100 in
  let pr = Pagerank.compute g in
  check_float_eps 1e-6 "total mass" 1.0 (Array.fold_left ( +. ) 0.0 pr)

let test_pagerank_cycle_uniform () =
  let g = cycle_graph 8 in
  let pr = Pagerank.compute g in
  Array.iter (fun p -> check_float_eps 1e-6 "uniform" 0.125 p) pr

let test_pagerank_star_center () =
  let g = star_graph 10 in
  let pr = Pagerank.compute g in
  for v = 1 to 9 do
    check_bool "center dominates" true (pr.(0) > pr.(v))
  done

(* ---------- Kcore ---------- *)

let test_kcore_clique () =
  let g = clique_graph 6 in
  Array.iter (fun c -> check_int "clique coreness" 5 c) (Kcore.coreness g)

let test_kcore_path () =
  let g = path_graph 6 in
  Array.iter (fun c -> check_int "path coreness" 1 c) (Kcore.coreness g)

let test_kcore_clique_with_pendant () =
  (* 4-clique (0-3) plus pendant 4 attached to 0. *)
  let g = G.of_edges ~n:5 [| (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (0, 4) |] in
  let core = Kcore.coreness g in
  check_int "clique member" 3 core.(1);
  check_int "pendant" 1 core.(4)

(* ---------- Metrics ---------- *)

let test_metrics_average_degree () =
  let g = cycle_graph 10 in
  check_float "cycle avg" 2.0 (Metrics.average_degree g)

let test_metrics_clustering_triangle () =
  let g = clique_graph 3 in
  check_float "triangle" 1.0 (Metrics.clustering_coefficient ~samples:10 ~rng:(rng ()) g)

let test_metrics_clustering_star () =
  let g = star_graph 6 in
  check_float "star" 0.0 (Metrics.clustering_coefficient ~samples:10 ~rng:(rng ()) g)

let test_metrics_hop_sample () =
  let g = path_graph 5 in
  let d = Metrics.hop_distance_sample ~rng:(rng ()) ~sources:5 g in
  (* 5 sources x 4 reachable targets each *)
  check_int "pooled count" 20 (Array.length d);
  Array.iter (fun x -> check_bool "positive" true (x >= 1 && x <= 4)) d

let test_metrics_assortativity_star () =
  let g = star_graph 10 in
  check_bool "disassortative" true (Metrics.degree_assortativity g < 0.0)

(* ---------- Dot ---------- *)

let test_dot_contains_edges () =
  let g = path_graph 3 in
  let dot = Dot.to_dot ~name:"p" g in
  check_bool "edge 0--1" true (contains ~needle:"0 -- 1" dot);
  check_bool "edge 1--2" true (contains ~needle:"1 -- 2" dot)

let test_dot_truncates () =
  let g = star_graph 100 in
  let dot = Dot.to_dot ~max_vertices:10 g in
  (* Only 9 edges among the kept top-degree vertices at most. *)
  check_bool "small output" true (String.length dot < 2000)

let suite =
  [
    ( "graph.graph",
      [
        Alcotest.test_case "dedupe & self loops" `Quick test_graph_dedupe_self_loops;
        Alcotest.test_case "neighbors sorted" `Quick test_graph_neighbors_sorted;
        Alcotest.test_case "mem_edge" `Quick test_graph_mem_edge;
        Alcotest.test_case "iter_edges once" `Quick test_graph_iter_edges_once;
        Alcotest.test_case "bad endpoint" `Quick test_graph_bad_endpoint;
        graph_qcheck_symmetric;
        graph_qcheck_degree_sum;
      ] );
    ( "graph.bfs",
      [
        Alcotest.test_case "path distances" `Quick test_bfs_path_distances;
        Alcotest.test_case "unreachable" `Quick test_bfs_unreachable;
        Alcotest.test_case "bounded" `Quick test_bfs_bounded;
        Alcotest.test_case "filtered" `Quick test_bfs_filtered;
        Alcotest.test_case "multi-source" `Quick test_bfs_multi_source;
        Alcotest.test_case "parents & path" `Quick test_bfs_parents_path;
      ] );
    ("graph.components", [ Alcotest.test_case "components" `Quick test_components ]);
    ( "graph.dijkstra",
      [
        Alcotest.test_case "unit weights = BFS" `Quick test_dijkstra_unit_weights_match_bfs;
        Alcotest.test_case "weighted detour" `Quick test_dijkstra_weighted_detour;
        Alcotest.test_case "negative weight" `Quick test_dijkstra_negative_weight;
      ] );
    ( "graph.pagerank",
      [
        Alcotest.test_case "mass conservation" `Quick test_pagerank_sums_to_one;
        Alcotest.test_case "cycle uniform" `Quick test_pagerank_cycle_uniform;
        Alcotest.test_case "star center" `Quick test_pagerank_star_center;
      ] );
    ( "graph.kcore",
      [
        Alcotest.test_case "clique" `Quick test_kcore_clique;
        Alcotest.test_case "path" `Quick test_kcore_path;
        Alcotest.test_case "clique + pendant" `Quick test_kcore_clique_with_pendant;
      ] );
    ( "graph.metrics",
      [
        Alcotest.test_case "average degree" `Quick test_metrics_average_degree;
        Alcotest.test_case "clustering triangle" `Quick test_metrics_clustering_triangle;
        Alcotest.test_case "clustering star" `Quick test_metrics_clustering_star;
        Alcotest.test_case "hop sample" `Quick test_metrics_hop_sample;
        Alcotest.test_case "assortativity" `Quick test_metrics_assortativity_star;
      ] );
    ( "graph.dot",
      [
        Alcotest.test_case "edges present" `Quick test_dot_contains_edges;
        Alcotest.test_case "truncation" `Quick test_dot_truncates;
      ] );
  ]
