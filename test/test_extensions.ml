(* Tests for the reproduction extensions: Betweenness, Exact solvers,
   Resilience, Traffic, Bounded_coverage, Churn, and the extension
   experiments' invariants. *)

open Helpers
module G = Broker_graph.Graph
module Betweenness = Broker_graph.Betweenness
module Exact = Broker_core.Exact
module Resilience = Broker_core.Resilience
module Traffic = Broker_core.Traffic
module Bounded = Broker_core.Bounded_coverage
module Conn = Broker_core.Connectivity

(* ---------- Betweenness ---------- *)

let test_betweenness_star () =
  let g = star_graph 8 in
  let c = Betweenness.compute ~samples:8 ~rng:(rng ()) g in
  (* Every leaf pair routes through the center; leaves carry nothing. *)
  for v = 1 to 7 do
    check_float "leaf zero" 0.0 c.(v);
    check_bool "center dominates" true (c.(0) > c.(v))
  done;
  Alcotest.(check int) "top is center" 0 (Betweenness.top ~samples:8 ~rng:(rng ()) g ~k:1).(0)

let test_betweenness_path_exact () =
  (* Path 0-1-2-3-4 (full Brandes since n <= samples). Betweenness of the
     middle vertex 2: pairs (0,3),(0,4),(1,3),(1,4) in both directions plus
     (1,3)... standard value: vertex 2 lies on 4 of the shortest paths each
     direction = 8 directed dependencies. *)
  let g = path_graph 5 in
  let c = Betweenness.compute ~samples:5 ~rng:(rng ()) g in
  check_float "endpoints zero" 0.0 c.(0);
  check_float "middle" 8.0 c.(2);
  check_float "off middle" 6.0 c.(1)

let test_betweenness_cycle_uniform () =
  let g = cycle_graph 6 in
  let c = Betweenness.compute ~samples:6 ~rng:(rng ()) g in
  for v = 1 to 5 do
    check_float_eps 1e-9 "symmetric" c.(0) c.(v)
  done

(* ---------- Exact ---------- *)

let test_exact_mcb_star () =
  let g = star_graph 7 in
  let set, value = Exact.mcb_opt g ~k:1 in
  Alcotest.(check (array int)) "center" [| 0 |] set;
  check_int "covers all" 7 value

let test_exact_matches_greedy_on_easy () =
  (* Star (5 nodes) + disjoint 4-path: optimum k=2 = center (covers 5) +
     either interior path vertex (covers 3 of the 4) = 8. *)
  let g = G.of_edges ~n:9 [| (0, 1); (0, 2); (0, 3); (0, 4); (5, 6); (6, 7); (7, 8) |] in
  let _, opt = Exact.mcb_opt g ~k:2 in
  check_int "opt value" 8 opt;
  let _, opt3 = Exact.mcb_opt g ~k:3 in
  check_int "k=3 covers all" 9 opt3

let test_exact_greedy_bound () =
  (* Lemma 4: greedy >= (1 - 1/e) OPT, on a batch of random graphs. *)
  let r = rng () in
  for _ = 1 to 20 do
    let g = random_graph r ~n:14 ~m:20 in
    let k = 3 in
    let _, opt = Exact.mcb_opt g ~k in
    let cov = Broker_core.Coverage.create g in
    Array.iter (Broker_core.Coverage.add cov) (Broker_core.Greedy_mcb.celf g ~k);
    check_bool "greedy bound" true
      (float_of_int (Broker_core.Coverage.f cov)
      >= ((1.0 -. exp (-1.0)) *. float_of_int opt) -. 1e-9)
  done

let test_exact_mcbg_guarantee () =
  let r = rng () in
  for _ = 1 to 10 do
    let g = random_graph r ~n:12 ~m:14 in
    let set, value = Exact.mcbg_opt g ~k:3 in
    check_bool "guarantee holds" true (Broker_core.Mcbg.guarantees_dominating_paths g set);
    let _, mcb_value = Exact.mcb_opt g ~k:3 in
    check_bool "mcbg <= mcb" true (value <= mcb_value)
  done

let test_exact_too_large () =
  let g = path_graph 30 in
  Alcotest.check_raises "n > 25"
    (Invalid_argument "Exact: graph too large for enumeration") (fun () ->
      ignore (Exact.mcb_opt g ~k:2))

(* ---------- Resilience ---------- *)

let test_resilience_zero_failures () =
  let g = random_graph (rng ()) ~n:60 ~m:100 in
  let brokers = Broker_core.Maxsg.run g ~k:8 in
  let alive =
    Resilience.survivors ~rng:(rng ()) g ~brokers ~model:Resilience.Random
      ~fraction:0.0
  in
  Alcotest.(check (array int)) "all alive" brokers alive

let test_resilience_targeted_kills_hubs () =
  let g = star_graph 10 in
  let brokers = [| 0; 1; 2 |] in
  let alive =
    Resilience.survivors ~rng:(rng ()) g ~brokers ~model:Resilience.Targeted
      ~fraction:0.34
  in
  (* One broker dies: the center (highest degree). *)
  check_int "one died" 2 (Array.length alive);
  check_bool "center gone" true (not (Array.mem 0 alive))

let test_resilience_monotone_degradation () =
  let t = small_internet ~seed:13 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let brokers = Broker_core.Maxsg.run g ~k:20 in
  List.iter
    (fun model ->
      let points =
        Resilience.degradation ~rng:(rng ()) ~sources:32 g ~brokers ~model
          ~fractions:[ 0.0; 0.25; 0.5 ]
      in
      let rec check_mono = function
        | (a : Resilience.point) :: (b :: _ as rest) ->
            check_bool "monotone" true
              (b.Resilience.connectivity <= a.Resilience.connectivity +. 1e-12);
            check_mono rest
        | [ _ ] | [] -> ()
      in
      check_mono points)
    [ Resilience.Random; Resilience.Targeted ]

let test_resilience_bad_fraction () =
  let g = path_graph 4 in
  Alcotest.check_raises "fraction" (Invalid_argument "Resilience: fraction in [0,1]")
    (fun () ->
      ignore
        (Resilience.survivors ~rng:(rng ()) g ~brokers:[| 0 |]
           ~model:Resilience.Random ~fraction:2.0))

(* ---------- Traffic ---------- *)

let test_traffic_masses_normalized () =
  let g = random_graph (rng ()) ~n:100 ~m:200 in
  let m = Traffic.gravity ~rng:(rng ()) g in
  check_int "one mass per node" 100 (Array.length m.Traffic.masses);
  Array.iter (fun x -> check_bool "positive" true (x > 0.0)) m.Traffic.masses;
  check_float_eps 1e-6 "mean one" 1.0
    (Array.fold_left ( +. ) 0.0 m.Traffic.masses /. 100.0)

let test_traffic_full_broker_serves_all () =
  let g = random_graph (rng ()) ~n:50 ~m:120 in
  let m = Traffic.gravity ~rng:(rng ()) g in
  (* Connected-ish graph with every node a broker: ~100% of demand. *)
  let w =
    Traffic.weighted_saturated ~rng:(rng ()) ~sources:64 g m ~is_broker:(fun _ -> true)
  in
  check_bool "nearly all traffic" true (w > 0.95)

let test_traffic_weighting_favors_hubs () =
  (* Star: broker = center. Every pair served either way, so compare a
     *partial* setting: two disjoint stars bridged; broker set covers one
     side. The covered side has the heavy masses by construction. *)
  let t = small_internet ~seed:21 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let n = G.n g in
  let m = Traffic.gravity ~rng:(rng ()) g in
  let brokers = Broker_core.Maxsg.run g ~k:8 in
  let is_broker = Conn.of_brokers ~n brokers in
  let weighted = Traffic.weighted_saturated ~rng:(rng ()) ~sources:96 g m ~is_broker in
  let unweighted =
    (Conn.sampled ~l_max:1 ~rng:(rng ()) ~sources:96 g ~is_broker).Conn.saturated
  in
  check_bool "traffic share exceeds pair share" true (weighted > unweighted)

(* The per-source estimator the batched one must reproduce bit for bit:
   the same draws in the same order, each row summing the masses at
   positive filtered-BFS distance in increasing vertex order. Source
   counts straddle the 63-lane batches: 1, 62, 63, 64 and 127. *)
let traffic_reference ~rng ~sources g (m : Traffic.model) ~is_broker =
  let draw = Broker_util.Sampling.weighted_alias m.Traffic.masses in
  let edge_ok = Conn.edge_ok ~is_broker in
  let mass_total = Array.fold_left ( +. ) 0.0 m.Traffic.masses in
  let served = ref 0.0 and possible = ref 0.0 in
  for _ = 1 to sources do
    let s = draw rng in
    let dist = Broker_graph.Bfs.distances_filtered g ~edge_ok s in
    let row = ref 0.0 in
    Array.iteri (fun v d -> if d > 0 then row := !row +. m.Traffic.masses.(v)) dist;
    served := !served +. !row;
    possible := !possible +. (mass_total -. m.Traffic.masses.(s))
  done;
  if !possible = 0.0 then 0.0 else !served /. !possible

let test_traffic_matches_reference () =
  let t = small_internet ~seed:21 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let m = Traffic.gravity ~rng:(rng ()) g in
  let is_broker = Conn.of_brokers ~n:(G.n g) (Broker_core.Maxsg.run g ~k:8) in
  List.iter
    (fun sources ->
      let got = Traffic.weighted_saturated ~rng:(rng ()) ~sources g m ~is_broker in
      let want = traffic_reference ~rng:(rng ()) ~sources g m ~is_broker in
      Alcotest.(check string)
        (Printf.sprintf "%d sources, bitwise" sources)
        (Printf.sprintf "%h" want) (Printf.sprintf "%h" got))
    [ 1; 62; 63; 64; 127 ]

(* ---------- Bounded_coverage ---------- *)

let test_bounded_radius1_matches_maxsg_objective () =
  let g = random_graph (rng ()) ~n:60 ~m:100 in
  let b1 = Bounded.run g ~k:6 ~radius:1 in
  let maxsg = Broker_core.Maxsg.run g ~k:6 in
  (* Same objective and same tie-breaking: identical selections. *)
  Alcotest.(check (array int)) "radius-1 = MaxSG" maxsg b1

let test_bounded_covers_within_radius () =
  let t = small_internet ~seed:31 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let b = Bounded.run g ~k:40 ~radius:2 in
  let _, giant =
    Broker_graph.Components.largest (Broker_graph.Components.compute g)
  in
  let covered = Bounded.covered_within g ~brokers:b ~radius:2 in
  check_bool "giant component 2-covered" true (covered >= giant)

let test_bounded_guarantee () =
  let g = random_graph (rng ()) ~n:70 ~m:120 in
  let b = Bounded.run g ~k:10 ~radius:2 in
  check_bool "mutual domination kept" true
    (Broker_core.Mcbg.guarantees_dominating_paths g b)

let test_bounded_invalid_radius () =
  Alcotest.check_raises "radius 0"
    (Invalid_argument "Bounded_coverage.run: radius >= 1") (fun () ->
      ignore (Bounded.run (path_graph 4) ~k:2 ~radius:0))

let test_covered_within_path () =
  let g = path_graph 7 in
  check_int "radius 2 around middle" 5 (Bounded.covered_within g ~brokers:[| 3 |] ~radius:2);
  check_int "radius 1" 3 (Bounded.covered_within g ~brokers:[| 3 |] ~radius:1)

(* ---------- Regions ---------- *)

let test_regions_partition_total () =
  let g = random_graph (rng ()) ~n:80 ~m:150 in
  let regions = Broker_core.Regions.partition g ~k:4 in
  check_int "every vertex assigned" 80 (Array.length regions);
  Array.iter (fun r -> check_bool "valid id" true (r >= 0 && r < 4)) regions;
  let sizes = Broker_core.Regions.region_sizes regions ~k:4 in
  check_int "sizes partition" 80 (Array.fold_left ( + ) 0 sizes)

let test_regions_k1 () =
  let g = path_graph 10 in
  let regions = Broker_core.Regions.partition g ~k:1 in
  Array.iter (fun r -> check_int "single region" 0 r) regions

let test_regions_path_split () =
  (* On a path, 2 farthest-point seeds are the two ends: the partition
     splits the path roughly in half. *)
  let g = path_graph 10 in
  let regions = Broker_core.Regions.partition g ~k:2 in
  let sizes = Broker_core.Regions.region_sizes regions ~k:2 in
  check_bool "both regions populated" true (sizes.(0) >= 4 && sizes.(1) >= 4)

let test_regions_seeded_selection () =
  let t = small_internet ~seed:51 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let regions = Broker_core.Regions.partition g ~k:4 in
  let brokers = Broker_core.Regions.seeded_selection g ~regions ~k:20 in
  check_bool "k respected" true (Array.length brokers <= 20);
  (* Every region hosts at least one broker. *)
  let hosts = Array.make 4 false in
  Array.iter (fun b -> hosts.(regions.(b)) <- true) brokers;
  Array.iteri
    (fun r populated ->
      let sizes = Broker_core.Regions.region_sizes regions ~k:4 in
      if sizes.(r) > 0 then check_bool "region seeded" true populated)
    hosts

let test_regions_fairness_bounds () =
  let t = small_internet ~seed:51 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let regions = Broker_core.Regions.partition g ~k:4 in
  let brokers = Broker_core.Maxsg.run g ~k:15 in
  let f = Broker_core.Regions.coverage_fairness g ~regions ~n_regions:4 ~brokers in
  check_bool "jain in (0,1]" true (f.Broker_core.Regions.jain > 0.0 && f.Broker_core.Regions.jain <= 1.0 +. 1e-9);
  check_bool "min <= max" true (f.Broker_core.Regions.min_region <= f.Broker_core.Regions.max_region);
  Array.iter
    (fun x -> check_bool "fractions" true (x >= 0.0 && x <= 1.0))
    f.Broker_core.Regions.per_region

(* ---------- Churn ---------- *)

let test_churn_preserves_ids () =
  let t = small_internet ~seed:41 ~scale:0.01 () in
  let n0 = Broker_topo.Topology.n t in
  let grown = Broker_topo.Churn.grow ~rng:(rng ()) t ~new_ases:50 in
  check_int "size" (n0 + 50) (Broker_topo.Topology.n grown);
  (* Old nodes keep kind, tier, name. *)
  for v = 0 to n0 - 1 do
    check_bool "kind kept" true
      (Broker_topo.Node_meta.kind_equal
         t.Broker_topo.Topology.kinds.(v)
         grown.Broker_topo.Topology.kinds.(v))
  done;
  (* Old edges survive. *)
  G.iter_edges t.Broker_topo.Topology.graph (fun u v ->
      check_bool "edge kept" true (G.mem_edge grown.Broker_topo.Topology.graph u v))

let test_churn_new_nodes_attached () =
  let t = small_internet ~seed:41 ~scale:0.01 () in
  let n0 = Broker_topo.Topology.n t in
  let grown = Broker_topo.Churn.grow ~rng:(rng ()) t ~new_ases:30 in
  let g = grown.Broker_topo.Topology.graph in
  for v = n0 to n0 + 29 do
    check_bool "has providers" true (G.degree g v >= 1);
    (* All new relations recorded. *)
    G.iter_neighbors g v (fun w ->
        check_bool "relation recorded" true
          (Broker_topo.Relations.find grown.Broker_topo.Topology.relations v w
          <> None))
  done

let test_churn_zero_growth () =
  let t = small_internet ~seed:41 ~scale:0.01 () in
  let grown = Broker_topo.Churn.grow ~rng:(rng ()) t ~new_ases:0 in
  check_int "unchanged size" (Broker_topo.Topology.n t) (Broker_topo.Topology.n grown)

let suite =
  [
    ( "graph.betweenness",
      [
        Alcotest.test_case "star" `Quick test_betweenness_star;
        Alcotest.test_case "path exact" `Quick test_betweenness_path_exact;
        Alcotest.test_case "cycle symmetric" `Quick test_betweenness_cycle_uniform;
      ] );
    ( "core.exact",
      [
        Alcotest.test_case "mcb star" `Quick test_exact_mcb_star;
        Alcotest.test_case "easy optimum" `Quick test_exact_matches_greedy_on_easy;
        Alcotest.test_case "greedy bound (Lemma 4)" `Quick test_exact_greedy_bound;
        Alcotest.test_case "mcbg guarantee" `Quick test_exact_mcbg_guarantee;
        Alcotest.test_case "size limit" `Quick test_exact_too_large;
      ] );
    ( "core.resilience",
      [
        Alcotest.test_case "zero failures" `Quick test_resilience_zero_failures;
        Alcotest.test_case "targeted kills hubs" `Quick test_resilience_targeted_kills_hubs;
        Alcotest.test_case "monotone degradation" `Quick test_resilience_monotone_degradation;
        Alcotest.test_case "bad fraction" `Quick test_resilience_bad_fraction;
      ] );
    ( "core.traffic",
      [
        Alcotest.test_case "masses normalized" `Quick test_traffic_masses_normalized;
        Alcotest.test_case "full broker set" `Quick test_traffic_full_broker_serves_all;
        Alcotest.test_case "favors hubs" `Quick test_traffic_weighting_favors_hubs;
        Alcotest.test_case "batched = per-source reference" `Quick
          test_traffic_matches_reference;
      ] );
    ( "core.bounded_coverage",
      [
        Alcotest.test_case "radius 1 = MaxSG" `Quick test_bounded_radius1_matches_maxsg_objective;
        Alcotest.test_case "covers within radius" `Quick test_bounded_covers_within_radius;
        Alcotest.test_case "guarantee kept" `Quick test_bounded_guarantee;
        Alcotest.test_case "invalid radius" `Quick test_bounded_invalid_radius;
        Alcotest.test_case "covered_within path" `Quick test_covered_within_path;
      ] );
    ( "core.regions",
      [
        Alcotest.test_case "partition totals" `Quick test_regions_partition_total;
        Alcotest.test_case "k=1" `Quick test_regions_k1;
        Alcotest.test_case "path split" `Quick test_regions_path_split;
        Alcotest.test_case "seeded selection" `Quick test_regions_seeded_selection;
        Alcotest.test_case "fairness bounds" `Quick test_regions_fairness_bounds;
      ] );
    ( "topo.churn",
      [
        Alcotest.test_case "ids preserved" `Quick test_churn_preserves_ids;
        Alcotest.test_case "new nodes attached" `Quick test_churn_new_nodes_attached;
        Alcotest.test_case "zero growth" `Quick test_churn_zero_growth;
      ] );
  ]
