(* Tests for Broker_core: Coverage, Greedy_mcb, Maxsg, Mcbg, Baselines,
   Connectivity, Alpha_beta, Path_constraint, Dominating, Directional,
   Composition. *)

open Helpers
module G = Broker_graph.Graph
module Coverage = Broker_core.Coverage
module Greedy = Broker_core.Greedy_mcb
module Maxsg = Broker_core.Maxsg
module Mcbg = Broker_core.Mcbg
module Baselines = Broker_core.Baselines
module Conn = Broker_core.Connectivity
module Dominating = Broker_core.Dominating
module View = Broker_graph.View

(* ---------- Coverage ---------- *)

let test_coverage_star () =
  let g = star_graph 10 in
  let cov = Coverage.create g in
  check_int "empty f" 0 (Coverage.f cov);
  check_int "gain of center" 10 (Coverage.gain cov 0);
  check_int "gain of leaf" 2 (Coverage.gain cov 1);
  Coverage.add cov 0;
  check_int "full coverage" 10 (Coverage.f cov);
  check_int "no more gain" 0 (Coverage.gain cov 5);
  check_bool "is broker" true (Coverage.is_broker cov 0);
  check_bool "covered" true (Coverage.is_covered cov 7);
  check_float "fraction" 1.0 (Coverage.coverage_fraction cov)

let test_coverage_add_idempotent () =
  let g = path_graph 5 in
  let cov = Coverage.create g in
  Coverage.add cov 2;
  Coverage.add cov 2;
  check_int "size once" 1 (Coverage.size cov);
  Alcotest.(check (array int)) "order" [| 2 |] (Coverage.brokers cov)

let test_coverage_order () =
  let g = path_graph 6 in
  let cov = Coverage.create g in
  List.iter (Coverage.add cov) [ 3; 0; 5 ];
  Alcotest.(check (array int)) "insertion order" [| 3; 0; 5 |] (Coverage.brokers cov)

let coverage_qcheck_gain_consistent =
  qcheck
    (QCheck.Test.make ~count:100 ~name:"gain v = f(B+v) - f(B)" graph_arbitrary
       (fun g ->
         let r = Broker_util.Xrandom.create 5 in
         let cov = Coverage.create g in
         let ok = ref true in
         for _ = 1 to 5 do
           let v = Broker_util.Xrandom.int r (G.n g) in
           let predicted = Coverage.gain cov v in
           let before = Coverage.f cov in
           Coverage.add cov v;
           if Coverage.f cov - before <> predicted then ok := false
         done;
         !ok))

(* ---------- Greedy MCB ---------- *)

let test_greedy_star () =
  let g = star_graph 10 in
  let brokers = Greedy.celf g ~k:3 in
  (* The center covers everything; greedy stops after it. *)
  Alcotest.(check (array int)) "center only" [| 0 |] brokers

let test_greedy_respects_k () =
  let g = random_graph (rng ()) ~n:60 ~m:100 in
  let brokers = Greedy.celf g ~k:5 in
  check_bool "at most k" true (Array.length brokers <= 5)

let greedy_qcheck_naive_eq_celf =
  qcheck
    (QCheck.Test.make ~count:80 ~name:"naive greedy = CELF" graph_arbitrary
       (fun g ->
         Greedy.naive g ~k:6 = Greedy.celf g ~k:6))

let test_greedy_optimality_small () =
  (* Brute-force optimum for k=2 on a small fixed graph: greedy's first two
     picks must achieve >= (1 - 1/e) of it (they achieve it exactly here). *)
  let g = random_graph (Broker_util.Xrandom.create 42) ~n:14 ~m:18 in
  let best = ref 0 in
  for u = 0 to 13 do
    for v = u + 1 to 13 do
      let cov = Coverage.create g in
      Coverage.add cov u;
      Coverage.add cov v;
      if Coverage.f cov > !best then best := Coverage.f cov
    done
  done;
  let cov = Coverage.create g in
  Array.iter (Coverage.add cov) (Greedy.celf g ~k:2);
  check_bool "within (1 - 1/e) of OPT" true
    (float_of_int (Coverage.f cov) >= (1.0 -. exp (-1.0)) *. float_of_int !best)

let test_greedy_celf_into_topup () =
  let g = random_graph (rng ()) ~n:40 ~m:60 in
  let cov = Coverage.create g in
  Coverage.add cov 0;
  Greedy.celf_into cov ~k:4;
  check_bool "topped up" true (Coverage.size cov <= 4 && Coverage.size cov >= 1);
  check_bool "0 still first" true ((Coverage.brokers cov).(0) = 0)

(* ---------- MaxSG ---------- *)

let test_maxsg_star () =
  let g = star_graph 8 in
  Alcotest.(check (array int)) "center" [| 0 |] (Maxsg.run g ~k:5)

let test_maxsg_prefix_property () =
  let g = random_graph (rng ()) ~n:80 ~m:150 in
  let k5 = Maxsg.run g ~k:5 in
  let k10 = Maxsg.run g ~k:10 in
  Alcotest.(check (array int)) "prefix" k5 (Array.sub k10 0 (Array.length k5))

let maxsg_qcheck_dominating_guarantee =
  qcheck
    (QCheck.Test.make ~count:80 ~name:"MaxSG output is mutually dominated"
       graph_arbitrary (fun g ->
         let brokers = Maxsg.run g ~k:8 in
         Mcbg.guarantees_dominating_paths g brokers))

let test_maxsg_saturation_dominates_component () =
  let t = small_internet ~seed:3 ~scale:0.005 () in
  let g = t.Broker_topo.Topology.graph in
  let brokers = Maxsg.run_to_saturation g in
  let cov = Coverage.create g in
  Array.iter (Coverage.add cov) brokers;
  let comps = Broker_graph.Components.compute g in
  let largest, _ = Broker_graph.Components.largest comps in
  Array.iteri
    (fun v c ->
      if c = largest then
        check_bool "dominated" true (Coverage.is_covered cov v))
    comps.Broker_graph.Components.component

let test_maxsg_coverage_curve () =
  let g = random_graph (rng ()) ~n:50 ~m:80 in
  let brokers = Maxsg.run g ~k:10 in
  let curve = Maxsg.coverage_curve g brokers in
  check_int "one point per broker" (Array.length brokers) (Array.length curve);
  (* Coverage is nondecreasing along the curve. *)
  let ok = ref true in
  for i = 1 to Array.length curve - 1 do
    if snd curve.(i) < snd curve.(i - 1) then ok := false
  done;
  check_bool "monotone" true !ok

(* ---------- MCBG ---------- *)

let test_mcbg_budget_formulas () =
  check_int "x* k=7 beta=4" 4 (Mcbg.x_star ~k:7 ~beta:4);
  check_int "x* k=1" 1 (Mcbg.x_star ~k:1 ~beta:4);
  check_int "theta even" 4 (Mcbg.theta ~beta:4);
  check_int "theta odd" 6 (Mcbg.theta ~beta:5)

let test_mcbg_respects_k () =
  let g = random_graph (rng ()) ~n:100 ~m:160 in
  let r = Mcbg.run g ~k:10 ~beta:4 in
  check_bool "size <= k" true (Array.length r.Mcbg.brokers <= 10);
  check_bool "coverage brokers <= x*" true
    (Array.length r.Mcbg.coverage_brokers <= r.Mcbg.x_star)

let mcbg_qcheck_guarantee =
  qcheck
    (QCheck.Test.make ~count:60 ~name:"MCBG output satisfies dominating paths"
       graph_arbitrary (fun g ->
         let r = Mcbg.run g ~k:6 ~beta:4 in
         Mcbg.guarantees_dominating_paths g r.Mcbg.brokers))

let test_mcbg_connectors_on_long_path () =
  (* Coverage brokers at the two ends of a long path need connectors. *)
  let g = path_graph 9 in
  let r = Mcbg.run g ~k:9 ~beta:8 in
  check_bool "guarantee" true (Mcbg.guarantees_dominating_paths g r.Mcbg.brokers)

let test_mcbg_invalid () =
  let g = path_graph 3 in
  Alcotest.check_raises "k=0" (Invalid_argument "Mcbg.run") (fun () ->
      ignore (Mcbg.run g ~k:0 ~beta:4))

(* ---------- Baselines ---------- *)

let test_db_order () =
  let g = star_graph 6 in
  Alcotest.(check int) "center first" 0 (Baselines.db g ~k:1).(0);
  check_int "k respected" 3 (Array.length (Baselines.db g ~k:3))

let test_degree_order_monotone () =
  let g = random_graph (rng ()) ~n:50 ~m:100 in
  let order = Baselines.degree_order g in
  let ok = ref true in
  for i = 1 to Array.length order - 1 do
    if G.degree g order.(i) > G.degree g order.(i - 1) then ok := false
  done;
  check_bool "descending degrees" true !ok

let test_prb_star () =
  let g = star_graph 9 in
  Alcotest.(check int) "center first" 0 (Baselines.prb g ~k:1).(0)

let test_set_cover_dominates () =
  let g = random_graph (rng ()) ~n:60 ~m:90 in
  let brokers = Baselines.set_cover ~rng:(rng ()) g in
  let cov = Coverage.create g in
  Array.iter (Coverage.add cov) brokers;
  check_int "dominating set" (G.n g) (Coverage.f cov)

let test_ixpb_tier1 () =
  let t = small_internet ~seed:4 ~scale:0.01 () in
  let ixpb = Baselines.ixpb t ~min_degree:0 in
  Array.iter
    (fun v -> check_bool "only ixps" true (Broker_topo.Topology.is_ixp t v))
    ixpb;
  check_int "all ixps"
    (Broker_topo.Topology.count_kind t Broker_topo.Node_meta.Ixp)
    (Array.length ixpb);
  let t1 = Baselines.tier1_only t in
  Array.iter
    (fun v ->
      check_bool "tier1 kind" true
        (Broker_topo.Node_meta.kind_equal
           t.Broker_topo.Topology.kinds.(v)
           Broker_topo.Node_meta.Tier1))
    t1

(* ---------- Connectivity ---------- *)

let test_connectivity_star_center_broker () =
  let g = star_graph 5 in
  let c = Conn.exact ~l_max:4 g ~is_broker:(Conn.of_brokers ~n:5 [| 0 |]) in
  (* All 20 ordered pairs reachable: leaves at distance 2 via center. *)
  check_float "saturated" 1.0 c.Conn.saturated;
  check_float "l=2 is full" 1.0 (Conn.value_at c 2);
  (* l=1: only pairs adjacent to the center: 8 of 20. *)
  check_float "l=1" 0.4 (Conn.value_at c 1)

let test_connectivity_no_brokers () =
  let g = path_graph 4 in
  let c = Conn.exact g ~is_broker:(fun _ -> false) in
  check_float "nothing" 0.0 c.Conn.saturated

let test_connectivity_unrestricted_path () =
  let g = path_graph 4 in
  let c = Conn.exact ~l_max:3 g ~is_broker:Conn.unrestricted in
  check_float "all pairs" 1.0 c.Conn.saturated;
  (* l=1: 6 adjacent ordered pairs of 12. *)
  check_float "l=1" 0.5 (Conn.value_at c 1)

let test_connectivity_sampled_all_sources_equals_exact () =
  let g = random_graph (rng ()) ~n:30 ~m:50 in
  let is_broker = Conn.of_brokers ~n:30 (Maxsg.run g ~k:4) in
  let exact = Conn.exact ~l_max:6 g ~is_broker in
  let sampled = Conn.sampled ~l_max:6 ~rng:(rng ()) ~sources:30 g ~is_broker in
  check_float "saturated equal" exact.Conn.saturated sampled.Conn.saturated;
  for l = 1 to 6 do
    check_float "curve equal" (Conn.value_at exact l) (Conn.value_at sampled l)
  done

let test_connectivity_monotone_in_l () =
  let g = random_graph (rng ()) ~n:40 ~m:60 in
  let c = Conn.exact ~l_max:8 g ~is_broker:(Conn.of_brokers ~n:40 (Maxsg.run g ~k:5)) in
  for l = 2 to 8 do
    check_bool "nondecreasing" true (Conn.value_at c l >= Conn.value_at c (l - 1))
  done;
  check_bool "below saturated" true (Conn.value_at c 8 <= c.Conn.saturated +. 1e-12)

let conn_qcheck_broker_monotone =
  qcheck
    (QCheck.Test.make ~count:50 ~name:"more brokers never hurt connectivity"
       graph_arbitrary (fun g ->
         let n = G.n g in
         let order = Maxsg.run g ~k:8 in
         let take k = Conn.of_brokers ~n (Array.sub order 0 (min k (Array.length order))) in
         let c_small = Conn.exact ~l_max:4 g ~is_broker:(take 3) in
         let c_big = Conn.exact ~l_max:4 g ~is_broker:(take 8) in
         c_big.Conn.saturated >= c_small.Conn.saturated -. 1e-12))

(* ---------- Alpha_beta & Path_constraint ---------- *)

let test_alpha_beta_clique () =
  let g = clique_graph 12 in
  let est = Broker_core.Alpha_beta.estimate ~rng:(rng ()) ~sources:12 g ~alpha:0.99 in
  check_int "beta 1 on clique" 1 est.Broker_core.Alpha_beta.beta;
  check_float "alpha 1" 1.0 est.Broker_core.Alpha_beta.alpha

let test_alpha_beta_path () =
  let g = path_graph 16 in
  let est = Broker_core.Alpha_beta.estimate ~rng:(rng ()) ~sources:16 g ~alpha:0.5 in
  check_bool "beta mid-size" true
    (est.Broker_core.Alpha_beta.beta >= 4 && est.Broker_core.Alpha_beta.beta <= 12)

let test_alpha_beta_cdf_monotone () =
  let g = random_graph (rng ()) ~n:40 ~m:60 in
  let est = Broker_core.Alpha_beta.estimate ~rng:(rng ()) ~sources:20 g ~alpha:0.9 in
  let cdf = est.Broker_core.Alpha_beta.cdf in
  for l = 1 to Array.length cdf - 1 do
    check_bool "monotone cdf" true (cdf.(l) >= cdf.(l - 1) -. 1e-12)
  done

let test_path_constraint_self () =
  let g = random_graph (rng ()) ~n:30 ~m:60 in
  let c = Conn.exact g ~is_broker:Conn.unrestricted in
  let v = Broker_core.Path_constraint.feasible ~epsilon:1e-9 c ~target:c in
  check_bool "self feasible" true v.Broker_core.Path_constraint.feasible;
  check_float "zero deviation" 0.0 v.Broker_core.Path_constraint.max_deviation

let test_path_constraint_detects_gap () =
  let g = path_graph 10 in
  let free = Conn.exact g ~is_broker:Conn.unrestricted in
  let none = Conn.exact g ~is_broker:(fun _ -> false) in
  let v = Broker_core.Path_constraint.feasible ~epsilon:0.1 none ~target:free in
  check_bool "infeasible" false v.Broker_core.Path_constraint.feasible;
  check_bool "large deviation" true (v.Broker_core.Path_constraint.max_deviation > 0.5)

(* ---------- Dominating ---------- *)

let test_is_dominated_path () =
  let is_broker v = v = 1 in
  check_bool "dominated" true (Dominating.is_dominated_path ~is_broker [ 0; 1; 2 ]);
  check_bool "not dominated" false (Dominating.is_dominated_path ~is_broker [ 0; 2; 3 ]);
  check_bool "trivial" true (Dominating.is_dominated_path ~is_broker [ 0 ]);
  check_bool "empty" true (Dominating.is_dominated_path ~is_broker [])

let test_find_dominated_path () =
  let g = path_graph 5 in
  (* Brokers 1 and 3 dominate the whole path. *)
  let is_broker v = v = 1 || v = 3 in
  let path = Dominating.find_dominated_path g ~is_broker 0 4 in
  Alcotest.(check (list int)) "path found" [ 0; 1; 2; 3; 4 ] path;
  check_bool "dominated" true (Dominating.is_dominated_path ~is_broker path);
  (* Broker 1 only: edge (2,3) and (3,4) undominated. *)
  let path2 = Dominating.find_dominated_path g ~is_broker:(fun v -> v = 1) 0 4 in
  Alcotest.(check (list int)) "no path" [] path2;
  (* The array search: u = v is the one-vertex path, broker or not,
     isolated or not; no dominated path is [||]. *)
  let vw = View.of_graph (G.of_edges ~n:4 [| (0, 1) |]) in
  List.iter
    (fun u ->
      Alcotest.(check (array int))
        (Printf.sprintf "u = v = %d" u)
        [| u |]
        (Dominating.find_dominated_path_view vw ~is_broker:(fun _ -> false) u u))
    [ 0; 3 ];
  Alcotest.(check (array int)) "unreachable" [||]
    (Dominating.find_dominated_path_view vw ~is_broker:(fun _ -> true) 0 3);
  Alcotest.(check (array int)) "one dominated hop" [| 1; 0 |]
    (Dominating.find_dominated_path_view vw ~is_broker:(fun v -> v = 0) 1 0)

let test_dominated_path_out_of_range () =
  let g = path_graph 4 in
  let expected =
    Invalid_argument "Dominating.find_dominated_path: endpoint out of range"
  in
  List.iter
    (fun (u, v) ->
      Alcotest.check_raises (Printf.sprintf "view (%d, %d)" u v) expected (fun () ->
          ignore
            (Dominating.find_dominated_path_view (View.of_graph g)
               ~is_broker:(fun _ -> true) u v));
      Alcotest.check_raises (Printf.sprintf "graph (%d, %d)" u v) expected (fun () ->
          ignore (Dominating.find_dominated_path g ~is_broker:(fun _ -> true) u v)))
    [ (-1, 0); (0, -1); (4, 0); (0, 4); (4, 4) ]

(* The list BFS [Dominating] ran before its workspace search, kept as
   the oracle: three fresh n-word arrays per call, neighbours through
   [View.iter_neighbors] and arcs through [Connectivity.edge_ok]. *)
let oracle_dominated_path vw ~is_broker u v =
  let edge_ok = Conn.edge_ok ~is_broker in
  let n = View.n vw in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  seen.(u) <- true;
  queue.(!tail) <- u;
  incr tail;
  while !head < !tail && not seen.(v) do
    let x = queue.(!head) in
    incr head;
    View.iter_neighbors vw x (fun y ->
        if (not seen.(y)) && edge_ok x y then begin
          seen.(y) <- true;
          parent.(y) <- x;
          queue.(!tail) <- y;
          incr tail
        end)
  done;
  if not seen.(v) then []
  else begin
    let rec walk x acc = if x = u then u :: acc else walk parent.(x) (x :: acc) in
    walk v []
  end

(* The canonical rule, stated apart from any search order: distances
   from [v] by a plain BFS over the dominated arcs, then from [u] the
   smallest dominated neighbour one step closer to [v], repeatedly. *)
let canonical_dominated_path vw ~is_broker u v =
  let edge_ok = Conn.edge_ok ~is_broker in
  let dist = Array.make (View.n vw) (-1) in
  let queue = Queue.create () in
  dist.(v) <- 0;
  Queue.add v queue;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    View.iter_neighbors vw x (fun y ->
        if dist.(y) < 0 && edge_ok x y then begin
          dist.(y) <- dist.(x) + 1;
          Queue.add y queue
        end)
  done;
  let closer x best y =
    if dist.(y) = dist.(x) - 1 && edge_ok x y && (best < 0 || y < best) then y else best
  in
  let rec walk x = if x = v then [ v ] else x :: walk (View.fold_neighbors vw x (closer x) (-1)) in
  if dist.(u) < 0 then [] else walk u

type path_outcome = Same | No_dominated_path | Differs of string

(* The fixed-seed cases every dominated-path oracle runs on: random
   graphs with n 2-32, broker sets, a down set, and up to 16 random
   announcements and withdrawals through a Delta. *)
let dominated_path_cases =
  let gen =
    QCheck.Gen.(
      int_range 2 32 >>= fun n ->
      int_range 0 64 >>= fun m ->
      int_range 0 100 >>= fun broker_pct ->
      int_range 0 60 >>= fun down_pct ->
      int_range 0 16 >>= fun edits ->
      int_range 0 1_000_000 >|= fun seed -> (n, m, broker_pct, down_pct, edits, seed))
  in
  QCheck.Gen.generate ~rand:(Random.State.make [| 20 |]) ~n:300 gen

(* [same vw ~is_broker u v want] compares the searches under test with
   the FIFO oracle's answer [want] on one pair. Each case routes every
   ordered pair over the static view and over the Delta view, with the
   liveness predicate [broker && not down], and the tally follows
   SNIPPETS.md's check_prop: a fixed seed, and a count of the cases whose
   precondition failed (no pair of distinct vertices is joined by a
   dominated path, so every search can only answer [||]). All cases run
   one after another on one fresh domain, twice: by increasing n, so its
   workspace is regrown at every larger graph, and by decreasing n, so
   one workspace sized by the first case serves every smaller graph,
   search after search. *)
let check_dominated_path_cases ~what same =
  let check (n, m, broker_pct, down_pct, edits, seed) =
    let module X = Broker_util.Xrandom in
    let rng = X.create seed in
    let g = random_graph rng ~n ~m in
    let broker = Array.init n (fun _ -> X.int rng 100 < broker_pct) in
    let down = Array.init n (fun _ -> X.int rng 100 < down_pct) in
    let is_broker v = broker.(v) && not down.(v) in
    let d = Broker_graph.Delta.create g in
    for _ = 1 to edits do
      let u = X.int rng n and v = X.int rng n in
      if Broker_graph.Delta.mem_edge d u v then ignore (Broker_graph.Delta.remove_edge d u v)
      else ignore (Broker_graph.Delta.add_edge d u v)
    done;
    let dominated = ref false in
    let differs =
      List.find_map
        (fun (label, vw) ->
          let bad = ref None in
          for u = 0 to n - 1 do
            for v = 0 to n - 1 do
              let want = oracle_dominated_path vw ~is_broker u v in
              if u <> v && want <> [] then dominated := true;
              if Option.is_none !bad && not (same vw ~is_broker u v want) then
                bad := Some (Printf.sprintf "%s view: %d -> %d" label u v)
            done
          done;
          !bad)
        [ ("static", View.of_graph g); ("delta", Broker_graph.Delta.view d) ]
    in
    match differs with
    | Some what ->
        Differs
          (Printf.sprintf "n=%d m=%d brokers=%d%% down=%d%% edits=%d seed=%d: %s" n m
             broker_pct down_pct edits seed what)
    | None -> if !dominated then Same else No_dominated_path
  in
  (* Each pass runs on a domain of its own, whose workspace starts empty. *)
  let on_fresh_domain cases = Domain.join (Domain.spawn (fun () -> List.map check cases)) in
  let by_n =
    List.stable_sort
      (fun (a, _, _, _, _, _) (b, _, _, _, _, _) -> Int.compare a b)
      dominated_path_cases
  in
  let outcomes = on_fresh_domain by_n @ on_fresh_domain (List.rev by_n) in
  let regrows =
    List.length
      (List.sort_uniq Int.compare (List.map (fun (n, _, _, _, _, _) -> n) dominated_path_cases))
  in
  let count p = List.length (List.filter p outcomes) in
  let same = count (function Same -> true | No_dominated_path | Differs _ -> false) in
  let vacuous = count (function No_dominated_path -> true | Same | Differs _ -> false) in
  let failures =
    List.filter_map (function Differs d -> Some d | Same | No_dominated_path -> None) outcomes
  in
  Printf.printf
    "%d cases for the %s (%d workspace regrows by increasing n): %d agree, %d failures, \
     %d discarded (no dominated path)\n"
    (List.length outcomes) what regrows same (List.length failures) vacuous;
  List.iter print_endline failures;
  check_int "disagreements" 0 (List.length failures);
  check_bool "most cases route a dominated path" true (same > 4 * vacuous)

(* The workspace search against the FIFO oracle. *)
let test_dominated_path_oracle () =
  check_dominated_path_cases ~what:"dominated-path oracle" (fun vw ~is_broker u v want ->
      List.equal Int.equal want
        (Array.to_list (Dominating.find_dominated_path_view vw ~is_broker u v)))

(* The canonical rule against the FIFO oracle and the search, so the
   search's paths follow from the rule whatever order it explores in. *)
let test_dominated_path_canonical () =
  check_dominated_path_cases ~what:"canonical rule" (fun vw ~is_broker u v want ->
      let rule = canonical_dominated_path vw ~is_broker u v in
      List.equal Int.equal want rule
      && List.equal Int.equal rule
           (Array.to_list (Dominating.find_dominated_path_view vw ~is_broker u v)))

(* The three agree on an Internet-like graph whose brokers are a MaxSG
   prefix: hub frontiers make either side the cheaper one to expand, so
   searches meet from both sides, and the pairs with no dominated path
   are kept, so searches also run a side dry. *)
let test_dominated_path_canonical_hubs () =
  let g = (small_internet ~scale:0.05 ()).Broker_topo.Topology.graph in
  let n = G.n g in
  let brokers = Maxsg.run g ~k:(n / 100) in
  let is_broker = Conn.of_brokers ~n brokers in
  let vw = View.of_graph g in
  let rng = Broker_util.Xrandom.create 2017 in
  let routed = ref 0 and no_path = ref 0 and differs = ref [] in
  for _ = 1 to 2000 do
    let u = Broker_util.Xrandom.int rng n and v = Broker_util.Xrandom.int rng n in
    let fifo = oracle_dominated_path vw ~is_broker u v in
    let rule = canonical_dominated_path vw ~is_broker u v in
    let got = Array.to_list (Dominating.find_dominated_path_view vw ~is_broker u v) in
    if fifo = [] then incr no_path else incr routed;
    if not (List.equal Int.equal fifo rule && List.equal Int.equal rule got) then
      differs := (u, v) :: !differs
  done;
  Printf.printf "2000 pairs, n = %d, %d brokers: %d routed, %d with no dominated path, %d differ\n"
    n (Array.length brokers) !routed !no_path (List.length !differs);
  List.iter (fun (u, v) -> Printf.printf "differs: %d -> %d\n" u v) !differs;
  check_int "disagreements" 0 (List.length !differs);
  check_bool "both kinds of pair" true (!routed > 0 && !no_path > 0)

(* A removal (a broker going down, or an edge withdrawn through a Delta)
   that leaves every arc of a computed path present and dominated leaves
   the search's answer unchanged: the path is still a shortest dominated
   path, and a lexicographically smaller shortest one in the smaller
   graph would have existed in the larger one too. Shard_cache's Flush
   keeps exactly such entries across a crash. *)
let dominating_qcheck_removal_keeps_path =
  qcheck
    (QCheck.Test.make ~count:200 ~name:"a removal that keeps the path keeps it"
       QCheck.(
         make
           Gen.(
             quad (int_range 2 24) (int_range 0 60) (int_range 0 100)
               (int_range 0 1_000_000)))
       (fun (n, m, broker_pct, seed) ->
         let module X = Broker_util.Xrandom in
         let rng = X.create seed in
         let g = random_graph rng ~n ~m in
         let broker = Array.init n (fun _ -> X.int rng 100 < broker_pct) in
         let crashed = X.int rng n in
         let is_broker v = broker.(v) in
         let after_crash v = broker.(v) && v <> crashed in
         let edges = ref [] in
         G.iter_edges g (fun a b -> edges := (a, b) :: !edges);
         let edges = Array.of_list !edges in
         let wa, wb = edges.(X.int rng (Array.length edges)) in
         let d = Broker_graph.Delta.create g in
         ignore (Broker_graph.Delta.remove_edge d wa wb);
         let before = View.of_graph g and withdrawn = Broker_graph.Delta.view d in
         let uses_edge p =
           let rec go = function
             | a :: (b :: _ as rest) -> (a = wa && b = wb) || (a = wb && b = wa) || go rest
             | [ _ ] | [] -> false
           in
           go p
         in
         let ok = ref true in
         for u = 0 to n - 1 do
           for v = 0 to n - 1 do
             let path = Dominating.find_dominated_path_view before ~is_broker u v in
             let p = Array.to_list path in
             if p <> [] && Dominating.is_dominated_path ~is_broker:after_crash p then
               ok :=
                 !ok
                 && Dominating.find_dominated_path_view before ~is_broker:after_crash u v = path;
             if p <> [] && not (uses_edge p) then
               ok := !ok && Dominating.find_dominated_path_view withdrawn ~is_broker u v = path
           done
         done;
         !ok))

(* Allocation gate: after one warm-up search has sized the workspace, a
   search allocates its result and nothing else, so 1,000 of them on a
   scale-0.05 graph put fewer than n words directly on the major heap
   (the three fresh n-word arrays of the list BFS put 3n there per
   search). Direct major words are [major_words - promoted_words]. *)
let test_dominated_path_noalloc () =
  let g = (small_internet ~scale:0.05 ()).Broker_topo.Topology.graph in
  let n = G.n g in
  let brokers = Array.sub (Baselines.degree_order g) 0 (n / 20) in
  let is_broker = Conn.of_brokers ~n brokers in
  let vw = View.of_graph g in
  let rng = Broker_util.Xrandom.create 2026 in
  let us = Array.init 1000 (fun _ -> Broker_util.Xrandom.int rng n) in
  let vs = Array.init 1000 (fun _ -> Broker_util.Xrandom.int rng n) in
  ignore (Dominating.find_dominated_path_view vw ~is_broker us.(0) vs.(0));
  let found = ref 0 in
  let s0 = Gc.quick_stat () in
  for i = 0 to 999 do
    if Array.length (Dominating.find_dominated_path_view vw ~is_broker us.(i) vs.(i)) > 0
    then incr found
  done;
  let s1 = Gc.quick_stat () in
  let direct =
    s1.Gc.major_words -. s0.Gc.major_words -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  Printf.printf "1000 searches, %d paths found, n = %d: %.0f direct major words\n" !found n
    direct;
  check_bool "most pairs are routed" true (!found > 500);
  check_bool "fewer than n direct major words" true (direct < float_of_int n)

let test_broker_only_star () =
  let g = star_graph 6 in
  let r = Dominating.broker_only_fraction ~rng:(rng ()) ~sources:6 g ~brokers:[| 0 |] in
  check_float "everything through the hub" 1.0 r.Dominating.broker_only_pairs;
  check_float "ratio" 1.0 r.Dominating.ratio

let test_broker_only_partial () =
  (* Path 0-1-2-3-4 with broker 1: pairs among {0,1,2} are broker-only;
     3,4 unreachable. *)
  let g = path_graph 5 in
  let r = Dominating.broker_only_fraction ~rng:(rng ()) ~sources:5 g ~brokers:[| 1 |] in
  (* Ordered pairs total 20; {0,1,2} pairwise = 6. *)
  check_float "broker-only pairs" 0.3 r.Dominating.broker_only_pairs;
  check_float "saturated equals" 0.3 r.Dominating.saturated_pairs;
  check_float "ratio 1" 1.0 r.Dominating.ratio

(* ---------- Composition ---------- *)

let test_composition_shares () =
  let t = small_internet ~seed:8 ~scale:0.01 () in
  let brokers = Maxsg.run t.Broker_topo.Topology.graph ~k:30 in
  let shares = Broker_core.Composition.shares t ~brokers in
  let total =
    List.fold_left (fun acc (s : Broker_core.Composition.share) -> acc + s.Broker_core.Composition.count) 0 shares
  in
  check_int "shares partition brokers" (Array.length brokers) total;
  let frac =
    List.fold_left (fun acc (s : Broker_core.Composition.share) -> acc +. s.Broker_core.Composition.fraction) 0.0 shares
  in
  check_float_eps 1e-9 "fractions sum to 1" 1.0 frac

let test_composition_ranking () =
  let t = small_internet ~seed:8 ~scale:0.01 () in
  let brokers = Maxsg.run t.Broker_topo.Topology.graph ~k:10 in
  let ranked = Broker_core.Composition.ranking t ~brokers in
  check_int "all ranked" 10 (Array.length ranked);
  Array.iteri
    (fun i r ->
      check_int "rank order" (i + 1) r.Broker_core.Composition.rank;
      check_int "node matches" brokers.(i) r.Broker_core.Composition.node)
    ranked

let suite =
  [
    ( "core.coverage",
      [
        Alcotest.test_case "star" `Quick test_coverage_star;
        Alcotest.test_case "idempotent add" `Quick test_coverage_add_idempotent;
        Alcotest.test_case "insertion order" `Quick test_coverage_order;
        coverage_qcheck_gain_consistent;
      ] );
    ( "core.greedy_mcb",
      [
        Alcotest.test_case "star" `Quick test_greedy_star;
        Alcotest.test_case "respects k" `Quick test_greedy_respects_k;
        Alcotest.test_case "near-optimal small" `Quick test_greedy_optimality_small;
        Alcotest.test_case "celf_into topup" `Quick test_greedy_celf_into_topup;
        greedy_qcheck_naive_eq_celf;
      ] );
    ( "core.maxsg",
      [
        Alcotest.test_case "star" `Quick test_maxsg_star;
        Alcotest.test_case "prefix property" `Quick test_maxsg_prefix_property;
        Alcotest.test_case "saturation dominates" `Quick test_maxsg_saturation_dominates_component;
        Alcotest.test_case "coverage curve" `Quick test_maxsg_coverage_curve;
        maxsg_qcheck_dominating_guarantee;
      ] );
    ( "core.mcbg",
      [
        Alcotest.test_case "budget formulas" `Quick test_mcbg_budget_formulas;
        Alcotest.test_case "respects k" `Quick test_mcbg_respects_k;
        Alcotest.test_case "long path connectors" `Quick test_mcbg_connectors_on_long_path;
        Alcotest.test_case "invalid input" `Quick test_mcbg_invalid;
        mcbg_qcheck_guarantee;
      ] );
    ( "core.baselines",
      [
        Alcotest.test_case "db" `Quick test_db_order;
        Alcotest.test_case "degree order" `Quick test_degree_order_monotone;
        Alcotest.test_case "prb" `Quick test_prb_star;
        Alcotest.test_case "set cover dominates" `Quick test_set_cover_dominates;
        Alcotest.test_case "ixpb & tier1" `Quick test_ixpb_tier1;
      ] );
    ( "core.connectivity",
      [
        Alcotest.test_case "star broker" `Quick test_connectivity_star_center_broker;
        Alcotest.test_case "no brokers" `Quick test_connectivity_no_brokers;
        Alcotest.test_case "unrestricted" `Quick test_connectivity_unrestricted_path;
        Alcotest.test_case "sampled = exact" `Quick test_connectivity_sampled_all_sources_equals_exact;
        Alcotest.test_case "monotone in l" `Quick test_connectivity_monotone_in_l;
        conn_qcheck_broker_monotone;
      ] );
    ( "core.alpha_beta",
      [
        Alcotest.test_case "clique" `Quick test_alpha_beta_clique;
        Alcotest.test_case "path" `Quick test_alpha_beta_path;
        Alcotest.test_case "cdf monotone" `Quick test_alpha_beta_cdf_monotone;
      ] );
    ( "core.path_constraint",
      [
        Alcotest.test_case "self feasible" `Quick test_path_constraint_self;
        Alcotest.test_case "detects gap" `Quick test_path_constraint_detects_gap;
      ] );
    ( "core.dominating",
      [
        Alcotest.test_case "predicate" `Quick test_is_dominated_path;
        Alcotest.test_case "find path" `Quick test_find_dominated_path;
        Alcotest.test_case "out-of-range endpoint" `Quick test_dominated_path_out_of_range;
        Alcotest.test_case "workspace = list oracle" `Quick test_dominated_path_oracle;
        Alcotest.test_case "canonical rule = list oracle = search" `Quick
          test_dominated_path_canonical;
        Alcotest.test_case "canonical rule on hub frontiers" `Quick
          test_dominated_path_canonical_hubs;
        dominating_qcheck_removal_keeps_path;
        Alcotest.test_case "no allocation per search" `Quick test_dominated_path_noalloc;
        Alcotest.test_case "broker-only star" `Quick test_broker_only_star;
        Alcotest.test_case "broker-only partial" `Quick test_broker_only_partial;
      ] );
    ( "core.composition",
      [
        Alcotest.test_case "shares" `Quick test_composition_shares;
        Alcotest.test_case "ranking" `Quick test_composition_ranking;
      ] );
  ]
