(* Cross-module property tests: invariants that tie the substrates
   together, each checked over randomized instances. *)

open Helpers
module G = Broker_graph.Graph
module Conn = Broker_core.Connectivity

let q ?(count = 60) name arb law =
  qcheck (QCheck.Test.make ~count ~name arb law)

let seed_arb = QCheck.int_range 0 100_000

(* Connectivity is symmetric: the dominated-edge predicate is symmetric, so
   u reaches v iff v reaches u. *)
let connectivity_symmetric =
  q "dominated reachability is symmetric" graph_arbitrary (fun g ->
      let n = G.n g in
      let brokers = Broker_core.Maxsg.run g ~k:4 in
      let is_broker = Conn.of_brokers ~n brokers in
      let edge_ok = Conn.edge_ok ~is_broker in
      let ok = ref true in
      for u = 0 to min 5 (n - 1) do
        let du = Broker_graph.Bfs.distances_filtered g ~edge_ok u in
        for v = 0 to n - 1 do
          if du.(v) >= 0 then begin
            let dv = Broker_graph.Bfs.distances_filtered g ~edge_ok v in
            if dv.(u) <> du.(v) then ok := false
          end
        done
      done;
      !ok)

(* Greedy coverage is monotone in the budget. *)
let greedy_monotone_in_k =
  q "greedy coverage monotone in k" graph_arbitrary (fun g ->
      let f brokers =
        let cov = Broker_core.Coverage.create g in
        Array.iter (Broker_core.Coverage.add cov) brokers;
        Broker_core.Coverage.f cov
      in
      let prev = ref 0 in
      let ok = ref true in
      List.iter
        (fun k ->
          let v = f (Broker_core.Greedy_mcb.celf g ~k) in
          if v < !prev then ok := false;
          prev := v)
        [ 1; 2; 4; 8 ];
      !ok)

(* Exact optimum dominates greedy. *)
let exact_dominates_greedy =
  q ~count:30 "OPT >= greedy"
    QCheck.(pair seed_arb (int_range 1 3))
    (fun (seed, k) ->
      let g = random_graph (Broker_util.Xrandom.create seed) ~n:12 ~m:16 in
      let _, opt = Broker_core.Exact.mcb_opt g ~k in
      let cov = Broker_core.Coverage.create g in
      Array.iter (Broker_core.Coverage.add cov) (Broker_core.Greedy_mcb.celf g ~k);
      opt >= Broker_core.Coverage.f cov)

(* Stitch returns a shortest dominated path. *)
let stitch_shortest =
  q "stitched path is a shortest dominated path" graph_arbitrary (fun g ->
      let n = G.n g in
      let brokers = Broker_core.Maxsg.run g ~k:5 in
      let is_broker = Conn.of_brokers ~n brokers in
      let edge_ok = Conn.edge_ok ~is_broker in
      let src = 0 and dst = n - 1 in
      let dist = Broker_graph.Bfs.distances_filtered g ~edge_ok src in
      match Broker_routing.Stitch.stitch g ~is_broker ~src ~dst with
      | None -> dist.(dst) < 0 || src = dst
      | Some s ->
          s.Broker_routing.Stitch.hops = dist.(dst)
          && Broker_core.Dominating.is_dominated_path ~is_broker
               (Array.to_list s.Broker_routing.Stitch.path))

(* Components agree with union-find over the edge list. *)
let components_match_union_find =
  q "components = union-find" graph_arbitrary (fun g ->
      let n = G.n g in
      let uf = Broker_util.Union_find.create n in
      G.iter_edges g (fun u v -> ignore (Broker_util.Union_find.union uf u v));
      let c = Broker_graph.Components.compute g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let comp = c.Broker_graph.Components.component in
          let find = Broker_util.Union_find.find uf in
          if comp.(u) = comp.(v) <> (find u = find v) then ok := false
        done
      done;
      !ok)

(* Coreness is bounded by degree, and the k-core has min internal degree k. *)
let kcore_invariants =
  q "k-core invariants" graph_arbitrary (fun g ->
      let core = Broker_graph.Kcore.coreness g in
      let ok = ref true in
      Array.iteri (fun v c -> if c > G.degree g v then ok := false) core;
      let k = Array.fold_left max 0 core in
      if k > 0 then begin
        let in_core = Array.map (fun c -> c >= k) core in
        let members =
          List.filter (fun v -> in_core.(v)) (List.init (G.n g) Fun.id)
        in
        List.iter
          (fun v ->
            let internal =
              G.fold_neighbors g v (fun acc w -> if in_core.(w) then acc + 1 else acc) 0
            in
            if internal < k then ok := false)
          members
      end;
      !ok)

(* PageRank conserves probability mass on arbitrary graphs. *)
let pagerank_mass =
  q "pagerank sums to 1" graph_arbitrary (fun g ->
      let pr = Broker_graph.Pagerank.compute g in
      abs_float (Array.fold_left ( +. ) 0.0 pr -. 1.0) < 1e-6)

(* Betweenness of degree-1 vertices is zero. *)
let betweenness_leaves =
  q "leaves carry no betweenness" graph_arbitrary (fun g ->
      let c =
        Broker_graph.Betweenness.compute ~samples:(G.n g)
          ~rng:(Broker_util.Xrandom.create 1) g
      in
      let ok = ref true in
      Array.iteri (fun v x -> if G.degree g v <= 1 && x <> 0.0 then ok := false) c;
      !ok)

(* Dataset save/load is the identity on generated topologies, down to
   the relation label of every arc. *)
let dataset_roundtrip =
  q ~count:10 "dataset roundtrip" seed_arb (fun seed ->
      let t = small_internet ~seed ~scale:0.004 () in
      let path = Filename.temp_file "topo_prop" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_text path (fun oc -> Broker_topo.Dataset.save oc t);
          let t' = Broker_topo.Dataset.load ~path in
          let g = t.Broker_topo.Topology.graph in
          let label t i = Broker_topo.Relations.arc t.Broker_topo.Topology.relations i in
          G.equal g t'.Broker_topo.Topology.graph
          && t.Broker_topo.Topology.kinds = t'.Broker_topo.Topology.kinds
          && List.for_all (fun i -> label t i = label t' i) (List.init (G.arcs g) Fun.id)))

(* MCBG keeps its guarantee across beta values. *)
let mcbg_guarantee_any_beta =
  q ~count:40 "MCBG guarantee for any beta"
    QCheck.(pair seed_arb (int_range 1 8))
    (fun (seed, beta) ->
      let g = random_graph (Broker_util.Xrandom.create seed) ~n:30 ~m:45 in
      let r = Broker_core.Mcbg.run g ~k:6 ~beta in
      Broker_core.Mcbg.guarantees_dominating_paths g r.Broker_core.Mcbg.brokers)

(* Nash bargaining price sits strictly inside the bargaining interval. *)
let bargain_interior =
  q ~count:200 "bargain price interior"
    QCheck.(triple (float_range 0.1 10.0) (int_range 1 6) (float_range 0.01 1.0))
    (fun (p_b, hops, cost) ->
      match Broker_econ.Bargain.solve ~broker_price:p_b ~hops cost with
      | None -> not (Broker_econ.Bargain.feasible ~broker_price:p_b ~hops ~cost)
      | Some o ->
          let h = float_of_int hops in
          let r = (2.0 *. p_b) -. (h *. cost) in
          o.Broker_econ.Bargain.price > cost
          && o.Broker_econ.Bargain.price < r /. h
          && o.Broker_econ.Bargain.u_employee > 0.0
          && o.Broker_econ.Bargain.u_broker > 0.0)

(* Customer best responses never exceed bounds and are monotone in price. *)
let best_response_monotone =
  q ~count:100 "best response monotone in price" seed_arb (fun seed ->
      let rng = Broker_util.Xrandom.create seed in
      let c =
        (Broker_econ.Market.random_population ~rng ~n:1).(0)
      in
      let a1 = Broker_econ.Market.best_response c ~price:0.5 in
      let a2 = Broker_econ.Market.best_response c ~price:3.0 in
      let a3 = Broker_econ.Market.best_response c ~price:10.0 in
      a1 >= a2 -. 1e-6 && a2 >= a3 -. 1e-6)

(* Shapley efficiency on random monotone games. *)
let shapley_efficiency_random =
  q ~count:50 "shapley efficiency on random games" seed_arb (fun seed ->
      let rng = Broker_util.Xrandom.create seed in
      let n = 6 in
      let weights = Array.init n (fun _ -> Broker_util.Xrandom.float rng 5.0) in
      let v mask =
        (* Weighted coverage-style value: sqrt of summed weights. *)
        let acc = ref 0.0 in
        for j = 0 to n - 1 do
          if mask land (1 lsl j) <> 0 then acc := !acc +. weights.(j)
        done;
        sqrt !acc
      in
      let phi = Broker_econ.Shapley.exact ~n ~v in
      Broker_econ.Shapley.efficiency_gap ~v ~n phi < 1e-9)

(* Simulator conservation: with infinite capacity, admission equals
   path availability. *)
let sim_infinite_capacity =
  q ~count:15 "infinite capacity admits every routable session" seed_arb
    (fun seed ->
      let t = small_internet ~seed ~scale:0.005 () in
      let g = t.Broker_topo.Topology.graph in
      let brokers = Broker_core.Maxsg.run g ~k:10 in
      let rng = Broker_util.Xrandom.create seed in
      let model = Broker_core.Traffic.gravity ~rng g in
      let sessions =
        Broker_sim.Workload.generate ~rng model ~n_sessions:200
          Broker_sim.Workload.default_params
      in
      let stats =
        Broker_sim.Simulator.run t ~brokers ~sessions
          (Broker_sim.Simulator.uniform_capacity infinity)
      in
      stats.Broker_sim.Simulator.rejected_capacity = 0
      && stats.Broker_sim.Simulator.admitted
         + stats.Broker_sim.Simulator.rejected_no_path
         = 200)

(* Lemma 3: the coverage function f is submodular and nondecreasing —
   marginal gains shrink as the set grows. *)
let coverage_submodular =
  q "f is submodular (Lemma 3)" graph_arbitrary (fun g ->
      let n = G.n g in
      let rng = Broker_util.Xrandom.create 17 in
      let ok = ref true in
      for _ = 1 to 5 do
        let small = Broker_core.Coverage.create g in
        let big = Broker_core.Coverage.create g in
        (* A ⊆ B: B gets A's brokers plus extras. *)
        let a = Broker_util.Xrandom.int rng n in
        Broker_core.Coverage.add small a;
        Broker_core.Coverage.add big a;
        Broker_core.Coverage.add big (Broker_util.Xrandom.int rng n);
        Broker_core.Coverage.add big (Broker_util.Xrandom.int rng n);
        let v = Broker_util.Xrandom.int rng n in
        if Broker_core.Coverage.gain small v < Broker_core.Coverage.gain big v
        then ok := false
      done;
      !ok)

(* CELF does strictly less work than the naive greedy re-scan. *)
let celf_work_bound =
  q ~count:20 "CELF work << naive" seed_arb (fun seed ->
      let g = random_graph (Broker_util.Xrandom.create seed) ~n:200 ~m:400 in
      ignore (Broker_core.Greedy_mcb.naive g ~k:10);
      let naive_work = Broker_core.Greedy_mcb.gain_evaluations () in
      ignore (Broker_core.Greedy_mcb.celf g ~k:10);
      let celf_work = Broker_core.Greedy_mcb.gain_evaluations () in
      celf_work < naive_work)

(* Bounded coverage: radius-r covered count is monotone in r. *)
let bounded_monotone_radius =
  q "r-cover monotone in radius" graph_arbitrary (fun g ->
      let brokers = Broker_core.Maxsg.run g ~k:3 in
      let c1 = Broker_core.Bounded_coverage.covered_within g ~brokers ~radius:1 in
      let c2 = Broker_core.Bounded_coverage.covered_within g ~brokers ~radius:2 in
      let c3 = Broker_core.Bounded_coverage.covered_within g ~brokers ~radius:3 in
      c1 <= c2 && c2 <= c3)

(* Theorem 3's budget constraint: x* + (x*-1)(⌈β/2⌉-1) <= k. *)
let mcbg_budget_constraint =
  q ~count:300 "x* satisfies Theorem 3's constraint"
    QCheck.(pair (int_range 1 500) (int_range 1 16))
    (fun (k, beta) ->
      let xs = Broker_core.Mcbg.x_star ~k ~beta in
      let c = (beta + 1) / 2 in
      xs >= 1 && xs + ((xs - 1) * (c - 1)) <= k)

(* Valley-free connectivity never exceeds unconstrained connectivity on
   the same sources. *)
let directional_below_free =
  q ~count:10 "valley-free <= bidirectional" seed_arb (fun seed ->
      let t = small_internet ~seed ~scale:0.005 () in
      let g = t.Broker_topo.Topology.graph in
      let n = G.n g in
      let brokers = Broker_core.Maxsg.run g ~k:12 in
      let is_broker = Conn.of_brokers ~n brokers in
      let source_set = Array.init (min 30 n) Fun.id in
      let dir =
        Broker_core.Directional.saturated_sampled ~source_set
          ~rng:(Broker_util.Xrandom.create seed)
          ~sources:(Array.length source_set) t ~is_broker
      in
      let free =
        (Conn.eval_sources ~l_max:1 g ~is_broker source_set).Conn.saturated
      in
      dir <= free +. 1e-12)

(* Workload generation is a pure function of the seed. *)
let workload_deterministic =
  q ~count:30 "workload deterministic in seed" seed_arb (fun seed ->
      let model = { Broker_core.Traffic.masses = Array.make 10 1.0 } in
      let gen () =
        Broker_sim.Workload.generate
          ~rng:(Broker_util.Xrandom.create seed)
          model ~n_sessions:50 Broker_sim.Workload.default_params
      in
      gen () = gen ())

(* Traffic-weighted connectivity stays a fraction. *)
let traffic_fraction_bounds =
  q ~count:15 "weighted connectivity in [0,1]" seed_arb (fun seed ->
      let t = small_internet ~seed ~scale:0.005 () in
      let g = t.Broker_topo.Topology.graph in
      let rng = Broker_util.Xrandom.create seed in
      let model = Broker_core.Traffic.gravity ~rng g in
      let brokers = Broker_core.Maxsg.run g ~k:8 in
      let w =
        Broker_core.Traffic.weighted_saturated ~rng ~sources:32 g model
          ~is_broker:(Conn.of_brokers ~n:(G.n g) brokers)
      in
      w >= 0.0 && w <= 1.0 +. 1e-9)

(* Saving a loaded topology reproduces the file byte for byte. *)
let dataset_save_idempotent =
  q ~count:5 "dataset save is idempotent" seed_arb (fun seed ->
      let t = small_internet ~seed ~scale:0.003 () in
      let p1 = Filename.temp_file "idem1" ".txt" in
      let p2 = Filename.temp_file "idem2" ".txt" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove p1;
          Sys.remove p2)
        (fun () ->
          Out_channel.with_open_text p1 (fun oc -> Broker_topo.Dataset.save oc t);
          let t' = Broker_topo.Dataset.load ~path:p1 in
          Out_channel.with_open_text p2 (fun oc -> Broker_topo.Dataset.save oc t');
          let read p =
            let ic = open_in_bin p in
            let len = in_channel_length ic in
            let s = really_input_string ic len in
            close_in ic;
            s
          in
          read p1 = read p2))

let suite =
  [
    ( "properties.cross_module",
      [
        connectivity_symmetric;
        greedy_monotone_in_k;
        exact_dominates_greedy;
        stitch_shortest;
        components_match_union_find;
        kcore_invariants;
        pagerank_mass;
        betweenness_leaves;
        dataset_roundtrip;
        mcbg_guarantee_any_beta;
        bargain_interior;
        best_response_monotone;
        shapley_efficiency_random;
        sim_infinite_capacity;
        bounded_monotone_radius;
        coverage_submodular;
        celf_work_bound;
        mcbg_budget_constraint;
        directional_below_free;
        workload_deterministic;
        traffic_fraction_bounds;
        dataset_save_idempotent;
      ] );
  ]
