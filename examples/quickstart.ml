(* Quickstart: generate a topology, pick a broker set, check what it buys.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A deterministic Internet-like AS+IXP topology (~2,600 nodes at 5%
     of the paper's scale). *)
  let params = { (Broker_topo.Internet.scaled 0.05) with seed = 1 } in
  let topo = Broker_topo.Internet.generate params in
  let g = topo.Broker_topo.Topology.graph in
  let n = Broker_graph.Graph.n g in
  Printf.printf "Topology: %d nodes, %d edges\n" n (Broker_graph.Graph.m g);

  (* 2. Select 50 brokers with the MaxSubGraph-Greedy heuristic
     (Algorithm 3 of the paper). *)
  let brokers = Broker_core.Maxsg.run g ~k:50 in
  let cov = Broker_core.Coverage.create g in
  Array.iter (Broker_core.Coverage.add cov) brokers;
  Printf.printf "Broker set: %d brokers covering %.1f%% of all nodes\n"
    (Array.length brokers)
    (100.0 *. Broker_core.Coverage.coverage_fraction cov);

  (* 3. How many end-to-end connections get a QoS-guaranteed (B-dominated)
     path? *)
  let rng = Broker_util.Xrandom.create 2 in
  let is_broker = Broker_core.Connectivity.of_brokers ~n brokers in
  let curve = Broker_core.Connectivity.sampled ~rng ~sources:128 g ~is_broker in
  Printf.printf "E2E connectivity via brokers: %.1f%% within 4 hops, %.1f%% saturated\n"
    (100.0 *. Broker_core.Connectivity.value_at curve 4)
    (100.0 *. curve.Broker_core.Connectivity.saturated);

  (* 4. Stitch an explicit broker-mediated path between two random stub
     ASes and show the business segments. *)
  let pick_stub () =
    let rec go () =
      let v = Broker_util.Xrandom.int rng n in
      if Broker_topo.Topology.is_as topo v && not (is_broker v) then v else go ()
    in
    go ()
  in
  let src = pick_stub () and dst = pick_stub () in
  match Broker_routing.Stitch.stitch g ~is_broker ~src ~dst with
  | None -> Printf.printf "No dominated path between %d and %d\n" src dst
  | Some s ->
      Printf.printf "Stitched %s -> %s in %d hops via %d broker(s), hiring %d employee AS(es)\n"
        topo.Broker_topo.Topology.names.(src)
        topo.Broker_topo.Topology.names.(dst)
        s.Broker_routing.Stitch.hops
        (Array.fold_left
           (fun acc v -> if is_broker v then acc + 1 else acc)
           0 s.Broker_routing.Stitch.path)
        (List.length s.Broker_routing.Stitch.employees);
      Printf.printf "Path: %s\n"
        (String.concat " -> "
           (List.map
              (fun v -> topo.Broker_topo.Topology.names.(v))
              (Array.to_list s.Broker_routing.Stitch.path)))
