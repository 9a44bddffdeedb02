(* Tests for valley-free policy machinery: Bgp, Stitch, and
   Broker_core.Directional, against a brute-force valley-free path
   predicate kept here as the oracle. Uses a small hand-built topology
   with known business relationships. *)

open Helpers
module G = Broker_graph.Graph
module Nm = Broker_topo.Node_meta
module Rel = Broker_topo.Relations
module T = Broker_topo.Topology
module Bgp = Broker_routing.Bgp
module Directional = Broker_core.Directional
module Conn = Broker_core.Connectivity

(* Hand-built topology:

      0 ------- 1        tier-1 peers
     / \         \
    2   3         4      transit (customers of tier-1)
    |   |        / \
    5   6       7   8    stubs (customers of transit)

    plus IXP 9 with members 2 and 4 (peering fabric),
    plus a direct peering link 3 -- 4.                      *)
let fixture () =
  let edges =
    [|
      (0, 1); (0, 2); (0, 3); (1, 4); (2, 5); (3, 6); (4, 7); (4, 8); (2, 9);
      (4, 9); (3, 4);
    |]
  in
  let graph = G.of_edges ~n:10 edges in
  let kinds =
    [|
      Nm.Tier1; Nm.Tier1; Nm.Transit; Nm.Transit; Nm.Transit; Nm.Enterprise;
      Nm.Content; Nm.Access; Nm.Enterprise; Nm.Ixp;
    |]
  in
  let tiers = [| 1; 1; 2; 2; 2; 3; 3; 3; 3; 0 |] in
  let names = Array.init 10 (fun i -> Printf.sprintf "N%d" i) in
  let relations = Rel.create graph in
  Rel.add_peer relations 0 1;
  Rel.add_c2p relations ~customer:2 ~provider:0;
  Rel.add_c2p relations ~customer:3 ~provider:0;
  Rel.add_c2p relations ~customer:4 ~provider:1;
  Rel.add_c2p relations ~customer:5 ~provider:2;
  Rel.add_c2p relations ~customer:6 ~provider:3;
  Rel.add_c2p relations ~customer:7 ~provider:4;
  Rel.add_c2p relations ~customer:8 ~provider:4;
  Rel.add_ixp_member relations ~as_node:2 ~ixp:9;
  Rel.add_ixp_member relations ~as_node:4 ~ixp:9;
  Rel.add_peer relations 3 4;
  { T.graph; kinds; tiers; names; relations }

(* ---------- Valley-free oracle ---------- *)

(* The Gao–Rexford path rule stated hop by hop, independent of
   [Directional]'s two-phase sweep: it is the oracle that engine is
   checked against below. *)
module Policy = struct
  type hop_class = Up | Down | Flat | Into_fabric | Out_of_fabric

  let classify topo u v =
    if not (G.mem_edge topo.T.graph u v) then
      invalid_arg "Policy.classify: not an edge";
    if T.is_ixp topo v then Into_fabric
    else if T.is_ixp topo u then Out_of_fabric
    else if Rel.customer_of topo.T.relations u v then Up
    else if Rel.customer_of topo.T.relations v u then Down
    else Flat

  (* State machine: 0 = ascending, 1 = descending. The single permitted
     "peak" is a Flat hop or an AS→IXP→AS fabric crossing. *)
  let valley_free topo path =
    let rec walk state = function
      | u :: (v :: _ as rest) ->
          if not (G.mem_edge topo.T.graph u v) then false
          else begin
            match (classify topo u v, state) with
            | Up, 0 -> walk 0 rest
            | Up, _ -> false
            | Down, _ -> walk 1 rest
            | Flat, 0 -> walk 1 rest
            | Flat, _ -> false
            | Into_fabric, 0 -> walk 0 rest
            | Into_fabric, _ -> false
            | Out_of_fabric, 0 -> walk 1 rest
            | Out_of_fabric, _ -> false
          end
      | [ _ ] | [] -> true
    in
    walk 0 path
end

let test_policy_classify () =
  let t = fixture () in
  check_bool "up" true (Policy.classify t 2 0 = Policy.Up);
  check_bool "down" true (Policy.classify t 0 2 = Policy.Down);
  check_bool "flat" true (Policy.classify t 0 1 = Policy.Flat);
  check_bool "into fabric" true (Policy.classify t 2 9 = Policy.Into_fabric);
  check_bool "out of fabric" true (Policy.classify t 9 4 = Policy.Out_of_fabric)

let test_policy_classify_non_edge () =
  let t = fixture () in
  Alcotest.check_raises "non-edge" (Invalid_argument "Policy.classify: not an edge")
    (fun () -> ignore (Policy.classify t 5 6))

let test_policy_valley_free_accepts () =
  let t = fixture () in
  (* Up, peer at the top, down: 5 -> 2 -> 0 -> 1 -> 4 -> 7. *)
  check_bool "classic valley-free" true (Policy.valley_free t [ 5; 2; 0; 1; 4; 7 ]);
  (* Pure ascent. *)
  check_bool "ascent" true (Policy.valley_free t [ 5; 2; 0 ]);
  (* Pure descent. *)
  check_bool "descent" true (Policy.valley_free t [ 0; 2; 5 ]);
  (* Through the IXP fabric: 5 -> 2 -> 9 -> 4 -> 8. *)
  check_bool "via ixp" true (Policy.valley_free t [ 5; 2; 9; 4; 8 ]);
  (* Direct peering at the peak: 6 -> 3 -> 4 -> 7. *)
  check_bool "peer peak" true (Policy.valley_free t [ 6; 3; 4; 7 ])

let test_policy_valley_free_rejects () =
  let t = fixture () in
  (* Down then up: a valley. 0 -> 2 -> ... cannot climb back: 5 -> 2 is
     down-up? Build: 0 -> 3 -> 6 is descent, then 6 has no up after...
     use 2 -> 0 -> 1 -> 4 then up again 4 -> ... no up edge from 4 except
     to 1. Valley: 5 -> 2 -> 0 (up,up) then 0 -> 3 (down) then 3 -> 4
     (peer after descent - illegal). *)
  check_bool "peer after descent" false (Policy.valley_free t [ 5; 2; 0; 3; 4 ]);
  (* Two peer hops: 3 -> 4 peer then 4 -> 9 -> 2 fabric peer. *)
  check_bool "second peering" false (Policy.valley_free t [ 3; 4; 9; 2 ]);
  (* Peer hop while already descending. *)
  check_bool "peer while descending" false (Policy.valley_free t [ 0; 3; 4 ]);
  (* Up after down. *)
  check_bool "up after down is a valley" false (Policy.valley_free t [ 0; 2; 0 ]);
  (* Non-edge path invalid. *)
  check_bool "non-edge" false (Policy.valley_free t [ 5; 6 ])

(* ---------- Bgp ---------- *)

let test_bgp_routes_to_stub () =
  let t = fixture () in
  let routes = Bgp.routes_to t 5 in
  (* 5's provider chain: 2 then 0 have customer routes. *)
  (match routes.(2) with
  | Some r -> check_int "direct customer" 1 r.Bgp.hops
  | None -> Alcotest.fail "2 should reach 5");
  (match routes.(0) with
  | Some r ->
      check_int "two customer hops" 2 r.Bgp.hops;
      check_bool "via customer" true (r.Bgp.via = Bgp.Via_customer)
  | None -> Alcotest.fail "0 should reach 5");
  (* 1 reaches 5 via its peer 0 (peer route). *)
  (match routes.(1) with
  | Some r -> check_bool "via peer" true (r.Bgp.via = Bgp.Via_peer)
  | None -> Alcotest.fail "1 should reach 5");
  (* 6 reaches 5 via its provider 3 (provider route). *)
  (match routes.(6) with
  | Some r -> check_bool "via provider" true (r.Bgp.via = Bgp.Via_provider)
  | None -> Alcotest.fail "6 should reach 5");
  (* destination itself *)
  (match routes.(5) with
  | Some r -> check_int "self" 0 r.Bgp.hops
  | None -> Alcotest.fail "self route")

let test_bgp_prefers_customer () =
  let t = fixture () in
  (* Destination 7: AS 4 has customer route (1 hop). AS 3 has peer route via
     peering 3-4 (2 hops) even though provider route via 0-1-4 exists. *)
  let routes = Bgp.routes_to t 7 in
  (match routes.(3) with
  | Some r ->
      check_bool "peer preferred over provider" true (r.Bgp.via = Bgp.Via_peer);
      check_int "hops" 2 r.Bgp.hops
  | None -> Alcotest.fail "3 should reach 7")

let test_bgp_reachability_full_on_tree () =
  let t = fixture () in
  let frac = Bgp.reachable_fraction ~rng:(rng ()) ~destinations:9 t in
  (* Everything is reachable in this little hierarchy. *)
  check_float "full reachability" 1.0 frac;
  let len = Bgp.average_path_length ~rng:(rng ()) ~destinations:9 t in
  check_bool "positive path length" true (len > 0.0)

(* ---------- Directional ---------- *)

(* Every simple path of a small graph, as vertex lists from source to
   destination (the single-vertex paths included). *)
let simple_paths g =
  let n = G.n g in
  let acc = ref [] in
  let on_path = Array.make n false in
  let rec extend rev_path u =
    acc := List.rev rev_path :: !acc;
    on_path.(u) <- true;
    G.iter_neighbors g u (fun v ->
        if not on_path.(v) then extend (v :: rev_path) v);
    on_path.(u) <- false
  in
  for s = 0 to n - 1 do
    extend [ s ] s
  done;
  !acc

let test_directional_matches_policy () =
  let t = fixture () in
  let n = G.n t.T.graph in
  (* Directional's distance from [s] to [d] must be the length of the
     shortest simple path that the hop-by-hop oracle calls valley-free
     and that every hop of which touches a broker, for every broker
     subset of the fixture and every ordered pair. *)
  let vf_paths =
    List.filter (Policy.valley_free t) (simple_paths t.T.graph)
    |> List.map Array.of_list
  in
  let pairs = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let is_broker v = mask land (1 lsl v) <> 0 in
    let best = Array.make_matrix n n (-1) in
    List.iter
      (fun p ->
        if Broker_core.Dominating.is_dominated_path ~is_broker (Array.to_list p)
        then begin
          let s = p.(0) and d = p.(Array.length p - 1) in
          let len = Array.length p - 1 in
          if best.(s).(d) < 0 || len < best.(s).(d) then best.(s).(d) <- len
        end)
      vf_paths;
    for s = 0 to n - 1 do
      let dist = Directional.distances t ~is_broker s in
      for d = 0 to n - 1 do
        incr pairs;
        if dist.(d) <> best.(s).(d) then
          Alcotest.failf "brokers %#x, %d -> %d: Directional %d, oracle %d" mask
            s d dist.(d) best.(s).(d)
      done
    done
  done;
  check_int "ordered pairs checked" (1024 * 100) !pairs

let test_directional_broker_restriction () =
  let t = fixture () in
  (* No brokers: nothing moves. *)
  let sat =
    Directional.saturated_sampled ~rng:(rng ()) ~sources:10 t
      ~is_broker:(fun _ -> false)
  in
  check_float "zero" 0.0 sat

let test_directional_upgrades_monotone () =
  let t = fixture () in
  let brokers = [| 0; 1; 2; 3; 4 |] in
  let is_broker = Conn.of_brokers ~n:10 brokers in
  let source_set = Array.init 10 (fun i -> i) in
  let sat_plain =
    Directional.saturated_sampled ~source_set ~rng:(rng ()) ~sources:10 t ~is_broker
  in
  let upgrades =
    Directional.upgrade_broker_edges ~rng:(rng ()) t ~brokers ~fraction:1.0
  in
  let sat_up =
    Directional.saturated_sampled ~upgrades ~source_set ~rng:(rng ()) ~sources:10 t
      ~is_broker
  in
  check_bool "upgrades never hurt" true (sat_up >= sat_plain -. 1e-12);
  check_bool "some upgrades counted" true (Directional.upgrade_count upgrades > 0)

let test_directional_below_bidirectional () =
  let t = small_internet ~seed:6 ~scale:0.01 () in
  let g = t.T.graph in
  let n = G.n g in
  let brokers = Broker_core.Maxsg.run g ~k:20 in
  let is_broker = Conn.of_brokers ~n brokers in
  let source_set = Broker_util.Sampling.without_replacement (rng ()) ~n ~k:40 in
  let dir =
    Directional.saturated_sampled ~source_set ~rng:(rng ()) ~sources:40 t ~is_broker
  in
  let bidir =
    (Conn.sampled ~l_max:1 ~source_set ~rng:(rng ()) ~sources:40 g ~is_broker)
      .Conn.saturated
  in
  check_bool "valley-free <= bidirectional" true (dir <= bidir +. 1e-12)

let test_upgrade_fraction_bounds () =
  let t = fixture () in
  Alcotest.check_raises "fraction"
    (Invalid_argument "Directional.upgrade_broker_edges: fraction in [0,1]")
    (fun () ->
      ignore (Directional.upgrade_broker_edges ~rng:(rng ()) t ~brokers:[| 0 |] ~fraction:1.5))

(* ---------- Directional oracle ---------- *)

(* The hashtable-era valley-free BFS, kept as the oracle of the arc-label
   engine. It answers relations through the O(log d) edge queries and
   upgrades through [Directional.is_upgraded]. *)
let oracle_distances topo ~is_broker ~upgrades src =
  let g = topo.T.graph in
  let n = G.n g in
  let rel = topo.T.relations in
  let is_ixp v = T.is_ixp topo v in
  let dist = Array.make (2 * n) (-1) in
  let queue = Array.make (2 * n) 0 in
  let head = ref 0 and tail = ref 0 in
  let push v s d =
    let i = (2 * v) + s in
    if dist.(i) < 0 then begin
      dist.(i) <- d;
      queue.(!tail) <- i;
      incr tail
    end
  in
  push src 0 0;
  while !head < !tail do
    let i = queue.(!head) in
    incr head;
    let u = i / 2 and s = i land 1 in
    let d = dist.(i) in
    G.iter_neighbors g u (fun v ->
        if is_broker u || is_broker v then begin
          if Directional.is_upgraded upgrades u v then push v s (d + 1)
          else if is_ixp v then begin
            if s = 0 then push v 0 (d + 1)
          end
          else if is_ixp u then begin
            if s = 0 then push v 1 (d + 1)
          end
          else if Rel.customer_of rel u v then begin
            if s = 0 then push v 0 (d + 1)
          end
          else if Rel.customer_of rel v u then push v 1 (d + 1)
          else if s = 0 then push v 1 (d + 1)
        end)
  done;
  Array.init n (fun v ->
      let a = dist.(2 * v) and b = dist.((2 * v) + 1) in
      if a < 0 then b else if b < 0 then a else min a b)

let oracle_curve ~l_max topo ~is_broker ~upgrades srcs =
  let n = T.n topo in
  let hist = Array.make (l_max + 1) 0 in
  let reached = ref 0 and total = ref 0 in
  Array.iter
    (fun s ->
      Array.iteri
        (fun v d ->
          if v <> s && d > 0 then begin
            incr reached;
            if d <= l_max then hist.(d) <- hist.(d) + 1
          end)
        (oracle_distances topo ~is_broker ~upgrades s);
      total := !total + (n - 1))
    srcs;
  let ftotal = float_of_int (max 1 !total) in
  let acc = ref 0 in
  let per_hop =
    Array.init (l_max + 1) (fun l ->
        if l > 0 then acc := !acc + hist.(l);
        if l = 0 then 0.0 else float_of_int !acc /. ftotal)
  in
  { Conn.l_max; per_hop; saturated = float_of_int !reached /. ftotal }

let curves_bitwise_equal (a : Conn.curve) (b : Conn.curve) =
  a.Conn.l_max = b.Conn.l_max
  && Float.equal a.Conn.saturated b.Conn.saturated
  && Array.for_all2 Float.equal a.Conn.per_hop b.Conn.per_hop

(* A small random labelled topology: about one node in five an IXP, and
   each edge given any label (both C2P orientations, peering, IXP
   membership — also between two ASes — or none), whatever its
   endpoints' kinds. *)
let labelled_topology rng ~n ~m =
  let module X = Broker_util.Xrandom in
  let graph = random_graph rng ~n ~m in
  let as_kinds = [| Nm.Tier1; Nm.Transit; Nm.Access; Nm.Content; Nm.Enterprise |] in
  let kinds = Array.init n (fun _ -> if X.int rng 5 = 0 then Nm.Ixp else as_kinds.(X.int rng (Array.length as_kinds))) in
  let relations = Rel.create graph in
  G.iter_edges graph (fun u v ->
      match X.int rng 6 with
      | 0 -> Rel.add_c2p relations ~customer:u ~provider:v
      | 1 -> Rel.add_c2p relations ~customer:v ~provider:u
      | 2 -> Rel.add_peer relations u v
      | 3 -> Rel.add_ixp_member relations ~as_node:u ~ixp:v
      | _ -> ());
  {
    T.graph;
    kinds;
    tiers = Array.map (fun k -> if Nm.kind_equal k Nm.Ixp then 0 else 2) kinds;
    names = Array.init n string_of_int;
    relations;
  }

type oracle_outcome = Agree | Vacuous | Disagree of string

(* The arc-label engine against the oracle, checked the way SNIPPETS.md's
   check_prop does it: a fixed seed, and a tally of the cases whose
   precondition failed (here: no arc has a broker endpoint, so every
   source reaches only itself). Every source's distance vector and the
   curve over all sources must be bitwise equal, at upgrade fractions 0,
   0.3 and 1. *)
let test_directional_oracle () =
  let gen =
    QCheck.Gen.(
      int_range 2 30 >>= fun n ->
      int_range 0 70 >>= fun m ->
      int_range 0 100 >>= fun broker_pct ->
      int_range 0 1_000_000 >|= fun seed -> (n, m, broker_pct, seed))
  in
  let cases = QCheck.Gen.generate ~rand:(Random.State.make [| 42 |]) ~n:300 gen in
  let check (n, m, broker_pct, seed) =
    let rng = Broker_util.Xrandom.create seed in
    let topo = labelled_topology rng ~n ~m in
    let brokers =
      List.filter (fun _ -> Broker_util.Xrandom.int rng 100 < broker_pct) (List.init n Fun.id)
      |> Array.of_list
    in
    let is_broker = Conn.of_brokers ~n brokers in
    let dominated = ref false in
    G.iter_edges topo.T.graph (fun u v -> if is_broker u || is_broker v then dominated := true);
    let sources = Array.init n Fun.id in
    let disagreement =
      List.find_map
        (fun fraction ->
          let upgrades = Directional.upgrade_broker_edges ~rng topo ~brokers ~fraction in
          let bad_source =
            Array.find_opt
              (fun s ->
                Directional.distances ~upgrades topo ~is_broker s
                <> oracle_distances topo ~is_broker ~upgrades s)
              sources
          in
          let curve =
            Directional.curve_sampled ~l_max:4 ~upgrades ~source_set:sources ~rng ~sources:n
              topo ~is_broker
          in
          match bad_source with
          | Some s -> Some (Printf.sprintf "fraction %g: source %d" fraction s)
          | None ->
              if curves_bitwise_equal curve (oracle_curve ~l_max:4 topo ~is_broker ~upgrades sources)
              then None
              else Some (Printf.sprintf "fraction %g: curve" fraction))
        [ 0.0; 0.3; 1.0 ]
    in
    match disagreement with
    | Some what ->
        Disagree
          (Printf.sprintf "n=%d m=%d brokers=%d%% seed=%d: %s" n m broker_pct seed what)
    | None -> if !dominated then Agree else Vacuous
  in
  let outcomes = List.map check cases in
  let count p = List.length (List.filter p outcomes) in
  let agree = count (function Agree -> true | Vacuous | Disagree _ -> false) in
  let vacuous = count (function Vacuous -> true | Agree | Disagree _ -> false) in
  let failures = List.filter_map (function Disagree d -> Some d | Agree | Vacuous -> None) outcomes in
  Printf.printf "%d cases for the valley-free oracle: %d agree, %d failures, %d discarded (no dominated arc)\n"
    (List.length outcomes) agree (List.length failures) vacuous;
  List.iter print_endline failures;
  check_int "disagreements" 0 (List.length failures);
  check_bool "most cases have dominated arcs" true (agree > 4 * vacuous)

let test_upgrades_bound_to_graph () =
  let t = fixture () in
  let upgrades =
    Directional.upgrade_broker_edges ~rng:(rng ()) t ~brokers:[| 0; 1; 2; 3; 4 |] ~fraction:1.0
  in
  let other = small_internet ~seed:6 ~scale:0.005 () in
  Alcotest.check_raises "another graph"
    (Invalid_argument "Directional: upgrades drawn on another graph") (fun () ->
      ignore
        (Directional.saturated_sampled ~upgrades ~rng:(rng ()) ~sources:4 other
           ~is_broker:(fun _ -> true)));
  (* An equal graph built again is the same graph; no_upgrades fits any. *)
  ignore
    (Directional.saturated_sampled ~upgrades ~rng:(rng ()) ~sources:4 (fixture ())
       ~is_broker:(fun _ -> true));
  ignore
    (Directional.saturated_sampled ~upgrades:Directional.no_upgrades ~rng:(rng ()) ~sources:4
       other ~is_broker:(fun _ -> true));
  check_bool "upgraded edge" true (Directional.is_upgraded upgrades 2 0);
  check_bool "non-broker edge" false (Directional.is_upgraded upgrades 2 5)

(* ---------- Stitch ---------- *)

let test_stitch_simple () =
  let t = fixture () in
  let is_broker v = v = 2 || v = 0 || v = 1 || v = 4 in
  match Broker_routing.Stitch.stitch t.T.graph ~is_broker ~src:5 ~dst:7 with
  | None -> Alcotest.fail "path should exist"
  | Some s ->
      let path = s.Broker_routing.Stitch.path in
      check_bool "path endpoints" true
        (path.(0) = 5 && path.(Array.length path - 1) = 7);
      check_bool "dominated" true
        (Broker_core.Dominating.is_dominated_path ~is_broker (Array.to_list path));
      (* Shortest dominated route is 5-2-9-4-7: the IXP fabric 9 sits
         between brokers 2 and 4 and is "hired". *)
      Alcotest.(check (list int)) "fabric hop hired" [ 9 ] s.Broker_routing.Stitch.employees

let test_stitch_with_employee () =
  (* Brokers 0 and 2 with a non-broker 1 between them: path 0-1-2 hires 1. *)
  let g = path_graph 3 in
  let is_broker v = v = 0 || v = 2 in
  match Broker_routing.Stitch.stitch g ~is_broker ~src:0 ~dst:2 with
  | None -> Alcotest.fail "path should exist"
  | Some s ->
      Alcotest.(check (list int)) "employee is 1" [ 1 ] s.Broker_routing.Stitch.employees;
      check_int "hops" 2 s.Broker_routing.Stitch.hops

let test_stitch_none () =
  let g = G.of_edges ~n:4 [| (0, 1); (2, 3) |] in
  check_bool "no path" true
    (Broker_routing.Stitch.stitch g ~is_broker:(fun _ -> true) ~src:0 ~dst:3 = None)

let suite =
  [
    ( "routing.policy",
      [
        Alcotest.test_case "classify" `Quick test_policy_classify;
        Alcotest.test_case "classify non-edge" `Quick test_policy_classify_non_edge;
        Alcotest.test_case "valley-free accepts" `Quick test_policy_valley_free_accepts;
        Alcotest.test_case "valley-free rejects" `Quick test_policy_valley_free_rejects;
      ] );
    ( "routing.bgp",
      [
        Alcotest.test_case "routes to stub" `Quick test_bgp_routes_to_stub;
        Alcotest.test_case "class preference" `Quick test_bgp_prefers_customer;
        Alcotest.test_case "reachability" `Quick test_bgp_reachability_full_on_tree;
      ] );
    ( "core.directional",
      [
        Alcotest.test_case "matches policy" `Quick test_directional_matches_policy;
        Alcotest.test_case "broker restriction" `Quick test_directional_broker_restriction;
        Alcotest.test_case "upgrades monotone" `Quick test_directional_upgrades_monotone;
        Alcotest.test_case "below bidirectional" `Quick test_directional_below_bidirectional;
        Alcotest.test_case "fraction bounds" `Quick test_upgrade_fraction_bounds;
        Alcotest.test_case "oracle agreement" `Quick test_directional_oracle;
        Alcotest.test_case "upgrades bound to graph" `Quick test_upgrades_bound_to_graph;
      ] );
    ( "routing.stitch",
      [
        Alcotest.test_case "simple" `Quick test_stitch_simple;
        Alcotest.test_case "employee hop" `Quick test_stitch_with_employee;
        Alcotest.test_case "no path" `Quick test_stitch_none;
      ] );
  ]
