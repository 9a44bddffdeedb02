(* Edge-case tests: degenerate inputs, boundary sizes, and exact-value
   checks that the broader suites don't pin down. *)

open Helpers
module G = Broker_graph.Graph
module Conn = Broker_core.Connectivity

(* ---------- Degenerate graphs ---------- *)

let test_empty_graph () =
  let g = G.of_edges ~n:0 [||] in
  check_int "n" 0 (G.n g);
  check_int "m" 0 (G.m g);
  Alcotest.(check (array int)) "maxsg" [||] (Broker_core.Maxsg.run g ~k:3);
  check_int "pagerank" 0 (Array.length (Broker_graph.Pagerank.compute g))

let test_singleton_graph () =
  let g = G.of_edges ~n:1 [||] in
  check_int "degree" 0 (G.degree g 0);
  let c = Conn.exact g ~is_broker:(fun _ -> true) in
  check_float "no pairs" 0.0 c.Conn.saturated;
  let cov = Broker_core.Coverage.create g in
  Broker_core.Coverage.add cov 0;
  check_int "self coverage" 1 (Broker_core.Coverage.f cov)

let test_two_vertices () =
  let g = G.of_edges ~n:2 [| (0, 1) |] in
  (* Either endpoint as broker dominates the single edge. *)
  let c = Conn.exact g ~is_broker:(fun v -> v = 0) in
  check_float "both directions" 1.0 c.Conn.saturated;
  let none = Conn.exact g ~is_broker:(fun _ -> false) in
  check_float "undominated edge unusable" 0.0 none.Conn.saturated

let test_disconnected_broker_islands () =
  (* Two components, brokers in each: pairs across components stay
     unreachable; within, all served. *)
  let g = G.of_edges ~n:6 [| (0, 1); (1, 2); (3, 4); (4, 5) |] in
  let c = Conn.exact g ~is_broker:(fun v -> v = 1 || v = 4) in
  (* Served ordered pairs: 6 within each triangle-path = 12 of 30. *)
  check_float "cross-component blocked" 0.4 c.Conn.saturated

(* ---------- Mcbg / Maxsg boundaries ---------- *)

let test_maxsg_k_exceeds_saturation () =
  let g = star_graph 5 in
  let brokers = Broker_core.Maxsg.run g ~k:100 in
  Alcotest.(check (array int)) "stops at saturation" [| 0 |] brokers

let test_mcbg_k1 () =
  let g = star_graph 5 in
  let r = Broker_core.Mcbg.run g ~k:1 ~beta:4 in
  check_int "x* = 1" 1 r.Broker_core.Mcbg.x_star;
  Alcotest.(check (array int)) "just the hub" [| 0 |] r.Broker_core.Mcbg.brokers;
  check_int "no connectors" 0 (Array.length r.Broker_core.Mcbg.connectors)

let test_mcbg_disconnected_coverage_brokers () =
  (* Two far stars: coverage brokers land in both; connectors cannot link
     across components, but the guarantee still holds per covered region?
     No — covered nodes span both components and cannot reach each other,
     so the guarantee fails; MCBG's top-up phase never bridges components.
     The implementation must still terminate and respect k. *)
  let g = G.of_edges ~n:10 [| (0, 1); (0, 2); (0, 3); (5, 6); (5, 7); (5, 8) |] in
  let r = Broker_core.Mcbg.run g ~k:4 ~beta:2 in
  check_bool "size bound" true (Array.length r.Broker_core.Mcbg.brokers <= 4)

(* ---------- Table rendering details ---------- *)

let test_table_right_aligns_numbers () =
  let t = Broker_util.Table.create ~headers:[ "h"; "v" ] in
  Broker_util.Table.add_row t [ "x"; "1" ];
  Broker_util.Table.add_row t [ "y"; "1000" ];
  let out = Broker_util.Table.render t in
  (* The numeric column is right-aligned: "   1" appears. *)
  check_bool "right aligned" true (contains ~needle:"   1\n" out)

let test_table_rule () =
  let t = Broker_util.Table.create ~headers:[ "a" ] in
  Broker_util.Table.add_row t [ "1" ];
  Broker_util.Table.add_rule t;
  Broker_util.Table.add_row t [ "2" ];
  let out = Broker_util.Table.render t in
  (* Header rule + explicit rule = at least two dashed lines. *)
  let dashes =
    List.length
      (List.filter
         (fun line -> String.length line > 0 && line.[0] = '-')
         (String.split_on_char '\n' out))
  in
  check_int "two rules" 2 dashes

(* ---------- Optimize boundaries ---------- *)

let test_golden_flat_function () =
  let x, fx = Broker_util.Optimize.golden_section_max (fun _ -> 7.0) ~lo:0.0 ~hi:1.0 in
  check_float "flat max" 7.0 fx;
  check_bool "x in range" true (x >= 0.0 && x <= 1.0)

let test_golden_degenerate_interval () =
  let x, _ = Broker_util.Optimize.golden_section_max (fun x -> x) ~lo:2.0 ~hi:2.0 in
  check_float "point interval" 2.0 x

let test_grid_max_endpoint () =
  (* Maximum at the upper endpoint. *)
  let x, _ = Broker_util.Optimize.grid_max (fun x -> x) ~lo:0.0 ~hi:1.0 ~steps:10 in
  check_float "endpoint found" 1.0 x

(* ---------- Xrandom split ---------- *)

let test_xrandom_split_diverges () =
  let parent = rng () in
  let child = Broker_util.Xrandom.split parent in
  let a = Broker_util.Xrandom.bits64 parent in
  let b = Broker_util.Xrandom.bits64 child in
  check_bool "independent streams" false (a = b)

(* ---------- Dataset malformed input ---------- *)

(* Loading [contents] must fail with the line-numbered message. *)
let dataset_fails ~line what contents =
  let path = Filename.temp_file "bad" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc contents);
      Alcotest.check_raises what
        (Invalid_argument (Printf.sprintf "Dataset.load: %s:%d: %s" path line what))
        (fun () -> ignore (Broker_topo.Dataset.load ~path)))

(* Two ASes and an IXP; [edges] follow the node lines, from line 5. *)
let dataset ?(m = 1) edges =
  Printf.sprintf "brokerset-topology 1 3 %d\nn 0 t1 1 A\nn 1 tr 2 B\nn 2 ix 0 X\n%s" m
    (String.concat "" (List.map (fun e -> e ^ "\n") edges))

let test_dataset_bad_header () =
  dataset_fails ~line:1 "bad header" "not-a-topology\n";
  dataset_fails ~line:1 "bad header" "";
  dataset_fails ~line:1 "bad header" "brokerset-topology 1 -3 0\n"

let test_dataset_not_integer () =
  dataset_fails ~line:3 "not an integer: \"x\""
    "brokerset-topology 1 2 0\nn 0 t1 1 A\nn 1 tr x B\n";
  dataset_fails ~line:5 "not an integer: \"one\"" (dataset [ "e 0 one cp" ])

let test_dataset_ids_out_of_range () =
  dataset_fails ~line:2 "node id 3 out of range [0, 3)"
    "brokerset-topology 1 3 0\nn 3 t1 1 A\n";
  dataset_fails ~line:5 "edge endpoint 7 out of range [0, 3)" (dataset [ "e 0 7 cp" ]);
  dataset_fails ~line:5 "edge endpoint -1 out of range [0, 3)" (dataset [ "e -1 0 cp" ])

let test_dataset_line_counts () =
  dataset_fails ~line:6 "more edge lines than the header's 1"
    (dataset [ "e 0 1 cp"; "e 0 2 im" ]);
  dataset_fails ~line:5 "1 edge lines, the header declares 2" (dataset ~m:2 [ "e 0 1 cp" ]);
  dataset_fails ~line:3 "1 node lines, the header declares 2"
    "brokerset-topology 1 2 0\nn 0 t1 1 A\n\n";
  dataset_fails ~line:3 "node 0 listed twice"
    "brokerset-topology 1 2 0\nn 0 t1 1 A\nn 0 tr 2 B\n"

let test_dataset_self_loop () =
  dataset_fails ~line:5 "self-loop on 0" (dataset [ "e 0 0 cp" ])

let test_dataset_duplicate_edge () =
  dataset_fails ~line:6 "edge (1, 0) listed twice" (dataset ~m:2 [ "e 0 1 cp"; "e 1 0 pc" ]);
  dataset_fails ~line:6 "edge (0, 1) listed twice" (dataset ~m:2 [ "e 0 1 pp"; "e 0 1 pp" ])

let test_dataset_unknown_codes () =
  dataset_fails ~line:2 "unknown kind \"zz\"" "brokerset-topology 1 1 0\nn 0 zz 1 A\n";
  dataset_fails ~line:5 "unknown relation \"xx\"" (dataset [ "e 0 1 xx" ])

let test_dataset_im_without_ixp () =
  dataset_fails ~line:5 "im edge (0, 1) has no IXP endpoint" (dataset [ "e 0 1 im" ])

let test_dataset_malformed_line () =
  dataset_fails ~line:5 "malformed line" (dataset [ "e 0 1" ]);
  dataset_fails ~line:2 "malformed line" "brokerset-topology 1 0 0\nhello\n"

let test_dataset_valid_fixture () =
  (* The fixture itself loads: every failure above is the line's fault. *)
  let path = Filename.temp_file "ok" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (dataset ~m:2 [ "e 0 1 cp"; "e 2 0 im" ]));
      let t = Broker_topo.Dataset.load ~path in
      check_bool "c2p" true
        (Broker_topo.Relations.customer_of t.Broker_topo.Topology.relations 0 1);
      check_bool "membership" true
        (Broker_topo.Relations.find t.Broker_topo.Topology.relations 0 2
        = Some Broker_topo.Node_meta.Ixp_member))

(* ---------- Connectivity.value_at clamping ---------- *)

let test_value_at_clamps () =
  let g = path_graph 4 in
  let c = Conn.exact ~l_max:3 g ~is_broker:Conn.unrestricted in
  check_float "l=0" 0.0 (Conn.value_at c 0);
  check_float "negative l" 0.0 (Conn.value_at c (-2));
  check_float "beyond l_max" c.Conn.saturated (Conn.value_at c 50)

(* ---------- Alpha/beta on a disconnected graph ---------- *)

let test_alpha_beta_disconnected () =
  let g = G.of_edges ~n:6 [| (0, 1); (2, 3) |] in
  let est =
    Broker_core.Alpha_beta.estimate ~rng:(rng ()) ~sources:6 g ~alpha:0.99
  in
  (* Reachable pairs only; they are all 1 hop. *)
  check_int "beta 1" 1 est.Broker_core.Alpha_beta.beta

(* ---------- Directional on relation-free graph ---------- *)

let test_directional_unknown_relations_behave_as_peering () =
  (* No relations recorded: every edge is "unknown" = peering, so only
     2-hop (one peak) paths exist. *)
  let graph = path_graph 4 in
  let topo =
    {
      Broker_topo.Topology.graph;
      kinds = Array.make 4 Broker_topo.Node_meta.Transit;
      tiers = Array.make 4 2;
      names = Array.init 4 string_of_int;
      relations = Broker_topo.Relations.create graph;
    }
  in
  let sat =
    Broker_core.Directional.saturated_sampled
      ~source_set:(Array.init 4 Fun.id) ~rng:(rng ()) ~sources:4 topo
      ~is_broker:(fun _ -> true)
  in
  (* Peer-only valley-free allows at most one hop... one peak = one peer
     edge. Reachable ordered pairs: adjacent ones only = 6 of 12. *)
  check_float "one peering hop only" 0.5 sat

let suite =
  [
    ( "edge_cases.graphs",
      [
        Alcotest.test_case "empty graph" `Quick test_empty_graph;
        Alcotest.test_case "singleton" `Quick test_singleton_graph;
        Alcotest.test_case "two vertices" `Quick test_two_vertices;
        Alcotest.test_case "broker islands" `Quick test_disconnected_broker_islands;
      ] );
    ( "edge_cases.algorithms",
      [
        Alcotest.test_case "maxsg k > saturation" `Quick test_maxsg_k_exceeds_saturation;
        Alcotest.test_case "mcbg k=1" `Quick test_mcbg_k1;
        Alcotest.test_case "mcbg disconnected" `Quick test_mcbg_disconnected_coverage_brokers;
      ] );
    ( "edge_cases.util",
      [
        Alcotest.test_case "table right-align" `Quick test_table_right_aligns_numbers;
        Alcotest.test_case "table rule" `Quick test_table_rule;
        Alcotest.test_case "golden flat" `Quick test_golden_flat_function;
        Alcotest.test_case "golden point interval" `Quick test_golden_degenerate_interval;
        Alcotest.test_case "grid endpoint" `Quick test_grid_max_endpoint;
        Alcotest.test_case "xrandom split" `Quick test_xrandom_split_diverges;
      ] );
    ( "edge_cases.misc",
      [
        Alcotest.test_case "dataset bad header" `Quick test_dataset_bad_header;
        Alcotest.test_case "dataset non-integer field" `Quick test_dataset_not_integer;
        Alcotest.test_case "dataset id out of range" `Quick test_dataset_ids_out_of_range;
        Alcotest.test_case "dataset line counts" `Quick test_dataset_line_counts;
        Alcotest.test_case "dataset self-loop" `Quick test_dataset_self_loop;
        Alcotest.test_case "dataset duplicate edge" `Quick test_dataset_duplicate_edge;
        Alcotest.test_case "dataset unknown codes" `Quick test_dataset_unknown_codes;
        Alcotest.test_case "dataset im without IXP" `Quick test_dataset_im_without_ixp;
        Alcotest.test_case "dataset malformed line" `Quick test_dataset_malformed_line;
        Alcotest.test_case "dataset valid fixture" `Quick test_dataset_valid_fixture;
        Alcotest.test_case "value_at clamps" `Quick test_value_at_clamps;
        Alcotest.test_case "alpha_beta disconnected" `Quick test_alpha_beta_disconnected;
        Alcotest.test_case "directional unknown relations" `Quick test_directional_unknown_relations_behave_as_peering;
      ] );
  ]
