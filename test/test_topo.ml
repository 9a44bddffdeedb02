(* Tests for Broker_topo: Node_meta, Topology, Classic generators,
   Internet generator, Dataset round-trip. *)

open Helpers
module G = Broker_graph.Graph
module Nm = Broker_topo.Node_meta
module Rel = Broker_topo.Relations
module T = Broker_topo.Topology
module Classic = Broker_topo.Classic
module Internet = Broker_topo.Internet
module Dataset = Broker_topo.Dataset

(* ---------- Relations ---------- *)

let test_relations_c2p_orientation () =
  let g = G.of_edges ~n:6 [| (2, 5) |] in
  let r = Rel.create g in
  Rel.add_c2p r ~customer:5 ~provider:2;
  check_bool "customer" true (Rel.customer_of r 5 2);
  check_bool "not reversed" false (Rel.customer_of r 2 5);
  check_bool "find" true (Rel.find r 2 5 = Some Nm.Customer_provider);
  check_bool "customer arc up" true (Rel.arc r (G.find_arc g 5 2) = Rel.Up);
  check_bool "provider arc down" true (Rel.arc r (G.find_arc g 2 5) = Rel.Down)

let test_relations_peer_ixp () =
  let r = Rel.create (G.of_edges ~n:10 [| (1, 2); (3, 9); (1, 9) |]) in
  Rel.add_peer r 1 2;
  Rel.add_ixp_member r ~as_node:3 ~ixp:9;
  check_bool "peer both ways" true
    (Rel.find r 2 1 = Some Nm.Peer && Rel.find r 1 2 = Some Nm.Peer);
  check_bool "find ixp" true
    (Rel.find r 9 3 = Some Nm.Ixp_member && Rel.find r 3 9 = Some Nm.Ixp_member);
  check_bool "unlabelled edge" true (Rel.find r 1 9 = None);
  check_bool "non-edge" true (Rel.find r 1 3 = None)

let test_relations_self_edge () =
  let r = Rel.create (G.of_edges ~n:5 [| (3, 4) |]) in
  Alcotest.check_raises "self" (Invalid_argument "Relations.add_peer: self edge")
    (fun () -> Rel.add_peer r 4 4);
  Alcotest.check_raises "non-edge" (Invalid_argument "Relations.add_c2p: not an edge")
    (fun () -> Rel.add_c2p r ~customer:2 ~provider:4)

(* The two arcs of every edge carry matching labels. *)
let twin_mismatches t =
  let g = t.T.graph and r = t.T.relations in
  let bad = ref 0 in
  for u = 0 to G.n g - 1 do
    G.iter_neighbors g u (fun v ->
        let twins =
          match (Rel.arc r (G.find_arc g u v), Rel.arc r (G.find_arc g v u)) with
          | Rel.Up, Rel.Down
          | Rel.Down, Rel.Up
          | Rel.Peer, Rel.Peer
          | Rel.Ixp_member, Rel.Ixp_member
          | Rel.Unlabelled, Rel.Unlabelled ->
              true
          | _ -> false
        in
        if not twins then incr bad)
  done;
  !bad

let test_relations_twin_arcs () =
  let t = small_internet ~seed:9 ~scale:0.005 () in
  check_int "generated" 0 (twin_mismatches t);
  check_int "ASes only" 0 (twin_mismatches (fst (T.with_ases_only t)));
  check_int "grown" 0
    (twin_mismatches (Broker_topo.Churn.grow ~rng:(rng ()) t ~new_ases:20));
  let path = Filename.temp_file "twins" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> Dataset.save oc t);
      check_int "loaded" 0 (twin_mismatches (Dataset.load ~path)))

(* ---------- Classic generators ---------- *)

let test_er_size () =
  let g = Classic.erdos_renyi ~rng:(rng ()) ~n:200 ~m:400 in
  check_int "n" 200 (G.n g);
  check_bool "m close to target" true (G.m g > 350 && G.m g <= 400)

let test_ws_degree () =
  let g = Classic.watts_strogatz ~rng:(rng ()) ~n:100 ~k:4 ~beta:0.0 in
  (* No rewiring: a perfect ring lattice, everyone degree 4. *)
  for v = 0 to 99 do
    check_int "lattice degree" 4 (G.degree g v)
  done

let test_ws_rewired_connect () =
  let g = Classic.watts_strogatz ~rng:(rng ()) ~n:100 ~k:4 ~beta:0.3 in
  check_int "n" 100 (G.n g);
  check_bool "about 2n edges" true (abs (G.m g - 200) < 20)

let test_ws_bad_k () =
  Alcotest.check_raises "odd k"
    (Invalid_argument "Classic.watts_strogatz: k must be positive and even")
    (fun () -> ignore (Classic.watts_strogatz ~rng:(rng ()) ~n:10 ~k:3 ~beta:0.0))

let test_ba_heavy_tail () =
  let g = Classic.barabasi_albert ~rng:(rng ()) ~n:500 ~m:3 in
  check_int "n" 500 (G.n g);
  (* Preferential attachment: the max degree is far above the mean. *)
  let avg = Broker_graph.Metrics.average_degree g in
  let max_degree = ref 0 in
  for u = 0 to G.n g - 1 do
    max_degree := max !max_degree (G.degree g u)
  done;
  check_bool "hub exists" true (float_of_int !max_degree > 4.0 *. avg);
  (* connected by construction *)
  let c = Broker_graph.Components.compute g in
  check_int "connected" 1 (Array.length c.Broker_graph.Components.sizes)

(* ---------- Internet generator ---------- *)

let small = lazy (small_internet ~seed:77 ~scale:0.02 ())

let test_internet_table2_shape () =
  let t = Lazy.force small in
  let s = Dataset.summarize t in
  let p = Internet.scaled 0.02 in
  check_int "ixps" p.Internet.n_ixp s.Dataset.ixps;
  check_int "ases" p.Internet.n_as s.Dataset.ases;
  check_bool "as-as edges within 2%" true
    (abs (s.Dataset.as_as_connections - p.Internet.as_as_edge_target)
    < p.Internet.as_as_edge_target / 50);
  check_bool "as-ixp edges within 5%" true
    (abs (s.Dataset.as_ixp_connections - p.Internet.as_ixp_edge_target)
    < p.Internet.as_ixp_edge_target / 20);
  check_float_eps 0.02 "ixp membership fraction" 0.402 s.Dataset.ixp_connected_fraction

let test_internet_giant_component () =
  let t = Lazy.force small in
  let s = Dataset.summarize t in
  check_bool "giant component ~ everything" true
    (s.Dataset.max_connected_subgraph > 99 * T.n t / 100)

let test_internet_deterministic () =
  let a = small_internet ~seed:5 ~scale:0.01 () in
  let b = small_internet ~seed:5 ~scale:0.01 () in
  check_bool "same edges" true (G.equal a.T.graph b.T.graph);
  let c = small_internet ~seed:6 ~scale:0.01 () in
  check_bool "different seed differs" false (G.equal a.T.graph c.T.graph)

let test_internet_relations_complete () =
  let t = Lazy.force small in
  let missing = ref 0 in
  G.iter_edges t.T.graph (fun u v ->
      if Rel.find t.T.relations u v = None then incr missing);
  check_int "every edge classified" 0 !missing

let test_internet_ixp_edges_touch_ixps () =
  let t = Lazy.force small in
  let bad = ref 0 in
  G.iter_edges t.T.graph (fun u v ->
      match Rel.find t.T.relations u v with
      | Some Nm.Ixp_member -> if not (T.is_ixp t u || T.is_ixp t v) then incr bad
      | Some Nm.Customer_provider | Some Nm.Peer ->
          if T.is_ixp t u || T.is_ixp t v then incr bad
      | None -> ()
  );
  check_int "relation kinds consistent with node kinds" 0 !bad

let test_internet_tiers () =
  let t = Lazy.force small in
  let tier1 = T.tier1_members t in
  check_int "tier1 count" (Internet.scaled 0.02).Internet.n_tier1 (Array.length tier1);
  (* Tier-1 clique: all pairs connected, as peers. *)
  Array.iter
    (fun u ->
      Array.iter
        (fun v ->
          if u <> v then begin
            check_bool "clique edge" true (G.mem_edge t.T.graph u v);
            check_bool "peer link" true (Rel.find t.T.relations u v = Some Nm.Peer)
          end)
        tier1)
    tier1

let test_internet_small_world () =
  let t = Lazy.force small in
  let est =
    Broker_core.Alpha_beta.estimate ~rng:(rng ()) ~sources:32 t.T.graph ~alpha:0.99
  in
  check_bool "beta small" true (est.Broker_core.Alpha_beta.beta <= 5)

let test_internet_scaled_bounds () =
  Alcotest.check_raises "scale 0" (Invalid_argument "Internet.scaled: factor in (0,1]")
    (fun () -> ignore (Internet.scaled 0.0))

(* The generated topology, pinned to the byte: the digest of
   [Dataset.save]'s output (what [brokerctl generate --seed 42 -o] writes)
   at two scales. An RNG draw, an accept/reject decision, a CSR word, a
   label, a kind, a tier or a name that moves changes it. *)
let saved_digest params =
  let path = Filename.temp_file "pinned" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> Dataset.save oc (Internet.generate params));
      Digest.to_hex (Digest.file path))

let test_internet_pinned () =
  Alcotest.(check string)
    "scale 0.02" "6e1800277e951c9fa179dc0703234486"
    (saved_digest { (Internet.scaled 0.02) with Internet.seed = 42 });
  Alcotest.(check string)
    "scale 1" "599cc6ad962e82cc0c152145b7ea4293" (saved_digest Internet.default)

(* Allocation gate: the result's CSR is n + 1 + arcs words, and one
   generation at scale 0.3 puts fewer than six times that on the major
   heap, direct plus promoted. Flat edge arrays, an int-keyed edge set
   and a pool read off the edge arrays keep it near 4x; the lists of
   boxed pairs and the Hashtbl they replaced read 13.3x. *)
let test_internet_generate_major_words () =
  let s0 = Gc.quick_stat () in
  let t = Internet.generate { (Internet.scaled 0.3) with Internet.seed = 42 } in
  let s1 = Gc.quick_stat () in
  let major = s1.Gc.major_words -. s0.Gc.major_words in
  let csr = float_of_int (G.n t.T.graph + 1 + G.arcs t.T.graph) in
  Printf.printf "generate at scale 0.3: %.0f major words, %.2f x (n + 1 + arcs)\n" major
    (major /. csr);
  check_bool "fewer than 6 (n + 1 + arcs) major words" true (major < 6.0 *. csr)

(* Parameters are checked before anything is sized from them. *)
let test_internet_params () =
  let base = Internet.scaled 0.005 in
  let refused what msg p =
    Alcotest.check_raises what (Invalid_argument ("Internet.generate: " ^ msg)) (fun () ->
        ignore (Internet.generate p))
  in
  refused "no IXP" "n_ixp must be at least 1, got 0" { base with Internet.n_ixp = 0 };
  refused "negative IXP count" "n_ixp must be at least 1, got -1"
    { base with Internet.n_ixp = -1 };
  refused "transit_frac above 1" "transit_frac must be in [0, 1], got 2"
    { base with Internet.transit_frac = 2.0 };
  refused "negative transit_frac" "transit_frac must be in [0, 1], got -0.1"
    { base with Internet.transit_frac = -0.1 };
  refused "NaN ixp_connect_frac" "ixp_connect_frac must be in [0, 1], got nan"
    { base with Internet.ixp_connect_frac = Float.nan };
  refused "ixp_connect_frac above 1" "ixp_connect_frac must be in [0, 1], got 1.5"
    { base with Internet.ixp_connect_frac = 1.5 };
  refused "negative AS-AS target" "as_as_edge_target must be at least 0, got -1"
    { base with Internet.as_as_edge_target = -1 };
  refused "negative AS-IXP target" "as_ixp_edge_target must be at least 0, got -5"
    { base with Internet.as_ixp_edge_target = -5 };
  (* The ends of the fractions are valid: no AS joins an IXP, or every
     AS provides transit. *)
  let no_members = Internet.generate { base with Internet.ixp_connect_frac = 0.0 } in
  check_int "no AS-IXP edges" 0 (T.as_ixp_edges no_members);
  let all_transit = Internet.generate { base with Internet.transit_frac = 1.0 } in
  check_int "every AS is tier 1 or 2" 0
    (Array.fold_left (fun acc tier -> if tier = 3 then acc + 1 else acc) 0 all_transit.T.tiers)

(* ---------- Topology ---------- *)

let test_topology_counts () =
  let t = Lazy.force small in
  let total =
    List.fold_left (fun acc k -> acc + T.count_kind t k) 0 Nm.all_kinds
  in
  check_int "kinds partition nodes" (T.n t) total;
  check_int "edge split" (G.m t.T.graph) (T.as_as_edges t + T.as_ixp_edges t)

let test_topology_ases_only () =
  let t = Lazy.force small in
  let restricted, mapping = T.with_ases_only t in
  check_int "no ixps left" 0 (T.count_kind restricted Nm.Ixp);
  check_int "as count preserved" (Array.length (T.ases t)) (T.n restricted);
  check_int "edges are the AS-AS edges" (T.as_as_edges t) (G.m restricted.T.graph);
  (* Mapping consistency: kinds survive. *)
  Array.iteri
    (fun new_id old_id ->
      check_bool "kind preserved" true
        (Nm.kind_equal restricted.T.kinds.(new_id) t.T.kinds.(old_id)))
    mapping

(* ---------- Dataset ---------- *)

let test_dataset_roundtrip () =
  let t = small_internet ~seed:9 ~scale:0.005 () in
  let path = Filename.temp_file "topo" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> Dataset.save oc t);
      let t' = Dataset.load ~path in
      check_int "n" (T.n t) (T.n t');
      check_bool "edges" true (G.equal t.T.graph t'.T.graph);
      for v = 0 to T.n t - 1 do
        check_bool "kind" true (Nm.kind_equal t.T.kinds.(v) t'.T.kinds.(v));
        check_int "tier" t.T.tiers.(v) t'.T.tiers.(v);
        Alcotest.(check string) "name" t.T.names.(v) t'.T.names.(v)
      done;
      (* Relations survive with orientation. *)
      let mismatch = ref 0 in
      G.iter_edges t.T.graph (fun u v ->
          let r1 = Rel.find t.T.relations u v in
          let r2 = Rel.find t'.T.relations u v in
          if r1 <> r2 then incr mismatch;
          if
            Rel.customer_of t.T.relations u v
            <> Rel.customer_of t'.T.relations u v
          then incr mismatch);
      check_int "relations preserved" 0 !mismatch)

let suite =
  [
    ( "topo.relations",
      [
        Alcotest.test_case "c2p orientation" `Quick test_relations_c2p_orientation;
        Alcotest.test_case "peer & ixp" `Quick test_relations_peer_ixp;
        Alcotest.test_case "self edge" `Quick test_relations_self_edge;
        Alcotest.test_case "twin arcs match" `Quick test_relations_twin_arcs;
      ] );
    ( "topo.classic",
      [
        Alcotest.test_case "ER size" `Quick test_er_size;
        Alcotest.test_case "WS lattice degree" `Quick test_ws_degree;
        Alcotest.test_case "WS rewired" `Quick test_ws_rewired_connect;
        Alcotest.test_case "WS bad k" `Quick test_ws_bad_k;
        Alcotest.test_case "BA heavy tail" `Quick test_ba_heavy_tail;
      ] );
    ( "topo.internet",
      [
        Alcotest.test_case "Table-2 shape" `Quick test_internet_table2_shape;
        Alcotest.test_case "giant component" `Quick test_internet_giant_component;
        Alcotest.test_case "deterministic" `Quick test_internet_deterministic;
        Alcotest.test_case "relations complete" `Quick test_internet_relations_complete;
        Alcotest.test_case "relation/node kinds" `Quick test_internet_ixp_edges_touch_ixps;
        Alcotest.test_case "tier-1 clique" `Quick test_internet_tiers;
        Alcotest.test_case "small world" `Quick test_internet_small_world;
        Alcotest.test_case "scaled bounds" `Quick test_internet_scaled_bounds;
        Alcotest.test_case "pinned digests" `Quick test_internet_pinned;
        Alcotest.test_case "major words per generation" `Quick
          test_internet_generate_major_words;
        Alcotest.test_case "params refused" `Quick test_internet_params;
      ] );
    ( "topo.topology",
      [
        Alcotest.test_case "counts" `Quick test_topology_counts;
        Alcotest.test_case "ases only" `Quick test_topology_ases_only;
      ] );
    ("topo.dataset", [ Alcotest.test_case "roundtrip" `Quick test_dataset_roundtrip ]);
  ]
