(* The dynamic-topology layer: delta overlays over the immutable CSR,
   view-based kernel equivalence, compaction bitwise-equality, the
   incremental connectivity tracker vs the from-scratch oracle (across
   REPRO_DOMAINS), the update-stream generator/scheduler, and the
   simulator's streaming-update path. *)

open Helpers
module G = Broker_graph.Graph
module View = Broker_graph.View
module Delta = Broker_graph.Delta
module Bfs = Broker_graph.Bfs
module Msbfs = Broker_graph.Msbfs
module X = Broker_util.Xrandom
module Conn = Broker_core.Connectivity
module Incr = Broker_core.Incremental
module Sim = Broker_sim.Simulator
module Stream = Broker_sim.Topo_stream
module Cache = Broker_sim.Shard_cache
module Workload = Broker_sim.Workload

let q ?(count = 80) name arb law =
  qcheck (QCheck.Test.make ~count ~name arb law)

(* A base graph plus a random announce/withdraw script (endpoints may
   collide or repeat: self-loops and duplicate ops must be no-ops). *)
let script_arb =
  QCheck.make
    ~print:(fun (n, m, nops, seed) ->
      Printf.sprintf "<n=%d m=%d nops=%d seed=%d>" n m nops seed)
    QCheck.Gen.(
      int_range 2 32 >>= fun n ->
      int_range 0 64 >>= fun m ->
      int_range 0 96 >>= fun nops ->
      int_range 0 1_000_000 >|= fun seed -> (n, m, nops, seed))

(* Replay a script into a delta and, in lockstep, a naive edge-set model.
   Returns the delta and the model's edge array. *)
let replay (n, m, nops, seed) =
  let rng = X.create seed in
  let g = random_graph rng ~n ~m in
  let d = Delta.create g in
  let model = Hashtbl.create 64 in
  let key u v = (min u v * n) + max u v in
  G.iter_edges g (fun u v -> Hashtbl.replace model (key u v) (u, v));
  let ok = ref true in
  for _ = 1 to nops do
    let u = X.int rng n and v = X.int rng n in
    let announce = X.int rng 2 = 0 in
    let present = Hashtbl.mem model (key u v) in
    if announce then begin
      let changed = Delta.add_edge d u v in
      if changed <> ((not present) && u <> v) then ok := false;
      if u <> v then Hashtbl.replace model (key u v) (u, v)
    end
    else begin
      let changed = Delta.remove_edge d u v in
      if changed <> present then ok := false;
      Hashtbl.remove model (key u v)
    end
  done;
  let edges = Array.of_seq (Hashtbl.to_seq_values model) in
  (g, d, G.of_edges ~n edges, !ok)

let neighbors_of_view vw u =
  List.rev (View.fold_neighbors vw u (fun acc v -> v :: acc) [])

let overlay_reads_match_rebuild =
  q "overlay reads = rebuilt-CSR reads" script_arb (fun script ->
      let _, d, rebuilt, ok = replay script in
      let vw = Delta.view d in
      let n = G.n rebuilt in
      ok
      && Delta.edges d = G.m rebuilt
      && Delta.arcs d = G.arcs rebuilt
      && View.n vw = n
      && View.arcs vw = G.arcs rebuilt
      &&
      let per_vertex = ref true in
      for u = 0 to n - 1 do
        if Delta.degree d u <> G.degree rebuilt u then per_vertex := false;
        if View.degree vw u <> G.degree rebuilt u then per_vertex := false;
        if neighbors_of_view vw u <> neighbor_list rebuilt u
        then per_vertex := false;
        for v = 0 to n - 1 do
          if Delta.mem_edge d u v <> G.mem_edge rebuilt u v then
            per_vertex := false;
          if View.mem_edge vw u v <> G.mem_edge rebuilt u v then
            per_vertex := false
        done
      done;
      !per_vertex)

let compact_equals_rebuild =
  q "compact = of_edges rebuild (bitwise)" script_arb (fun script ->
      let g, d, rebuilt, _ = replay script in
      G.equal (Delta.compact g d) rebuilt)

let view_is_snapshot =
  q "views are immutable snapshots" script_arb (fun ((n, _, _, seed) as script) ->
      let _, d, rebuilt, _ = replay script in
      let vw = Delta.view d in
      (* Mutate on: flip edges around a random vertex. *)
      let rng = X.create (seed + 1) in
      for _ = 1 to 8 do
        let u = X.int rng n and v = X.int rng n in
        if Delta.mem_edge d u v then ignore (Delta.remove_edge d u v)
        else ignore (Delta.add_edge d u v)
      done;
      let still = ref true in
      for u = 0 to n - 1 do
        if neighbors_of_view vw u <> neighbor_list rebuilt u
        then still := false
      done;
      !still)

(* MS-BFS over the overlay equals MS-BFS over the compacted rebuild:
   every vertex's settled word, every level's pair count and every
   watched distance. Lanes start at random vertices (with repeats) and
   the whole vertex set is watched. *)
let msbfs_view_matches_rebuild =
  let ws = Msbfs.workspace () in
  let ws' = Msbfs.workspace () in
  q "Msbfs.run_view on overlay = Msbfs.run on rebuild" script_arb
    (fun ((n, _, _, seed) as script) ->
      let _, d, rebuilt, _ = replay script in
      let rng = X.create (seed + 2) in
      let len = 1 + X.int rng Msbfs.lanes in
      let srcs = Array.init len (fun _ -> X.int rng n) in
      let watch = Array.init n Fun.id in
      Msbfs.run_view ws (Delta.view d) ~watch srcs ~lo:0 ~len;
      Msbfs.run_view ws' (View.of_graph rebuilt) ~watch srcs ~lo:0 ~len;
      let same f = List.for_all (fun i -> f ws i = f ws' i) in
      let vertices = List.init n Fun.id in
      Msbfs.max_level ws = Msbfs.max_level ws'
      && same Msbfs.settled_bits vertices
      && same Msbfs.level_pairs (List.init (Msbfs.max_level ws + 1) Fun.id)
      && List.for_all
           (fun b -> same (fun w i -> Msbfs.watch_distance w i b) vertices)
           (List.init len Fun.id))

(* ---------- incremental tracker vs from-scratch oracle ---------- *)

let curves_equal (a : Conn.curve) (b : Conn.curve) =
  a.Conn.l_max = b.Conn.l_max
  && Float.equal a.Conn.saturated b.Conn.saturated
  && Array.for_all2 Float.equal a.Conn.per_hop b.Conn.per_hop

let incr_script_arb =
  QCheck.make
    ~print:(fun (n, m, k, nops, seed) ->
      Printf.sprintf "<n=%d m=%d brokers=%d nops=%d seed=%d>" n m k nops seed)
    QCheck.Gen.(
      int_range 2 28 >>= fun n ->
      int_range 0 56 >>= fun m ->
      int_range 0 6 >>= fun k ->
      int_range 0 24 >>= fun nops ->
      int_range 0 1_000_000 >|= fun seed -> (n, m, k, nops, seed))

(* A burst of [len] random ops; about one op in four revisits an edge
   an earlier op of the burst touched, with the kind drawn afresh, so
   bursts announce and withdraw the same edge and cancel out. *)
let random_burst rng ~n len =
  let ops = Array.make len (Incr.Add (0, 0)) in
  for i = 0 to len - 1 do
    let u, v =
      if i > 0 && X.int rng 4 = 0 then
        match ops.(X.int rng i) with
        | Incr.Add (u, v) | Incr.Remove (u, v) -> (v, u)
      else (X.int rng n, X.int rng n)
    in
    ops.(i) <- (if X.int rng 2 = 0 then Incr.Add (u, v) else Incr.Remove (u, v))
  done;
  ops

let mirror_ops d ops =
  Array.iter
    (fun op ->
      ignore
        (match op with
        | Incr.Add (u, v) -> Delta.add_edge d u v
        | Incr.Remove (u, v) -> Delta.remove_edge d u v))
    ops

(* Up to 252 sources (four words), drawn with replacement: repacked
   batches span several words, a quarter of the cases reach the
   four batches a parallel sweep needs, and duplicate sources are
   distinct lanes. *)
let incremental_matches_oracle_under ~domains =
  q ~count:40
    (Printf.sprintf "incremental = oracle (REPRO_DOMAINS=%s)" domains)
    incr_script_arb
    (fun (n, m, k, nops, seed) ->
      with_domains domains (fun () ->
          let rng = X.create seed in
          let g = random_graph rng ~n ~m in
          let brokers = Array.init k (fun _ -> X.int rng n) in
          let is_broker = Conn.of_brokers ~n brokers in
          let nsrc = 1 + X.int rng 252 in
          let sources = Array.init nsrc (fun _ -> X.int rng n) in
          let tracker = Incr.create g ~is_broker ~sources in
          let d = Delta.create g in
          (* Two bursts: the second starts from an already-dirty overlay. *)
          let check_burst ops =
            ignore (Incr.apply tracker ops);
            mirror_ops d ops;
            let g' = Delta.compact g d in
            curves_equal (Incr.curve tracker)
              (Conn.eval_sources g' ~is_broker sources)
          in
          let initial =
            curves_equal (Incr.curve tracker)
              (Conn.eval_sources g ~is_broker sources)
          in
          initial
          && check_burst (random_burst rng ~n (nops / 2))
          && check_burst (random_burst rng ~n (nops / 2))))

(* Exactness of the affected-source test, checked the way SNIPPETS.md's
   check_prop does it: a fixed seed, and a tally of the cases whose
   precondition failed (here: the burst took the fallback, which skips
   the test). On the test path, [sources_affected] must equal the number
   of sources whose filtered-BFS distance vector differs between the
   compacted graphs before and after the burst. *)
type outcome = Exact of int | Fallback | Mismatch of string

let affected_is_exact () =
  let gen =
    QCheck.Gen.(
      int_range 2 40 >>= fun n ->
      int_range 0 80 >>= fun m ->
      int_range 1 8 >>= fun k ->
      int_range 1 10 >>= fun nops ->
      int_range 1 200 >>= fun nsrc ->
      int_range 0 1_000_000 >|= fun seed -> (n, m, k, nops, nsrc, seed))
  in
  let cases =
    QCheck.Gen.generate ~rand:(Random.State.make [| 42 |]) ~n:300 gen
  in
  let check (n, m, k, nops, nsrc, seed) =
    let rng = X.create seed in
    let g = random_graph rng ~n ~m in
    let is_broker = Conn.of_brokers ~n (Array.init k (fun _ -> X.int rng n)) in
    let edge_ok = Conn.edge_ok ~is_broker in
    let sources = Array.init nsrc (fun _ -> X.int rng n) in
    let tracker = Incr.create g ~is_broker ~sources in
    let d = Delta.create g in
    (* Two bursts, so the second is tested against a dirty overlay. *)
    let burst () =
      let before = Delta.compact g d in
      let ops = random_burst rng ~n nops in
      let s = Incr.apply tracker ops in
      mirror_ops d ops;
      let after = Delta.compact g d in
      let moved = ref 0 in
      Array.iter
        (fun src ->
          if
            Bfs.distances_filtered before ~edge_ok src
            <> Bfs.distances_filtered after ~edge_ok src
          then incr moved)
        sources;
      if s.Incr.fallback then Fallback
      else if s.Incr.sources_affected = !moved then Exact !moved
      else
        Mismatch
          (Printf.sprintf
             "n=%d m=%d k=%d nops=%d nsrc=%d seed=%d: affected %d, moved %d" n
             m k nops nsrc seed s.Incr.sources_affected !moved)
    in
    let first = burst () in
    [ first; burst () ]
  in
  let outcomes = List.concat_map check cases in
  let count p = List.length (List.filter p outcomes) in
  let exact = count (function Exact _ -> true | _ -> false) in
  let moving = count (function Exact m -> m > 0 | _ -> false) in
  let fallback = count (function Fallback -> true | _ -> false) in
  let failures =
    List.filter_map (function Mismatch m -> Some m | _ -> None) outcomes
  in
  Printf.printf
    "%d bursts for affected-source exactness: %d exact (%d moving some \
     source), %d failures, %d took the fallback\n"
    (List.length outcomes) exact moving (List.length failures) fallback;
  List.iter print_endline failures;
  check_int "mismatches" 0 (List.length failures);
  check_bool "most bursts ran the test" true (exact > fallback);
  check_bool "many tested bursts moved a source" true (3 * moving > exact)

(* A burst whose announcements have 80 distinct endpoints, and then its
   undo: each side's endpoints take two 63-lane sweeps. 2,000 sources
   make 32 batches, so the fallback waits for 97 endpoints and both
   bursts are tested. [sources_affected] must equal the number of
   sources whose filtered-BFS vector moved, and the curve the oracle's. *)
let incr_two_batch_endpoints () =
  let n = 400 in
  let rng = X.create 2026 in
  let g = random_graph rng ~n ~m:300 in
  let is_broker v = v < 40 in
  let edge_ok = Conn.edge_ok ~is_broker in
  let sources = Array.init 2000 (fun _ -> X.int rng n) in
  let t = Incr.create g ~is_broker ~sources in
  let d = Delta.create g in
  (* Broker i gains an edge to a distinct non-broker far along the chain. *)
  let adds =
    Array.init 40 (fun i ->
        let x = ref (40 + (9 * i)) in
        while G.mem_edge g i !x do
          incr x
        done;
        Incr.Add (i, !x))
  in
  let removes =
    Array.map
      (function Incr.Add (u, v) -> Incr.Remove (v, u) | op -> op)
      adds
  in
  let burst ops =
    let before = Delta.compact g d in
    let s = Incr.apply t ops in
    mirror_ops d ops;
    let after = Delta.compact g d in
    let moved =
      Array.init n (fun v ->
          Bfs.distances_filtered before ~edge_ok v
          <> Bfs.distances_filtered after ~edge_ok v)
    in
    check_int "applied" 40 s.Incr.applied;
    check_bool "tested" false s.Incr.fallback;
    check_int "batches total" 32 s.Incr.batches_total;
    check_int "affected = moved"
      (Array.fold_left (fun a v -> if moved.(v) then a + 1 else a) 0 sources)
      s.Incr.sources_affected;
    check_bool "some source moved" true (s.Incr.sources_affected > 0);
    check_bool "curve = oracle" true
      (curves_equal (Incr.curve t) (Conn.eval_sources after ~is_broker sources))
  in
  burst adds;
  burst removes

let incr_stats_accounting () =
  (* Hand-built scene: broker 0 in a 4-chain 0-1-2-3. *)
  let g = G.of_edges ~n:4 [| (0, 1); (1, 2); (2, 3) |] in
  let is_broker v = v = 0 in
  let sources = [| 0; 1; 2; 3 |] in
  let t = Incr.create g ~is_broker ~sources in
  (* (2,3) has no broker endpoint: ignored. (0,1) exists: noop.
     (0,3) is new and dominated: applied. *)
  let s =
    Incr.apply t [| Incr.Remove (2, 3); Incr.Add (0, 1); Incr.Add (0, 3) |]
  in
  check_int "applied" 1 s.Incr.applied;
  check_int "noops" 1 s.Incr.noops;
  check_int "ignored" 1 s.Incr.ignored;
  check_int "batches total" 1 s.Incr.batches_total;
  check_int "batches reevaluated" 1 s.Incr.batches_reevaluated;
  (* No dominated change -> no re-evaluation. *)
  let s2 = Incr.apply t [| Incr.Remove (1, 2) |] in
  check_int "ignored only" 1 s2.Incr.ignored;
  check_int "no re-eval" 0 s2.Incr.batches_reevaluated

(* Bursts are atomic: an out-of-range endpoint anywhere in the burst
   rejects the whole burst before any op touches the overlay. Scene: the
   path 0-1-2-3-4-5 with brokers {0, 3} keeps (0,1), (2,3) and (3,4), so
   8 of the 30 ordered pairs connect; announcing (0,4) would make it 20. *)
let incr_rejects_out_of_range () =
  let g = path_graph 6 in
  let is_broker v = v = 0 || v = 3 in
  let sources = Array.init 6 Fun.id in
  let t = Incr.create g ~is_broker ~sources in
  let base = Incr.curve t in
  check_float "base saturated" (8.0 /. 30.0) base.Conn.saturated;
  let rejected = Invalid_argument "Incremental.apply: endpoint out of range" in
  Alcotest.check_raises "bad endpoint after a good op" rejected (fun () ->
      ignore (Incr.apply t [| Incr.Add (0, 4); Incr.Add (3, 99) |]));
  Alcotest.check_raises "op with no broker endpoint" rejected (fun () ->
      ignore (Incr.apply t [| Incr.Add (77, 99) |]));
  Alcotest.check_raises "negative endpoint" rejected (fun () ->
      ignore (Incr.apply t [| Incr.Remove (-1, 0) |]));
  Alcotest.check_raises "source out of range"
    (Invalid_argument "Incremental.create: source out of range") (fun () ->
      ignore (Incr.create g ~is_broker ~sources:[| 0; 6 |]))

let incr_unchanged_after_rejection () =
  let g = path_graph 6 in
  let is_broker v = v = 0 || v = 3 in
  let sources = Array.init 6 Fun.id in
  let t = Incr.create g ~is_broker ~sources in
  let base = Incr.curve t in
  (try ignore (Incr.apply t [| Incr.Add (0, 4); Incr.Add (3, 99) |])
   with Invalid_argument _ -> ());
  check_bool "curve unchanged" true (curves_equal base (Incr.curve t));
  (* The overlay does not hold (0,4): announcing it now applies, and
     the curve follows the oracle. *)
  let s = Incr.apply t [| Incr.Add (0, 4) |] in
  check_int "(0,4) applies" 1 s.Incr.applied;
  let g' =
    G.of_edges ~n:6 [| (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (0, 4) |]
  in
  check_bool "oracle after the retry" true
    (curves_equal (Incr.curve t) (Conn.eval_sources g' ~is_broker sources));
  check_float "saturated" (20.0 /. 30.0) (Incr.saturated t)

(* The test needs one BFS per distinct endpoint; past 3 runs per batch
   the tracker re-sweeps every source untested. One batch here, so one
   net edge (2 runs) is tested and two disjoint ones (4 runs) are not. *)
let incr_fallback_rule () =
  let g = path_graph 8 in
  let is_broker v = v = 0 || v = 4 in
  let sources = Array.init 8 Fun.id in
  let t = Incr.create g ~is_broker ~sources in
  let s = Incr.apply t [| Incr.Add (0, 2) |] in
  check_bool "one edge: tested" false s.Incr.fallback;
  check_int "one batch swept" 1 s.Incr.batches_reevaluated;
  let s = Incr.apply t [| Incr.Add (0, 6); Incr.Add (4, 7) |] in
  check_bool "two edges: fallback" true s.Incr.fallback;
  check_int "every source" 8 s.Incr.sources_affected;
  (* An announce and withdraw of the same edge cancel: nothing to test. *)
  let s = Incr.apply t [| Incr.Add (0, 5); Incr.Remove (5, 0) |] in
  check_int "applied both" 2 s.Incr.applied;
  check_bool "cancelled: tested" false s.Incr.fallback;
  check_int "cancelled: none affected" 0 s.Incr.sources_affected;
  check_int "cancelled: no sweep" 0 s.Incr.batches_reevaluated

(* A withdrawal and an announcement that offset each other: 0-1-2 loses
   (1,2) while (3,2) arrives beside 0-3, so vertex 2 stays 2 hops from
   0. Each op alone moves source 0; the burst as a whole does not. *)
let incr_offsetting_burst () =
  let g = G.of_edges ~n:4 [| (0, 1); (1, 2); (0, 3) |] in
  let is_broker v = v = 1 || v = 3 in
  (* 64 lanes, 2 batches: the 4 endpoint runs stay under the fallback. *)
  let sources = Array.make 64 0 in
  let t = Incr.create g ~is_broker ~sources in
  let s = Incr.apply t [| Incr.Remove (1, 2); Incr.Add (3, 2) |] in
  check_int "applied" 2 s.Incr.applied;
  check_bool "tested" false s.Incr.fallback;
  check_int "no source moved" 0 s.Incr.sources_affected;
  check_int "no sweep" 0 s.Incr.batches_reevaluated;
  let g' = G.of_edges ~n:4 [| (0, 1); (3, 2); (0, 3) |] in
  check_bool "oracle" true
    (curves_equal (Incr.curve t) (Conn.eval_sources g' ~is_broker sources))

(* ---------- update streams ---------- *)

let burst_is_valid =
  q ~count:60 "burst: disjoint valid withdraw/announce ops" graph_arbitrary
    (fun g ->
      let n = G.n g in
      let rng = X.create 4242 in
      let ops = Stream.burst ~rng g ~size:24 in
      let seen = Hashtbl.create 64 in
      Array.for_all
        (fun op ->
          let u, v = Stream.op_endpoints op in
          let k = (min u v * n) + max u v in
          let fresh = not (Hashtbl.mem seen k) in
          Hashtbl.replace seen k ();
          fresh && u <> v
          &&
          match op with
          | Stream.Withdraw _ -> G.mem_edge g u v
          | Stream.Announce _ -> not (G.mem_edge g u v))
        ops)

let schedule_delays () =
  let g = G.of_edges ~n:5 [| (0, 1); (1, 2); (2, 3); (3, 4) |] in
  let ev op = { Stream.time = 1.0; op } in
  let events = [| ev (Stream.Announce (3, 4)); ev (Stream.Withdraw (0, 1)) |] in
  let central =
    Stream.schedule g ~brokers:[| 0 |] (Stream.Centralized { delay = 2.5 })
      events
  in
  Array.iter
    (fun e -> check_float "constant delay" 3.5 e.Stream.time)
    central;
  let bgp =
    Stream.schedule g ~brokers:[| 0 |]
      (Stream.Bgp_like { base = 1.0; per_hop = 2.0 })
      events
  in
  (* (3,4): nearer endpoint 3 hops to broker 0 -> 1.0 + (1 + 2*3). *)
  check_float "hop-staggered" 8.0 bgp.(0).Stream.time;
  (* (0,1): broker endpoint itself -> 0 hops. *)
  check_float "broker-adjacent" 2.0 bgp.(1).Stream.time;
  (* No broker reachable: pessimistic n hops. *)
  let far =
    Stream.schedule g ~brokers:[||]
      (Stream.Bgp_like { base = 0.0; per_hop = 1.0 })
      [| ev (Stream.Announce (0, 1)) |]
  in
  check_float "unreachable pays n" 6.0 far.(0).Stream.time

(* ---------- cache invalidation ---------- *)

let test_invalidate_all () =
  List.iter
    (fun strategy ->
      let c =
        Cache.create ~strategy ~n:10 ~shards:[| 1; 2; 3 |] ()
      in
      for s = 0 to 4 do
        ignore
          (Cache.find c ~compute:(fun () -> Some [| s; 9 |]) s 9)
      done;
      check_int "filled" 5 (Cache.size c);
      Cache.invalidate_all c;
      check_int "emptied" 0 (Cache.size c);
      check_int "evictions counted" 5 (Cache.stats c).Cache.evicted;
      (* Idempotent on empty. *)
      Cache.invalidate_all c;
      check_int "still counted once" 5 (Cache.stats c).Cache.evicted;
      check_bool "invariants hold" true (Cache.invariant_ok c))
    [ Cache.Flush; Cache.Modulo; Cache.Ring { vnodes = 8 } ]

(* ---------- simulator streaming-update path ---------- *)

let sim_scene () =
  let topo = small_internet ~seed:5 ~scale:0.01 () in
  let g = topo.Broker_topo.Topology.graph in
  let order = Broker_core.Maxsg.run_to_saturation g in
  let brokers = Array.sub order 0 (min 12 (Array.length order)) in
  let model = Workload.zipf ~n:(G.n g) () in
  let sessions =
    Workload.generate ~rng:(X.create 7) model ~n_sessions:400
      Workload.default_params
  in
  (topo, g, brokers, sessions)

let test_sim_applies_updates () =
  let topo, g, brokers, sessions = sim_scene () in
  let config = Sim.degree_capacity g ~factor:0.3 in
  let horizon = sessions.(Array.length sessions - 1).Workload.arrival in
  let ops = Stream.burst ~rng:(X.create 21) g ~size:16 in
  let updates =
    Array.map (fun op -> { Stream.time = 0.5 *. horizon; op }) ops
  in
  let run prop =
    Sim.run ~topo:{ Sim.updates; propagation = prop } topo ~brokers ~sessions
      config
  in
  let s = run (Stream.Centralized { delay = 1.0 }) in
  check_int "every op lands once" (Array.length ops)
    (s.Sim.topo_applied + s.Sim.topo_ignored);
  check_bool "burst ops all change the graph" true (s.Sim.topo_applied > 0);
  check_bool "cache flushed on change" true
    (s.Sim.cache.Cache.evicted > 0 || s.Sim.cache.Cache.lookups = 0);
  (* Deterministic replay, including under the BGP-like scheduler. *)
  let s2 = run (Stream.Centralized { delay = 1.0 }) in
  check_bool "replay identical" true (Sim.stats_equal s s2);
  let b1 = run (Stream.Bgp_like { base = 0.5; per_hop = 1.0 }) in
  let b2 = run (Stream.Bgp_like { base = 0.5; per_hop = 1.0 }) in
  check_bool "bgp replay identical" true (Sim.stats_equal b1 b2)

let test_sim_rejects_bad_update () =
  let topo, g, brokers, sessions = sim_scene () in
  let config = Sim.degree_capacity g ~factor:0.3 in
  let updates =
    [| { Stream.time = 0.0; op = Stream.Announce (0, G.n g) } |]
  in
  Alcotest.check_raises "endpoint out of range"
    (Invalid_argument "Simulator.run: topo update endpoint out of range")
    (fun () ->
      ignore
        (Sim.run
           ~topo:
             {
               Sim.updates;
               propagation = Stream.Centralized { delay = 1.0 };
             }
           topo ~brokers ~sessions config));
  Alcotest.check_raises "NaN update time"
    (Invalid_argument "Simulator.run: topo update time is NaN") (fun () ->
      ignore
        (Sim.run
           ~topo:
             {
               Sim.updates = [| { Stream.time = Float.nan; op = Stream.Announce (0, 1) } |];
               propagation = Stream.Centralized { delay = 1.0 };
             }
           topo ~brokers ~sessions config))

let suite =
  [
    ( "delta.overlay",
      [
        overlay_reads_match_rebuild;
        compact_equals_rebuild;
        view_is_snapshot;
        msbfs_view_matches_rebuild;
      ] );
    ( "delta.incremental",
      [
        incremental_matches_oracle_under ~domains:"1";
        incremental_matches_oracle_under ~domains:"4";
        Alcotest.test_case "stats accounting" `Quick incr_stats_accounting;
        Alcotest.test_case "affected sources are exact" `Quick
          affected_is_exact;
        Alcotest.test_case "rejects out-of-range endpoints" `Quick
          incr_rejects_out_of_range;
        Alcotest.test_case "tracker unchanged after a rejected burst" `Quick
          incr_unchanged_after_rejection;
        Alcotest.test_case "fallback rule" `Quick incr_fallback_rule;
        Alcotest.test_case "endpoints in two sweeps" `Quick
          incr_two_batch_endpoints;
        Alcotest.test_case "offsetting withdraw and announce" `Quick
          incr_offsetting_burst;
      ] );
    ( "delta.stream",
      [
        burst_is_valid;
        Alcotest.test_case "schedule delays" `Quick schedule_delays;
        Alcotest.test_case "invalidate_all" `Quick test_invalidate_all;
      ] );
    ( "delta.sim",
      [
        Alcotest.test_case "updates applied & deterministic" `Quick
          test_sim_applies_updates;
        Alcotest.test_case "rejects out-of-range endpoints" `Quick
          test_sim_rejects_bad_update;
      ] );
  ]
