module G = Broker_graph.Graph
module Bfs = Broker_graph.Bfs

type curve = { l_max : int; per_hop : float array; saturated : float }

let value_at c l =
  if l <= 0 then 0.0 else if l > c.l_max then c.saturated else c.per_hop.(l)

let unrestricted = fun _ -> true

let of_brokers ~n brokers =
  let set = Broker_util.Bitset.create n in
  Array.iter (Broker_util.Bitset.add set) brokers;
  fun v -> Broker_util.Bitset.mem set v

let edge_ok ~is_broker u v = is_broker u || is_broker v

(* Per-worker accumulator of the source-parallel evaluation. Everything
   accumulated is an integer count, so the merged totals are independent of
   how sources were partitioned across domains — the property that lets
   the engine use strided load balancing while staying bit-identical under
   any REPRO_DOMAINS setting. *)
type acc = { hist : int array; mutable reached : int; mutable total : int }

let empty_acc l_max = { hist = Array.make (l_max + 1) 0; reached = 0; total = 0 }

let merge_acc x y =
  Array.iteri (fun i v -> x.hist.(i) <- x.hist.(i) + v) y.hist;
  x.reached <- x.reached + y.reached;
  x.total <- x.total + y.total;
  x

(* The one place integer tallies become a curve: every evaluator —
   generic, MS-BFS and the incremental tracker — must funnel
   through this exact float arithmetic so their curves can be compared
   bitwise. *)
let curve_of_counts ~l_max ~hist ~reached ~total =
  if Array.length hist < l_max + 1 then
    invalid_arg "Connectivity.curve_of_counts: histogram shorter than l_max";
  let ftotal = float_of_int (max 1 total) in
  let per_hop = Array.make (l_max + 1) 0.0 in
  let acc = ref 0 in
  for l = 1 to l_max do
    acc := !acc + hist.(l);
    per_hop.(l) <- float_of_int !acc /. ftotal
  done;
  { l_max; per_hop; saturated = float_of_int reached /. ftotal }

let curve_of_acc ~l_max a =
  curve_of_counts ~l_max ~hist:a.hist ~reached:a.reached ~total:a.total

(* Reference implementation: one predicate-filtered BFS per source, a fresh
   distance array each. This is the slow generic path
   the engine below is qcheck-tested against (and the "legacy" side of the
   bench kernel pair); keep its behavior frozen. *)
let eval_generic ~l_max g ~is_broker sources =
  let n = G.n g in
  if n < 2 then { l_max; per_hop = Array.make (l_max + 1) 0.0; saturated = 0.0 }
  else begin
    let edge_ok = edge_ok ~is_broker in
    let nsrc = Array.length sources in
    let worker ~start ~step =
      let a = empty_acc l_max in
      let i = ref start in
      while !i < nsrc do
        let dist = Bfs.distances_filtered g ~edge_ok sources.(!i) in
        Array.iter
          (fun d ->
            if d > 0 then begin
              a.reached <- a.reached + 1;
              if d <= l_max then a.hist.(d) <- a.hist.(d) + 1
            end)
          dist;
        a.total <- a.total + (n - 1);
        i := !i + step
      done;
      a
    in
    let a =
      Broker_util.Parallel.strided ~n:nsrc ~worker ~merge:merge_acc
        (empty_acc l_max)
    in
    curve_of_acc ~l_max a
  end

(* Batched MS-BFS path: materialize the dominated subgraph once per
   broker set, pack sources [Msbfs.lanes] per machine word, and settle
   each batch with a handful of word-parallel sweeps ([Msbfs.run]) on a
   per-domain reusable workspace. Per-hop counts come from the batch's
   per-level pair popcounts, which equal the sum of per-source BFS level
   counts bit for bit. Batches (not sources) are strided across domains;
   batch composition is fixed by the source order alone, and every
   accumulated quantity is an integer count, so the merged totals are
   independent of REPRO_DOMAINS and bitwise identical to the generic
   reference path. *)
let eval ~l_max g ~is_broker sources =
  let n = G.n g in
  if n < 2 then { l_max; per_hop = Array.make (l_max + 1) 0.0; saturated = 0.0 }
  else begin
    let proj = Broker_graph.Projected.project g ~is_broker in
    let pg = Broker_graph.Projected.graph proj in
    let nsrc = Array.length sources in
    let lanes = Broker_graph.Msbfs.lanes in
    let nbatch = (nsrc + lanes - 1) / lanes in
    let worker ~start ~step =
      let ws = Broker_graph.Msbfs.workspace () in
      let a = empty_acc l_max in
      let b = ref start in
      while !b < nbatch do
        let lo = !b * lanes in
        let len = min lanes (nsrc - lo) in
        Broker_graph.Msbfs.run ws pg sources ~lo ~len;
        for d = 1 to Broker_graph.Msbfs.max_level ws do
          let c = Broker_graph.Msbfs.level_pairs ws d in
          a.reached <- a.reached + c;
          if d <= l_max then a.hist.(d) <- a.hist.(d) + c
        done;
        a.total <- a.total + (len * (n - 1));
        b := !b + step
      done;
      a
    in
    let a =
      Broker_util.Parallel.strided ~n:nbatch ~worker ~merge:merge_acc
        (empty_acc l_max)
    in
    curve_of_acc ~l_max a
  end

let eval_sources ?(l_max = 10) g ~is_broker sources = eval ~l_max g ~is_broker sources

let eval_sources_reference ?(l_max = 10) g ~is_broker sources =
  eval_generic ~l_max g ~is_broker sources

let exact ?(l_max = 10) g ~is_broker =
  eval ~l_max g ~is_broker (Array.init (G.n g) (fun i -> i))

let sampled ?(l_max = 10) ?source_set ~rng ~sources g ~is_broker =
  let srcs =
    match source_set with
    | Some s -> s
    | None ->
        let n = G.n g in
        let k = min sources n in
        Broker_util.Sampling.without_replacement rng ~n ~k
  in
  eval ~l_max g ~is_broker srcs

let saturated_sampled ~rng ~sources g ~is_broker =
  (sampled ~l_max:1 ~rng ~sources g ~is_broker).saturated
