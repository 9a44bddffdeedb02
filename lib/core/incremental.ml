module G = Broker_graph.Graph
module View = Broker_graph.View
module Delta = Broker_graph.Delta
module Msbfs = Broker_graph.Msbfs
module Obs = Broker_obs

(* Dirty-region probes: commutative int counters over deterministically
   composed batches, diffable run-to-run like the msbfs.* family. *)
let m_applies = Obs.Metrics.counter "incr.applies"
let m_ops_applied = Obs.Metrics.counter "incr.ops.applied"
let m_ops_noop = Obs.Metrics.counter "incr.ops.noop"
let m_ops_ignored = Obs.Metrics.counter "incr.ops.ignored"
let m_batches_reeval = Obs.Metrics.counter "incr.batches.reevaluated"
let m_batches_skipped = Obs.Metrics.counter "incr.batches.skipped"
let m_sources_affected = Obs.Metrics.counter "incr.sources.affected"
let m_endpoint_bfs = Obs.Metrics.counter "incr.endpoint_bfs"
let m_fallbacks = Obs.Metrics.counter "incr.fallbacks"
let t_apply = Obs.Trace.scope "incremental.apply"

type op = Add of int * int | Remove of int * int

type stats = {
  applied : int;
  noops : int;
  ignored : int;
  sources_affected : int;
  batches_reevaluated : int;
  batches_total : int;
  fallback : bool;
}

let lanes = Msbfs.lanes
let l_max = 10

(* The tracker maintains the dominated-connectivity curve of an evolving
   topology. Only dominated edges (a broker endpoint) survive the
   projection the evaluators run on, so the tracker keeps a {!Delta}
   over the *projected* base graph, applies exactly the dominated subset
   of each update burst to it, and keeps every source's integer tallies
   plus their totals. After a burst, only the sources whose distance
   vector changed are re-swept, repacked into fresh MS-BFS batches, and
   their rows patched into the totals. Every tally is an integer count,
   so the totals are REPRO_DOMAINS-independent and the curve goes
   through {!Connectivity.curve_of_counts}, bitwise identical to a
   from-scratch {!Connectivity.eval_sources}. *)
type t = {
  n : int;  (* vertex count of the original graph *)
  is_broker : int -> bool;
  sources : int array;
  nbatch : int;  (* MS-BFS batches of a full sweep *)
  pdelta : Delta.t;  (* overlay over the projected base *)
  mutable cur_view : View.t;  (* snapshot of pdelta's current state *)
  mutable pool : Msbfs.workspace array;
      (* one per re-sweep worker; the exact test sweeps on pool.(0) *)
  hist : int array array;
      (* per source: first arrivals by hop, 1..l_max; rows are replaced,
         never written in place *)
  reached : int array;  (* per source: vertices settled at depth >= 1 *)
  tot_hist : int array;  (* column sums of [hist] *)
  mutable tot_reached : int;  (* sum of [reached] *)
}

(* Re-sweep the sources at indices [idx] against [vw], packed [lanes] to
   a batch in index order, and patch their rows into the totals. Returns
   the batches swept. Worker [start] sweeps on [pool.(start)], kept
   across bursts so a burst pays no workspace allocation; workers
   otherwise only read shared state and return rows keyed by source
   index (merged by list append), so the strided split passes C1
   domain-safety and, the totals being integer sums, the result is
   split-independent. *)
let resweep t vw idx =
  let nidx = Array.length idx in
  let srcs = Array.map (fun i -> t.sources.(i)) idx in
  let nb = (nidx + lanes - 1) / lanes in
  let domains = Broker_util.Parallel.domain_count () in
  let have = Array.length t.pool in
  if have < domains then
    t.pool <-
      Array.append t.pool
        (Array.init (domains - have) (fun _ ->
             Msbfs.workspace ~per_lane:true ()));
  let pool = t.pool in
  let worker ~start ~step =
    let ws = pool.(start) in
    let rows = ref [] in
    let b = ref start in
    while !b < nb do
      let lo = !b * lanes in
      let len = min lanes (nidx - lo) in
      Msbfs.run_view ws vw srcs ~lo ~len;
      for k = 0 to len - 1 do
        let hist = Array.make (l_max + 1) 0 in
        let reached = ref 0 in
        for d = 1 to Msbfs.max_level ws do
          let c = Msbfs.lane_level ws k d in
          reached := !reached + c;
          if d <= l_max then hist.(d) <- c
        done;
        rows := (idx.(lo + k), hist, !reached) :: !rows
      done;
      b := !b + step
    done;
    !rows
  in
  let rows =
    Broker_util.Parallel.strided ~domains ~n:nb ~worker
      ~merge:(fun a b -> List.rev_append b a)
      []
  in
  List.iter
    (fun (i, hist, reached) ->
      let old = t.hist.(i) in
      for l = 1 to l_max do
        t.tot_hist.(l) <- t.tot_hist.(l) - old.(l) + hist.(l)
      done;
      t.tot_reached <- t.tot_reached - t.reached.(i) + reached;
      t.hist.(i) <- hist;
      t.reached.(i) <- reached)
    rows;
  nb

let create g ~is_broker ~sources =
  let n = G.n g in
  Array.iter
    (fun s ->
      if s < 0 || s >= n then
        invalid_arg "Incremental.create: source out of range")
    sources;
  let sources = Array.copy sources in
  let nsrc = Array.length sources in
  let pg = Broker_graph.Projected.graph (Broker_graph.Projected.project g ~is_broker) in
  let t =
    {
      n;
      is_broker;
      sources;
      nbatch = (nsrc + lanes - 1) / lanes;
      pdelta = Delta.create pg;
      cur_view = View.of_graph pg;
      pool = [||];
      hist = Array.make nsrc (Array.make (l_max + 1) 0);
      reached = Array.make nsrc 0;
      tot_hist = Array.make (l_max + 1) 0;
      tot_reached = 0;
    }
  in
  ignore (resweep t t.cur_view (Array.init nsrc Fun.id));
  t

(* The exact test. Adding edges to a graph changes d(s,.) iff one of
   them is far apart for s: its endpoints sit at least 2 levels apart,
   or exactly one is reachable. Otherwise d(s,.) still differs by at
   most 1 across every edge, so no path got shorter. A burst takes G to
   G' = G - W + A, and G + A = G' + W is their union U: d_G = d_U iff no
   edge of A is far apart under d_G, and d_G' = d_U iff no edge of W is
   far apart under d_G'. d_G = d_G' forces both to equal d_U, because
   every edge of A lies in G' and so is not far apart under d_G'. So
   announcements are tested on the old view and withdrawals on the new
   one. Distances are symmetric, so each side's distinct endpoints go
   [lanes] to an MS-BFS sweep that watches the sources, and lane [b]'s
   watched distances are the row of endpoint [b] at every source. *)
let far_apart du dv =
  if du < 0 || dv < 0 then du >= 0 || dv >= 0 else abs (du - dv) >= 2

let endpoints es =
  Array.of_list
    (List.sort_uniq Int.compare (List.concat_map (fun (u, v) -> [ u; v ]) es))

(* The sweeps run on the first re-sweep workspace, which [create] has
   already sized: the test adds no workspace, and the re-sweep that
   follows overwrites what it leaves. *)
let flag_far_apart t vw eps es flagged =
  let ws = t.pool.(0) in
  let neps = Array.length eps in
  let rows = Array.make neps [||] in
  let lo = ref 0 in
  while !lo < neps do
    let len = min lanes (neps - !lo) in
    Msbfs.run_view ws vw ~watch:t.sources eps ~lo:!lo ~len;
    for b = 0 to len - 1 do
      rows.(!lo + b) <-
        Array.init (Array.length t.sources) (fun i -> Msbfs.watch_distance ws i b)
    done;
    lo := !lo + len
  done;
  let row x =
    let k = ref 0 in
    while eps.(!k) <> x do
      incr k
    done;
    rows.(!k)
  in
  List.iter
    (fun (u, v) ->
      let du = row u and dv = row v in
      Array.iteri (fun i d -> if far_apart d dv.(i) then flagged.(i) <- true) du)
    es

(* A burst with more distinct endpoints than [3 * nbatch] re-sweeps
   every source untested. The ratio dates from the scalar test, when
   each endpoint cost a BFS of about a sixth of a 63-lane batch, so
   [3 * nbatch] runs spent half a full re-sweep on the test. Endpoints
   now ride the sweep as lanes, 63 to a sweep, so the rule falls back
   earlier than it needs to; it is kept because moving it changes which
   bursts are tested, and with them X9's affected-source and re-sweep
   columns. *)
let fallback_ratio = 3

let apply t ops =
  Obs.Trace.with_span t_apply @@ fun () ->
  let endpoints_of = function Add (u, v) | Remove (u, v) -> (u, v) in
  (* Validate the whole burst before touching the overlay, so a rejected
     burst leaves the tracker as it was. *)
  Array.iter
    (fun op ->
      let u, v = endpoints_of op in
      if u < 0 || u >= t.n || v < 0 || v >= t.n then
        invalid_arg "Incremental.apply: endpoint out of range")
    ops;
  let applied = ref 0 and noops = ref 0 and ignored = ref 0 in
  let touched = ref [] in
  Array.iter
    (fun op ->
      let u, v = endpoints_of op in
      if not (Connectivity.edge_ok ~is_broker:t.is_broker u v) then
        (* No broker endpoint: the edge never enters the dominated
           projection, so the curve cannot depend on it. *)
        incr ignored
      else begin
        let changed =
          match op with
          | Add _ -> Delta.add_edge t.pdelta u v
          | Remove _ -> Delta.remove_edge t.pdelta u v
        in
        if changed then begin
          incr applied;
          touched := (min u v, max u v) :: !touched
        end
        else incr noops
      end)
    ops;
  let old_view = t.cur_view in
  if !applied > 0 then t.cur_view <- Delta.view t.pdelta;
  let new_view = t.cur_view in
  (* Net change of the burst: edges announced and withdrawn within it
     cancel out. *)
  let touched =
    List.sort_uniq
      (fun (a, b) (c, d) ->
        match Int.compare a c with 0 -> Int.compare b d | k -> k)
      !touched
  in
  let only_in a b (u, v) = View.mem_edge a u v && not (View.mem_edge b u v) in
  let added = List.filter (only_in new_view old_view) touched
  and removed = List.filter (only_in old_view new_view) touched in
  let eps_added = endpoints added and eps_removed = endpoints removed in
  let runs = Array.length eps_added + Array.length eps_removed in
  let nsrc = Array.length t.sources in
  let fallback = runs > fallback_ratio * t.nbatch in
  let idx =
    if fallback then Array.init nsrc Fun.id
    else begin
      let flagged = Array.make nsrc false in
      flag_far_apart t old_view eps_added added flagged;
      flag_far_apart t new_view eps_removed removed flagged;
      let idx = ref [] in
      for i = nsrc - 1 downto 0 do
        if flagged.(i) then idx := i :: !idx
      done;
      Array.of_list !idx
    end
  in
  let swept = if Array.length idx = 0 then 0 else resweep t new_view idx in
  Obs.Metrics.incr m_applies;
  Obs.Metrics.add m_ops_applied !applied;
  Obs.Metrics.add m_ops_noop !noops;
  Obs.Metrics.add m_ops_ignored !ignored;
  Obs.Metrics.add m_batches_reeval swept;
  Obs.Metrics.add m_batches_skipped (t.nbatch - swept);
  Obs.Metrics.add m_sources_affected (Array.length idx);
  if fallback then Obs.Metrics.incr m_fallbacks
  else Obs.Metrics.add m_endpoint_bfs runs;
  {
    applied = !applied;
    noops = !noops;
    ignored = !ignored;
    sources_affected = Array.length idx;
    batches_reevaluated = swept;
    batches_total = t.nbatch;
    fallback;
  }

let curve t =
  if t.n < 2 then
    {
      Connectivity.l_max;
      per_hop = Array.make (l_max + 1) 0.0;
      saturated = 0.0;
    }
  else
    Connectivity.curve_of_counts ~l_max ~hist:t.tot_hist
      ~reached:t.tot_reached
      ~total:(Array.length t.sources * (t.n - 1))

let saturated t = (curve t).Connectivity.saturated
