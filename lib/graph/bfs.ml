let generic g ~edge_ok ~max_depth srcs =
  let n = Graph.n g in
  (* Validate every source before touching any state: a bad source must not
     leave earlier sources enqueued in a half-initialized traversal for
     callers that catch the exception. *)
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Bfs: source out of range")
    srcs;
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  List.iter
    (fun s ->
      if dist.(s) < 0 then begin
        dist.(s) <- 0;
        queue.(!tail) <- s;
        incr tail
      end)
    srcs;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) in
    if du < max_depth then
      Graph.iter_neighbors g u (fun v ->
          if dist.(v) < 0 && edge_ok u v then begin
            dist.(v) <- du + 1;
            queue.(!tail) <- v;
            incr tail
          end)
  done;
  dist

let all_edges _ _ = true

let distances g src = generic g ~edge_ok:all_edges ~max_depth:max_int [ src ]

let distances_bounded g ~max_depth src =
  generic g ~edge_ok:all_edges ~max_depth [ src ]

let distances_filtered g ~edge_ok src =
  generic g ~edge_ok ~max_depth:max_int [ src ]

let distances_multi g srcs = generic g ~edge_ok:all_edges ~max_depth:max_int srcs

let parents g src =
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  seen.(src) <- true;
  queue.(!tail) <- src;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Graph.iter_neighbors g u (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          parent.(v) <- u;
          queue.(!tail) <- v;
          incr tail
        end)
  done;
  parent

let path_to ~parents ~src dst =
  if src = dst then [ src ]
  else if parents.(dst) < 0 then []
  else begin
    let rec walk v acc =
      if v = src then src :: acc
      else begin
        let p = parents.(v) in
        if p < 0 then [] else walk p (v :: acc)
      end
    in
    walk dst []
  end

(* ------------------------------------------------------------------ *)
(* Direction-optimizing BFS over a reusable workspace                  *)
(* ------------------------------------------------------------------ *)

(* The connectivity evaluators run one BFS per source over the same
   (projected) graph, for hundreds of sources. A [workspace] holds every
   scratch array those runs need; successive runs reuse it with an epoch
   bump instead of reallocating or clearing, so a full evaluation performs
   O(1) allocations per domain rather than O(sources) arrays of n ints.

   A vertex [v] is settled in the current run iff [stamp.(v) = epoch];
   [dist.(v)] is only meaningful under that guard. The frontier at depth
   [d] is exactly the settled vertices with [dist.(v) = d], which lets the
   bottom-up sweep test frontier membership with two array reads and no
   separate frontier bitset to build or clear. *)

type workspace = {
  mutable cap : int;  (* arrays below are sized for [cap] vertices *)
  mutable epoch : int;
  mutable stamp : int array;  (* stamp.(v) = epoch  <=>  v settled *)
  mutable dist : int array;  (* valid only under the stamp guard *)
  mutable q_cur : int array;  (* current frontier, as a vertex queue *)
  mutable q_next : int array;  (* next frontier being produced *)
  mutable levels : int array;  (* levels.(d) = vertices settled at depth d *)
  mutable max_level : int;  (* levels valid for 0 .. max_level *)
  mutable settled : int;  (* total settled, source included *)
}

let workspace () =
  {
    cap = 0;
    epoch = 0;
    stamp = [||];
    dist = [||];
    q_cur = [||];
    q_next = [||];
    levels = [||];
    max_level = 0;
    settled = 0;
  }

let ensure ws n =
  if ws.cap < n then begin
    ws.cap <- n;
    ws.stamp <- Array.make n 0;
    ws.dist <- Array.make n 0;
    ws.q_cur <- Array.make n 0;
    ws.q_next <- Array.make n 0;
    ws.levels <- Array.make (n + 1) 0;
    (* Fresh stamps are all 0; restarting the epoch below keeps the
       guard [stamp.(v) = epoch] false until a vertex is settled. *)
    ws.epoch <- 0
  end

(* Beamer-style switching thresholds: expand bottom-up once the frontier's
   out-edges exceed 1/alpha of the edges still incident to unsettled
   vertices; fall back to top-down when the frontier shrinks below
   n/beta. The choice only affects speed — both directions settle the same
   vertices at the same depths — so distances (and everything derived from
   them) are identical whichever steps run bottom-up. *)
let alpha = 14
let beta = 24

(* Observability probes (Broker_obs): all counters are commutative int
   sums, so totals are REPRO_DOMAINS-independent and diffable; per-level
   tallies accumulate in locals and flush once per run, keeping the
   disabled-mode cost to one flag check per level. *)
module Obs = Broker_obs

let m_runs = Obs.Metrics.counter "bfs.runs"
let m_levels_td = Obs.Metrics.counter "bfs.levels.top_down"
let m_levels_bu = Obs.Metrics.counter "bfs.levels.bottom_up"
let m_switches = Obs.Metrics.counter "bfs.direction_switches"
let m_arcs = Obs.Metrics.counter "bfs.frontier_arcs"
let m_settled = Obs.Metrics.counter "bfs.settled"
let h_frontier = Obs.Metrics.histogram "bfs.frontier_size"
let t_run = Obs.Trace.scope "bfs.run"
let t_level_td = Obs.Trace.scope "bfs.frontier.top_down"
let t_level_bu = Obs.Trace.scope "bfs.frontier.bottom_up"

(* Degrees are read inline ([off.(v+1) - off.(v)]) rather than through a
   local [deg] helper: the body is checked [@brokercheck.noalloc] and a
   helper capturing [off] would cost a closure block per run.

   The engine reads adjacency through a {!View.t}: per vertex, a flag
   test selects the base CSR segment or the delta override segment (two
   array reads and a branch — no closure, no dispatch). For base views
   [ov] is false and the short-circuit keeps the static path's inner
   loops identical to the historical CSR-only engine. *)
let[@brokercheck.noalloc] run_view ws vw src =
  let n = vw.View.n in
  if src < 0 || src >= n then invalid_arg "Bfs: source out of range";
  ensure ws n;
  ws.epoch <- ws.epoch + 1;
  let epoch = ws.epoch in
  let off = vw.View.off and adj = vw.View.adj in
  let ov = vw.View.overlaid in
  let dirty = vw.View.dirty and xoff = vw.View.xoff and xadj = vw.View.xadj in
  let stamp = ws.stamp and dist = ws.dist and levels = ws.levels in
  stamp.(src) <- epoch;
  dist.(src) <- 0;
  levels.(0) <- 1;
  ws.max_level <- 0;
  ws.settled <- 1;
  let q_cur = ref ws.q_cur and q_next = ref ws.q_next in
  !q_cur.(0) <- src;
  let cur_n = ref 1 in
  let deg_src =
    if ov && Array.unsafe_get dirty src then
      Array.unsafe_get xoff (src + 1) - Array.unsafe_get xoff src
    else Array.unsafe_get off (src + 1) - Array.unsafe_get off src
  in
  (* Directed arcs still incident to unsettled vertices, and the frontier's
     total out-degree — the two sides of the switching heuristic. *)
  let edges_rest = ref (vw.View.arcs - deg_src) in
  let scout = ref deg_src in
  let bottom_up = ref false in
  let d = ref 0 in
  let tr0 = Obs.Trace.enter () in
  let lv_td = ref 0
  and lv_bu = ref 0
  and switches = ref 0
  and arcs_touched = ref 0
  and prev_dir = ref false in
  (* Loop scratch, hoisted so each level (and, for [probe]/[found], each
     bottom-up vertex probe) reuses the same refs instead of allocating
     fresh ones per iteration — [run] is checked noalloc. *)
  let next_n = ref 0 and next_scout = ref 0 in
  let probe = ref 0 and found = ref false in
  while !cur_n > 0 do
    if !bottom_up then begin
      if !cur_n * beta < n then bottom_up := false
    end
    else if !scout * alpha > !edges_rest then bottom_up := true;
    if Obs.Control.enabled () then begin
      if !bottom_up then incr lv_bu else incr lv_td;
      if !d > 0 && !bottom_up <> !prev_dir then incr switches;
      prev_dir := !bottom_up;
      arcs_touched := !arcs_touched + !scout;
      Obs.Metrics.observe h_frontier !cur_n;
      Obs.Trace.sample (if !bottom_up then t_level_bu else t_level_td) !cur_n
    end;
    let dn = !d + 1 in
    next_n := 0;
    next_scout := 0;
    let nq = !q_next in
    if !bottom_up then
      (* Bottom-up: every unsettled vertex probes its own adjacency for a
         frontier member and stops at the first hit — on the exploding
         levels of the broker core this touches a small fraction of the
         arcs a top-down expansion would. *)
      for v = 0 to n - 1 do
        if Array.unsafe_get stamp v <> epoch then begin
          let dv = ov && Array.unsafe_get dirty v in
          let a = if dv then xadj else adj in
          let lo =
            if dv then Array.unsafe_get xoff v else Array.unsafe_get off v
          in
          let hi =
            if dv then Array.unsafe_get xoff (v + 1)
            else Array.unsafe_get off (v + 1)
          in
          probe := lo;
          found := false;
          while (not !found) && !probe < hi do
            let w = Array.unsafe_get a !probe in
            if
              Array.unsafe_get stamp w = epoch
              && Array.unsafe_get dist w = !d
            then found := true
            else incr probe
          done;
          if !found then begin
            Array.unsafe_set stamp v epoch;
            Array.unsafe_set dist v dn;
            Array.unsafe_set nq !next_n v;
            incr next_n;
            next_scout := !next_scout + hi - lo
          end
        end
      done
    else begin
      let q = !q_cur in
      for i = 0 to !cur_n - 1 do
        let u = Array.unsafe_get q i in
        let du = ov && Array.unsafe_get dirty u in
        let a = if du then xadj else adj in
        let lo =
          if du then Array.unsafe_get xoff u else Array.unsafe_get off u
        in
        let hi =
          if du then Array.unsafe_get xoff (u + 1)
          else Array.unsafe_get off (u + 1)
        in
        for j = lo to hi - 1 do
          let v = Array.unsafe_get a j in
          if Array.unsafe_get stamp v <> epoch then begin
            Array.unsafe_set stamp v epoch;
            Array.unsafe_set dist v dn;
            Array.unsafe_set nq !next_n v;
            incr next_n;
            next_scout :=
              !next_scout
              +
              if ov && Array.unsafe_get dirty v then
                Array.unsafe_get xoff (v + 1) - Array.unsafe_get xoff v
              else Array.unsafe_get off (v + 1) - Array.unsafe_get off v
          end
        done
      done
    end;
    let tmp = !q_cur in
    q_cur := !q_next;
    q_next := tmp;
    cur_n := !next_n;
    edges_rest := !edges_rest - !next_scout;
    scout := !next_scout;
    if !next_n > 0 then begin
      ws.max_level <- dn;
      levels.(dn) <- !next_n;
      ws.settled <- ws.settled + !next_n
    end;
    d := dn
  done;
  ws.q_cur <- !q_cur;
  ws.q_next <- !q_next;
  if Obs.Control.enabled () then begin
    Obs.Metrics.incr m_runs;
    Obs.Metrics.add m_levels_td !lv_td;
    Obs.Metrics.add m_levels_bu !lv_bu;
    Obs.Metrics.add m_switches !switches;
    Obs.Metrics.add m_arcs !arcs_touched;
    Obs.Metrics.add m_settled ws.settled
  end;
  Obs.Trace.leave t_run tr0

(* Static-graph entry point: the view record is the only setup
   allocation, built once before the traversal loops. *)
let[@brokercheck.noalloc] run ws g src = run_view ws (View.of_graph g) src

let max_level ws = ws.max_level
let reached ws = ws.settled

let level_count ws d =
  if d < 0 || d > ws.max_level then
    invalid_arg "Bfs.level_count: level out of range";
  ws.levels.(d)

let distance ws v =
  if v < 0 || v >= ws.cap then invalid_arg "Bfs.distance: vertex out of range";
  if ws.stamp.(v) = ws.epoch then ws.dist.(v) else -1

let distances_into ws out =
  let k = min (Array.length out) ws.cap in
  let stamp = ws.stamp and dist = ws.dist and epoch = ws.epoch in
  for v = 0 to k - 1 do
    out.(v) <- (if stamp.(v) = epoch then dist.(v) else -1)
  done;
  for v = k to Array.length out - 1 do
    out.(v) <- -1
  done
