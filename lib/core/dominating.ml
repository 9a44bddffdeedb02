module G = Broker_graph.Graph
module View = Broker_graph.View

let is_dominated_path ~is_broker path =
  let rec check = function
    | u :: (v :: _ as rest) -> (is_broker u || is_broker v) && check rest
    | [ _ ] | [] -> true
  in
  check path

module Obs = Broker_obs

(* One search workspace per domain, reused by every call on that domain
   and grown to the largest graph seen. A search owns the mark values
   from its [base] up: [mark.(y) < base] is unreached, [base] is reached
   from the source [u] (and [link.(y)] is its first discoverer), and
   [base + 1 + d] is reached from the target [v] at distance [d]. The
   next search's base lies past every value this one can write, so a
   search starts by moving the base instead of clearing n-word arrays.
   The two sides hold disjoint vertices, so their queues share one array:
   the source side fills it from the front in FIFO order, the target
   side from the back, level by level, and target level [d] spans
   [queue.(level.(d + 1)) .. queue.(level.(d) - 1)]. [scanned] tallies
   the adjacency entries and level members a search reads, for the
   [arcs_scanned] counter. The two counters are registered by a domain's
   first search rather than at module initialisation: the few words that
   registration allocates at start-up move the GC's pacing, and with it
   the top heap of programs that never search (e2ebench's coverage
   workload read 138.3 MB instead of 122.2 MB). *)
type workspace = {
  mutable base : int;
  mutable mark : int array;
  mutable link : int array;
  mutable queue : int array;
  mutable level : int array;
  mutable scanned : int;
  searches : Obs.Metrics.counter;
  arcs_scanned : Obs.Metrics.counter;
}

let workspace_key =
  Domain.DLS.new_key (fun () ->
      {
        base = 0;
        mark = [||];
        link = [||];
        queue = [||];
        level = [||];
        scanned = 0;
        searches = Obs.Metrics.counter "dominating.searches";
        arcs_scanned = Obs.Metrics.counter "dominating.arcs_scanned";
      })

let ensure ws n =
  if Array.length ws.mark < n then begin
    ws.mark <- Array.make n 0;
    ws.link <- Array.make n 0;
    ws.queue <- Array.make n 0;
    (* Target levels 0..b are non-empty and disjoint, so b < n and the
       expansion of level b writes [level.(b + 2)]. *)
    ws.level <- Array.make (n + 2) 0;
    (* Fresh marks are all 0, below the next search's base. *)
    ws.base <- 0
  end

let[@inline] degree vw x =
  if vw.View.overlaid && Array.unsafe_get vw.View.dirty x then
    Array.unsafe_get vw.View.xoff (x + 1) - Array.unsafe_get vw.View.xoff x
  else Array.unsafe_get vw.View.off (x + 1) - Array.unsafe_get vw.View.off x

(* [y] occurs in the sorted slice [a.(lo) .. a.(hi - 1)]. *)
let rec mem_sorted a lo hi y =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let w = Array.unsafe_get a mid in
  if w < y then mem_sorted a (mid + 1) hi y
  else if w > y then mem_sorted a lo mid y
  else true

(* The smallest vertex joined to [x] by a dominated arc on target level
   [d], or -1. It reads the shorter of [x]'s sorted segment, whose first
   hit is the smallest, and the level, binary searching the segment for
   each member. *)
let[@brokercheck.noalloc] closest ws vw ~is_broker x d =
  let want = ws.base + 1 + d in
  let mark = ws.mark and queue = ws.queue in
  let bx = is_broker x in
  let dx = vw.View.overlaid && Array.unsafe_get vw.View.dirty x in
  let sa = if dx then vw.View.xadj else vw.View.adj in
  let lo =
    if dx then Array.unsafe_get vw.View.xoff x else Array.unsafe_get vw.View.off x
  in
  let hi =
    if dx then Array.unsafe_get vw.View.xoff (x + 1)
    else Array.unsafe_get vw.View.off (x + 1)
  in
  let l_lo = ws.level.(d + 1) and l_hi = ws.level.(d) in
  let z = ref (-1) in
  if hi - lo <= l_hi - l_lo then begin
    let j = ref lo in
    while !z < 0 && !j < hi do
      let y = Array.unsafe_get sa !j in
      if Array.unsafe_get mark y = want && (bx || is_broker y) then z := y;
      incr j
    done;
    ws.scanned <- ws.scanned + (!j - lo)
  end
  else begin
    for q = l_lo to l_hi - 1 do
      let y = Array.unsafe_get queue q in
      if (!z < 0 || y < !z) && (bx || is_broker y) && mem_sorted sa lo hi y then z := y
    done;
    ws.scanned <- ws.scanned + (l_hi - l_lo)
  end;
  !z

(* Bidirectional breadth-first search over the dominated arcs (an arc is
   usable when either endpoint is a broker) that returns the path of the
   FIFO search from [u] with first-discoverer parents: the
   lexicographically smallest shortest dominated path (see the .mli).

   Each round expands one whole level of the side whose frontier has the
   smaller degree sum. Before the sides meet, the source holds levels
   0..a and the target levels 0..b, disjoint, so d(u, v) > a + b; a side
   that runs dry proves there is no path.
   - A source expansion meets at the first vertex it discovers over a
     dominated arc that the target holds. That vertex lies a + 1 from
     [u] and b from [v], and it is the first such vertex in FIFO order,
     whose parent chain is the smallest prefix.
   - A target expansion that reaches a source vertex stops there: every
     source vertex it can reach is on the source frontier, and the
     meeting vertex is the first frontier vertex in queue order with a
     dominated arc into target level b.
   The path is the meeting vertex's parent chain, then greedy steps to
   the smallest dominated neighbour one target level closer to [v].
   Segments are selected inline as in [Projected.project_view], so the
   loops allocate nothing; the only allocation is the exact-length
   result. *)
let[@brokercheck.noalloc] find_dominated_path_view vw ~is_broker u v =
  let n = vw.View.n in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Dominating.find_dominated_path: endpoint out of range";
  let ws = Domain.DLS.get workspace_key in
  Obs.Metrics.incr ws.searches;
  if u = v then [| u |]
  else begin
    ensure ws n;
    let base = ws.base + Array.length ws.mark + 1 in
    ws.base <- base;
    ws.scanned <- 0;
    let mark = ws.mark and link = ws.link in
    let queue = ws.queue and level = ws.level in
    let off = vw.View.off and adj = vw.View.adj in
    let ov = vw.View.overlaid in
    let dirty = vw.View.dirty and xoff = vw.View.xoff and xadj = vw.View.xadj in
    mark.(u) <- base;
    queue.(0) <- u;
    mark.(v) <- base + 1;
    queue.(n - 1) <- v;
    level.(0) <- n;
    level.(1) <- n - 1;
    (* Source frontier: queue [s_lo, s_hi), at distance [a] from [u].
       Target frontier: level [b], queue [level.(b + 1), level.(b)). Once
       the sides meet, the path has [a + b + 1] vertices. *)
    let s_lo = ref 0 and s_hi = ref 1 and a = ref 0 in
    let t_top = ref (n - 1) and b = ref 0 in
    let s_deg = ref (degree vw u) and t_deg = ref (degree vw v) in
    let meet = ref (-1) in
    (* Loop scratch, hoisted: refs inside the loops would be flagged. *)
    let i = ref 0 and j = ref 0 and tail = ref 0 and next_deg = ref 0 in
    let hit = ref (-1) in
    while !meet < 0 && !s_lo < !s_hi && level.(!b + 1) < level.(!b) do
      next_deg := 0;
      if !s_deg <= !t_deg then begin
        tail := !s_hi;
        i := !s_lo;
        while !meet < 0 && !i < !s_hi do
          let x = Array.unsafe_get queue !i in
          let bx = is_broker x in
          let dx = ov && Array.unsafe_get dirty x in
          let sa = if dx then xadj else adj in
          let lo = if dx then Array.unsafe_get xoff x else Array.unsafe_get off x in
          let hi =
            if dx then Array.unsafe_get xoff (x + 1)
            else Array.unsafe_get off (x + 1)
          in
          j := lo;
          while !meet < 0 && !j < hi do
            let y = Array.unsafe_get sa !j in
            let my = Array.unsafe_get mark y in
            if my <> base && (bx || is_broker y) then begin
              Array.unsafe_set link y x;
              if my < base then begin
                Array.unsafe_set mark y base;
                Array.unsafe_set queue !tail y;
                incr tail;
                next_deg := !next_deg + degree vw y
              end
              else meet := y
            end;
            incr j
          done;
          ws.scanned <- ws.scanned + (!j - lo);
          incr i
        done;
        incr a;
        s_lo := !s_hi;
        s_hi := !tail;
        s_deg := !next_deg
      end
      else begin
        let reached = base + 2 + !b in
        hit := -1;
        i := level.(!b + 1);
        while !hit < 0 && !i < level.(!b) do
          let x = Array.unsafe_get queue !i in
          let bx = is_broker x in
          let dx = ov && Array.unsafe_get dirty x in
          let sa = if dx then xadj else adj in
          let lo = if dx then Array.unsafe_get xoff x else Array.unsafe_get off x in
          let hi =
            if dx then Array.unsafe_get xoff (x + 1)
            else Array.unsafe_get off (x + 1)
          in
          j := lo;
          while !hit < 0 && !j < hi do
            let y = Array.unsafe_get sa !j in
            let my = Array.unsafe_get mark y in
            if my <= base && (bx || is_broker y) then begin
              if my < base then begin
                Array.unsafe_set mark y reached;
                decr t_top;
                Array.unsafe_set queue !t_top y;
                next_deg := !next_deg + degree vw y
              end
              else hit := y
            end;
            incr j
          done;
          ws.scanned <- ws.scanned + (!j - lo);
          incr i
        done;
        if !hit >= 0 then begin
          (* [hit] qualifies, so the scan ends there at the latest. *)
          i := !s_lo;
          while !meet < 0 && !i < !s_hi do
            let x = Array.unsafe_get queue !i in
            if x = !hit || closest ws vw ~is_broker x !b >= 0 then meet := x;
            incr i
          done
        end;
        incr b;
        level.(!b + 1) <- !t_top;
        t_deg := !next_deg
      end
    done;
    let path =
      if !meet < 0 then [||]
      else begin
        let len = !a + !b + 1 in
        let path = Array.make len u in
        let x = ref !meet in
        for k = !a downto 1 do
          path.(k) <- !x;
          x := link.(!x)
        done;
        x := !meet;
        for k = !a + 1 to len - 1 do
          (* [path.(k)] lies [len - 1 - k] from [v]. *)
          x := closest ws vw ~is_broker !x (len - 1 - k);
          path.(k) <- !x
        done;
        path
      end
    in
    Obs.Metrics.add ws.arcs_scanned ws.scanned;
    path
  end

let find_dominated_path g ~is_broker u v =
  Array.to_list (find_dominated_path_view (View.of_graph g) ~is_broker u v)

type broker_only = {
  broker_only_pairs : float;
  saturated_pairs : float;
  ratio : float;
}

let broker_only_fraction ~rng ~sources g ~brokers =
  let n = G.n g in
  let is_broker = Connectivity.of_brokers ~n brokers in
  (* Components of the broker-induced subgraph. *)
  let uf = Broker_util.Union_find.create n in
  Array.iter
    (fun b -> G.iter_neighbors g b (fun w -> if is_broker w then ignore (Broker_util.Union_find.union uf b w)))
    brokers;
  let comp_id = Hashtbl.create 64 in
  let next_id = ref 0 in
  let id_of root =
    match Hashtbl.find_opt comp_id root with
    | Some id -> id
    | None ->
        let id = !next_id in
        incr next_id;
        Hashtbl.replace comp_id root id;
        id
  in
  (* Per-vertex list of adjacent broker components (deduplicated). *)
  let adj_comps =
    Array.init n (fun v ->
        let acc = ref [] in
        let push b =
          let id = id_of (Broker_util.Union_find.find uf b) in
          if not (List.mem id !acc) then acc := id :: !acc
        in
        if is_broker v then push v;
        G.iter_neighbors g v (fun w -> if is_broker w then push w);
        Array.of_list !acc)
  in
  let n_comps = !next_id in
  let mark = Array.make (max n_comps 1) (-1) in
  let k = min sources n in
  let srcs = Broker_util.Sampling.without_replacement rng ~n ~k in
  let broker_only = ref 0 and total = ref 0 in
  Array.iteri
    (fun stamp u ->
      Array.iter (fun c -> mark.(c) <- stamp) adj_comps.(u);
      for v = 0 to n - 1 do
        if v <> u then begin
          incr total;
          if Array.exists (fun c -> mark.(c) = stamp) adj_comps.(v) then
            incr broker_only
        end
      done)
    srcs;
  (* Pairs with any dominated path, over the same sources and the same
     [k * (n - 1)] pair total: the connectivity engine's saturated
     fraction. *)
  let saturated_pairs =
    (Connectivity.eval_sources ~l_max:1 g ~is_broker srcs).Connectivity.saturated
  in
  let broker_only_pairs =
    float_of_int !broker_only /. float_of_int (max 1 !total)
  in
  {
    broker_only_pairs;
    saturated_pairs;
    ratio = (if saturated_pairs = 0.0 then 0.0 else broker_only_pairs /. saturated_pairs);
  }
