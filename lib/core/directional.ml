module G = Broker_graph.Graph
module T = Broker_topo.Topology
module Rel = Broker_topo.Relations
module Bitset = Broker_util.Bitset
module Obs = Broker_obs

(* Upgraded edges as bits over the arc indices of the graph they were
   drawn on, both arcs of each edge set. [no_upgrades] is drawn on no
   graph and fits every one. *)
type upgrades = { drawn_on : G.t option; arcs : Bitset.t; count : int }

let no_upgrades = { drawn_on = None; arcs = Bitset.create 0; count = 0 }

let upgrade_broker_edges ~rng topo ~brokers ~fraction =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Directional.upgrade_broker_edges: fraction in [0,1]";
  let g = topo.T.graph in
  let is_broker = Connectivity.of_brokers ~n:(G.n g) brokers in
  let candidates = ref [] in
  Array.iter
    (fun b ->
      G.iter_neighbors g b (fun w ->
          if b < w && is_broker w then candidates := (b, w) :: !candidates))
    brokers;
  let arr = Array.of_list !candidates in
  Broker_util.Xrandom.shuffle rng arr;
  let take = int_of_float (fraction *. float_of_int (Array.length arr)) in
  let arcs = Bitset.create (G.arcs g) in
  let count = ref 0 in
  for k = 0 to take - 1 do
    let u, v = arr.(k) in
    let i = G.find_arc g u v in
    if not (Bitset.mem arcs i) then begin
      Bitset.add arcs i;
      Bitset.add arcs (G.find_arc g v u);
      incr count
    end
  done;
  { drawn_on = Some g; arcs; count = !count }

let upgrade_count up = up.count

let same_graph a b = a == b || G.equal a b

let is_upgraded up u v =
  match up.drawn_on with
  | None -> false
  | Some g ->
      let i = G.find_arc g u v in
      i >= 0 && Bitset.mem up.arcs i

let m_sources = Obs.Metrics.counter "directional.sources"
let m_states = Obs.Metrics.counter "directional.states"
let t_curve = Obs.Trace.scope "directional.curve"

(* Scratch of one [curve_sampled] call, reused by each of its sources:
   [dist.(2v + phase)] is the BFS level of state (v, phase), -1 while
   unseen, and [queue] holds the states in visit order. Phase 0 is
   ascending (customer→provider hops only so far), phase 1 descending
   (the one peak — a peering hop, an IXP crossing or the first
   provider→customer hop — is behind). [vertex.(v)] holds the two vertex
   tests the sweep makes per arc, [is_broker v] and whether [v] is an
   IXP, evaluated once per call. *)
type workspace = { dist : int array; queue : int array; vertex : Bytes.t }

let broker_bit = 1
let ixp_bit = 2

let workspace topo ~is_broker =
  let n = T.n topo in
  let flags v =
    (if is_broker v then broker_bit else 0) lor if T.is_ixp topo v then ixp_bit else 0
  in
  {
    dist = Array.make (2 * n) (-1);
    queue = Array.make (2 * n) 0;
    vertex = Bytes.init n (fun v -> Char.chr (flags v));
  }

(* Valley-free BFS from [src] over the B-dominated arcs into [ws]. An
   upgraded arc keeps the phase; entering an IXP or going up needs phase
   0 and stays there; leaving an IXP, a peering or unlabelled hop needs
   phase 0 and moves to 1; going down moves to 1 from either phase. *)
let[@brokercheck.noalloc] sweep ws g rel ~upgrades src =
  let n = G.n g in
  let off = G.csr_off g and adj = G.csr_adj g in
  let dist = ws.dist and queue = ws.queue and vertex = ws.vertex in
  let up = upgrades.arcs and any_up = upgrades.count > 0 in
  Array.fill dist 0 (2 * n) (-1);
  dist.(2 * src) <- 0;
  queue.(0) <- 2 * src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let k = Array.unsafe_get queue !head in
    incr head;
    let u = k lsr 1 and s = k land 1 in
    let d = Array.unsafe_get dist k + 1 in
    let fu = Char.code (Bytes.unsafe_get vertex u) in
    for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
      let v = Array.unsafe_get adj i in
      let fv = Char.code (Bytes.unsafe_get vertex v) in
      if (fu lor fv) land broker_bit <> 0 then begin
        (* The phase the hop lands in, -1 when it would dig a valley. *)
        let t =
          if any_up && Bitset.unsafe_mem up i then s
          else if fv land ixp_bit <> 0 then if s = 0 then 0 else -1
          else if fu land ixp_bit <> 0 then if s = 0 then 1 else -1
          else
            match Rel.arc rel i with
            | Rel.Up -> if s = 0 then 0 else -1
            | Rel.Down -> 1
            | Rel.Peer | Rel.Ixp_member | Rel.Unlabelled -> if s = 0 then 1 else -1
        in
        if t >= 0 then begin
          let kv = (2 * v) + t in
          if Array.unsafe_get dist kv < 0 then begin
            Array.unsafe_set dist kv d;
            Array.unsafe_set queue !tail kv;
            incr tail
          end
        end
      end
    done
  done;
  Obs.Metrics.incr m_sources;
  Obs.Metrics.add m_states !tail

(* Distance of [v] after a sweep: its nearer phase, -1 when unreached. *)
let nearest dist v =
  let a = Array.unsafe_get dist (2 * v) and b = Array.unsafe_get dist ((2 * v) + 1) in
  if a < 0 then b else if b < 0 then a else Int.min a b

(* Adds the last sweep's distances to [hist] and returns how many
   vertices other than [src] it reached. *)
let[@brokercheck.noalloc] tally ws ~n ~l_max hist src =
  let reached = ref 0 in
  for v = 0 to n - 1 do
    let d = nearest ws.dist v in
    if v <> src && d > 0 then begin
      incr reached;
      if d <= l_max then hist.(d) <- hist.(d) + 1
    end
  done;
  !reached

(* Arc indices of [g] key both the relation labels and the upgrade bits:
   both must belong to [g]. *)
let check_graphs topo upgrades =
  let g = topo.T.graph in
  if not (same_graph (Rel.graph topo.T.relations) g) then
    invalid_arg "Directional: relations label another graph";
  match upgrades.drawn_on with
  | Some g' when not (same_graph g' g) ->
      invalid_arg "Directional: upgrades drawn on another graph"
  | Some _ | None -> ()

let check_source n s =
  if s < 0 || s >= n then invalid_arg "Directional: source out of range"

let distances ?(upgrades = no_upgrades) topo ~is_broker src =
  check_graphs topo upgrades;
  let n = T.n topo in
  check_source n src;
  let ws = workspace topo ~is_broker in
  sweep ws topo.T.graph topo.T.relations ~upgrades src;
  Array.init n (nearest ws.dist)

let curve_sampled ?(l_max = 10) ?(upgrades = no_upgrades) ?source_set ~rng
    ~sources topo ~is_broker =
  Obs.Trace.with_span t_curve @@ fun () ->
  check_graphs topo upgrades;
  let n = T.n topo in
  if n < 2 then
    { Connectivity.l_max; per_hop = Array.make (l_max + 1) 0.0; saturated = 0.0 }
  else begin
    let srcs =
      match source_set with
      | Some s -> s
      | None ->
          let k = min sources n in
          Broker_util.Sampling.without_replacement rng ~n ~k
    in
    let hist = Array.make (l_max + 1) 0 in
    let reached = ref 0 and total = ref 0 in
    let ws = workspace topo ~is_broker in
    Array.iter
      (fun s ->
        check_source n s;
        sweep ws topo.T.graph topo.T.relations ~upgrades s;
        reached := !reached + tally ws ~n ~l_max hist s;
        total := !total + (n - 1))
      srcs;
    let ftotal = float_of_int (max 1 !total) in
    let per_hop = Array.make (l_max + 1) 0.0 in
    let acc = ref 0 in
    for l = 1 to l_max do
      acc := !acc + hist.(l);
      per_hop.(l) <- float_of_int !acc /. ftotal
    done;
    {
      Connectivity.l_max;
      per_hop;
      saturated = float_of_int !reached /. ftotal;
    }
  end

let saturated_sampled ?(upgrades = no_upgrades) ?source_set ~rng ~sources topo
    ~is_broker =
  (curve_sampled ~l_max:1 ~upgrades ?source_set ~rng ~sources topo ~is_broker)
    .Connectivity.saturated
