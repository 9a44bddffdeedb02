module G = Broker_graph.Graph
module X = Broker_util.Xrandom

type op = Announce of int * int | Withdraw of int * int

let op_endpoints = function Announce (u, v) | Withdraw (u, v) -> (u, v)

type event = { time : float; op : op }

type propagation =
  | Centralized of { delay : float }
  | Bgp_like of { base : float; per_hop : float }

let delay_of prop ~hops =
  match prop with
  | Centralized { delay } -> delay
  | Bgp_like { base; per_hop } -> base +. (per_hop *. float_of_int (max 0 hops))

(* Uniform existing-edge sampling by arc position: each undirected edge
   owns exactly two arcs, so a uniform arc is a uniform edge. The owner
   vertex of a position is recovered by binary search over the offsets. *)
let vertex_of_pos off n p =
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if off.(mid) <= p then lo := mid else hi := mid - 1
  done;
  !lo

let burst ~rng g ~size =
  if size < 0 then invalid_arg "Topo_stream.burst: negative size";
  let n = G.n g in
  let arcs = G.arcs g in
  let off = G.csr_off g and adj = G.csr_adj g in
  let n_withdraw = (size + 1) / 2 in
  (* Dedup within the burst on a packed (min, max) vertex-pair key. *)
  let seen = Hashtbl.create (max 16 (2 * size)) in
  let key u v = if u < v then (u * n) + v else (v * n) + u in
  let out = ref [] and count = ref 0 in
  let tries = ref 0 in
  let budget = 50 * (size + 1) in
  while !count < n_withdraw && !tries < budget && arcs > 0 do
    incr tries;
    let p = X.int rng arcs in
    let u = vertex_of_pos off n p in
    let v = adj.(p) in
    let k = key u v in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      out := Withdraw (min u v, max u v) :: !out;
      incr count
    end
  done;
  let tries = ref 0 in
  while !count < size && !tries < budget && n >= 2 do
    incr tries;
    let u = X.int rng n and v = X.int rng n in
    if u <> v && not (G.mem_edge g u v) then begin
      let k = key u v in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        out := Announce (min u v, max u v) :: !out;
        incr count
      end
    end
  done;
  Array.of_list (List.rev !out)

let schedule g ~brokers prop events =
  match prop with
  | Centralized { delay } ->
      Array.map (fun e -> { e with time = e.time +. delay }) events
  | Bgp_like _ ->
      (* Hop count of an update = distance from its nearer endpoint to
         the closest broker on the pre-update graph — the path the
         announcement travels before the (centralized-per-domain) broker
         layer learns of it. Endpoints outside every broker's reach pay
         the pessimistic n hops. *)
      let n = G.n g in
      let dist = Broker_graph.Bfs.distances_multi g (Array.to_list brokers) in
      let hops_to_broker v = if dist.(v) < 0 then n else dist.(v) in
      Array.map
        (fun e ->
          let u, v = op_endpoints e.op in
          let hops = min (hops_to_broker u) (hops_to_broker v) in
          { e with time = e.time +. delay_of prop ~hops })
        events
