module G = Broker_graph.Graph
module T = Broker_topo.Topology
module Rel = Broker_topo.Relations

(* One latency per CSR arc of [graph]; both arcs of an edge hold the
   same value. *)
type t = { graph : G.t; ms : float array }

let assign ~rng topo =
  let g = topo.T.graph in
  let ms = Array.make (G.arcs g) 0.0 in
  G.iter_edges g (fun u v ->
      let uv = G.find_arc g u v in
      let base =
        match Rel.arc topo.T.relations uv with
        | Rel.Ixp_member -> 2.0
        | Rel.Peer -> 5.0
        | Rel.Up | Rel.Down -> 10.0
        | Rel.Unlabelled -> 8.0
      in
      let jitter = 0.5 +. Broker_util.Xrandom.float rng 1.0 in
      let l = base *. jitter in
      ms.(uv) <- l;
      ms.(G.find_arc g v u) <- l);
  { graph = g; ms }

let edge_latency t u v =
  let i = G.find_arc t.graph u v in
  if i < 0 then invalid_arg "Latency.edge_latency: not an edge";
  t.ms.(i)

let path_latency t path =
  let rec go acc = function
    | u :: (v :: _ as rest) -> go (acc +. edge_latency t u v) rest
    | [ _ ] | [] -> acc
  in
  go 0.0 path

let min_latency_path t topo ~is_broker ~src ~dst =
  let g = topo.T.graph in
  let edge_ok u v = is_broker u || is_broker v in
  let weight u v = edge_latency t u v in
  match Broker_graph.Dijkstra.shortest_path ~edge_ok g ~weight src dst with
  | [] -> None
  | path -> Some (path, path_latency t path)

let stretch t topo ~is_broker ~src ~dst =
  let g = topo.T.graph in
  let weight u v = edge_latency t u v in
  match
    ( min_latency_path t topo ~is_broker ~src ~dst,
      Broker_graph.Dijkstra.shortest_path g ~weight src dst )
  with
  | Some (_, dominated), (_ :: _ as free) ->
      let free_latency = path_latency t free in
      if free_latency <= 0.0 then None else Some (dominated /. free_latency)
  | _, _ -> None
