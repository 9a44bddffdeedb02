module G = Broker_graph.Graph
module T = Broker_topo.Topology
module Rel = Broker_topo.Relations

type t = { tbl : (int * int, float) Hashtbl.t }

let key u v = if u < v then (u, v) else (v, u)

let assign ~rng topo =
  let g = topo.T.graph in
  let tbl = Hashtbl.create (2 * G.m g) in
  G.iter_edges g (fun u v ->
      let base =
        match Rel.find topo.T.relations u v with
        | Some Broker_topo.Node_meta.Ixp_member -> 2.0
        | Some Broker_topo.Node_meta.Peer -> 5.0
        | Some Broker_topo.Node_meta.Customer_provider -> 10.0
        | None -> 8.0
      in
      let jitter = 0.5 +. Broker_util.Xrandom.float rng 1.0 in
      Hashtbl.replace tbl (key u v) (base *. jitter));
  { tbl }

let edge_latency t u v = Hashtbl.find t.tbl (key u v)

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
