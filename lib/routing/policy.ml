module T = Broker_topo.Topology
module Rel = Broker_topo.Relations

type hop_class = Up | Down | Flat | Into_fabric | Out_of_fabric

let classify topo u v =
  if not (Broker_graph.Graph.mem_edge topo.T.graph u v) then
    invalid_arg "Policy.classify: not an edge";
  if T.is_ixp topo v then Into_fabric
  else if T.is_ixp topo u then Out_of_fabric
  else if Rel.customer_of topo.T.relations u v then Up
  else if Rel.provider_of topo.T.relations u v then Down
  else Flat

(* State machine: 0 = ascending, 1 = descending. The single permitted
   "peak" is a Flat hop or an AS→IXP→AS fabric crossing. *)
let valley_free topo path =
  let rec walk state = function
    | u :: (v :: _ as rest) ->
        if not (Broker_graph.Graph.mem_edge topo.T.graph u v) then false
        else begin
          match (classify topo u v, state) with
          | Up, 0 -> walk 0 rest
          | Up, _ -> false
          | Down, _ -> walk 1 rest
          | Flat, 0 -> walk 1 rest
          | Flat, _ -> false
          | Into_fabric, 0 -> walk 0 rest
          | Into_fabric, _ -> false
          | Out_of_fabric, 0 -> walk 1 rest
          | Out_of_fabric, _ -> false
        end
    | [ _ ] | [] -> true
  in
  walk 0 path

let exports_to _topo ~learned_from ~toward =
  (* From the exporter's point of view: a route learned from a customer
     (the neighbor below us: our [Down] direction) goes to everyone; routes
     learned from peers or providers go to customers only. *)
  let from_customer = match learned_from with Down -> true | Up | Flat | Into_fabric | Out_of_fabric -> false in
  let to_customer = match toward with Down -> true | Up | Flat | Into_fabric | Out_of_fabric -> false in
  from_customer || to_customer
