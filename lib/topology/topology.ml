module G = Broker_graph.Graph

type t = {
  graph : G.t;
  kinds : Node_meta.kind array;
  tiers : int array;
  names : string array;
  relations : Relations.t;
}

let n t = G.n t.graph
let is_ixp t v = Node_meta.kind_equal t.kinds.(v) Node_meta.Ixp
let is_as t v = not (is_ixp t v)

let filter_nodes t pred =
  let out = ref [] in
  for v = n t - 1 downto 0 do
    if pred v then out := v :: !out
  done;
  Array.of_list !out

let ixps t = filter_nodes t (is_ixp t)
let ases t = filter_nodes t (is_as t)

let count_kind t kind =
  Array.fold_left
    (fun acc k -> if Node_meta.kind_equal k kind then acc + 1 else acc)
    0 t.kinds

let count_edges t pred =
  let acc = ref 0 in
  G.iter_edges t.graph (fun u v -> if pred u v then incr acc);
  !acc

let as_as_edges t = count_edges t (fun u v -> is_as t u && is_as t v)
let as_ixp_edges t = count_edges t (fun u v -> is_ixp t u <> is_ixp t v)

let with_ases_only t =
  let old_ids = ases t in
  let remap = Array.make (n t) (-1) in
  Array.iteri (fun new_id old_id -> remap.(old_id) <- new_id) old_ids;
  let us = Array.make (G.m t.graph) 0 and vs = Array.make (G.m t.graph) 0 in
  let len = ref 0 in
  G.iter_edges t.graph (fun u v ->
      if remap.(u) >= 0 && remap.(v) >= 0 then begin
        us.(!len) <- remap.(u);
        vs.(!len) <- remap.(v);
        incr len
      end);
  let graph = G.of_edge_arrays ~n:(Array.length old_ids) ~len:!len us vs in
  let relations = Relations.remap t.relations graph ~old_id:(Array.get old_ids) in
  ( {
      graph;
      kinds = Array.map (fun old_id -> t.kinds.(old_id)) old_ids;
      tiers = Array.map (fun old_id -> t.tiers.(old_id)) old_ids;
      names = Array.map (fun old_id -> t.names.(old_id)) old_ids;
      relations;
    },
    old_ids )

let tier1_members t =
  filter_nodes t (fun v -> Node_meta.kind_equal t.kinds.(v) Node_meta.Tier1)

let ixp_connected_fraction t =
  let as_total = ref 0 and connected = ref 0 in
  for v = 0 to n t - 1 do
    if is_as t v then begin
      incr as_total;
      let has_ixp = G.fold_neighbors t.graph v (fun acc w -> acc || is_ixp t w) false in
      if has_ixp then incr connected
    end
  done;
  if !as_total = 0 then 0.0 else float_of_int !connected /. float_of_int !as_total
