module G = Broker_graph.Graph
module R = Broker_util.Xrandom

let grow ~rng topo ~new_ases =
  if new_ases < 0 then invalid_arg "Churn.grow: negative growth";
  let old_n = Topology.n topo in
  let n = old_n + new_ases in
  (* The old edges, then at most three providers and one IXP per new AS. *)
  let cap = G.m topo.Topology.graph + (4 * new_ases) in
  let us = Array.make cap 0 and vs = Array.make cap 0 in
  let len = ref 0 in
  let push u v =
    us.(!len) <- u;
    vs.(!len) <- v;
    incr len
  in
  G.iter_edges topo.Topology.graph push;
  (* The new edges, kept apart so their arcs can be labelled once the
     graph exists. *)
  let transit = ref [] and memberships = ref [] in
  (* Degree-weighted provider pool over the existing transit core. *)
  let core = ref [] in
  for v = 0 to old_n - 1 do
    if topo.Topology.tiers.(v) >= 1 && topo.Topology.tiers.(v) <= 2 then
      for _ = 0 to G.degree topo.Topology.graph v do
        core := v :: !core
      done
  done;
  let pool = Array.of_list !core in
  if Array.length pool = 0 then invalid_arg "Churn.grow: no transit core";
  let ixps = Topology.ixps topo in
  let kinds = Array.make n Node_meta.Enterprise in
  let tiers = Array.make n 3 in
  let names = Array.make n "" in
  Array.blit topo.Topology.kinds 0 kinds 0 old_n;
  Array.blit topo.Topology.tiers 0 tiers 0 old_n;
  Array.blit topo.Topology.names 0 names 0 old_n;
  for v = old_n to n - 1 do
    let r = R.float rng 1.0 in
    kinds.(v) <-
      (if r < 0.08 then Node_meta.Content
       else if r < 0.53 then Node_meta.Access
       else Node_meta.Enterprise);
    names.(v) <- Printf.sprintf "NEW-AS%d" v;
    (* 1-3 providers, degree-preferential. *)
    let wanted = 1 + R.int rng 3 in
    let chosen = Hashtbl.create 4 in
    let tries = ref 0 in
    while Hashtbl.length chosen < wanted && !tries < 40 do
      incr tries;
      Hashtbl.replace chosen pool.(R.int rng (Array.length pool)) ()
    done;
    Hashtbl.iter
      (fun p () ->
        push v p;
        transit := (v, p) :: !transit)
      chosen;
    (* ~40% also join a random IXP, mirroring the base topology. *)
    if Array.length ixps > 0 && R.bernoulli rng 0.4 then begin
      let x = ixps.(R.int rng (Array.length ixps)) in
      push v x;
      memberships := (v, x) :: !memberships
    end
  done;
  let graph = G.of_edge_arrays ~n ~len:!len us vs in
  (* Old ids are kept, so the old edges keep their labels. *)
  let relations =
    Relations.remap topo.Topology.relations graph ~old_id:(fun v ->
        if v < old_n then v else -1)
  in
  List.iter (fun (v, p) -> Relations.add_c2p relations ~customer:v ~provider:p) !transit;
  List.iter (fun (v, x) -> Relations.add_ixp_member relations ~as_node:v ~ixp:x) !memberships;
  { Topology.graph; kinds; tiers; names; relations }
