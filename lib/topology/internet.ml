module G = Broker_graph.Graph
module R = Broker_util.Xrandom

let t_generate = Broker_obs.Trace.scope "topology.generate"

let src = Logs.Src.create "broker.topology" ~doc:"AS+IXP topology generation"

module Log = (val Logs.src_log src : Logs.LOG)

type params = {
  n_as : int;
  n_ixp : int;
  n_tier1 : int;
  transit_frac : float;
  as_as_edge_target : int;
  as_ixp_edge_target : int;
  ixp_connect_frac : float;
  seed : int;
}

let default =
  {
    n_as = 51_757;
    n_ixp = 322;
    n_tier1 = 15;
    transit_frac = 0.06;
    as_as_edge_target = 347_332;
    as_ixp_edge_target = 55_282;
    ixp_connect_frac = 0.402;
    seed = 42;
  }

let scaled s =
  if s <= 0.0 || s > 1.0 then invalid_arg "Internet.scaled: factor in (0,1]";
  let shrink x lo = max lo (int_of_float (float_of_int x *. s)) in
  {
    default with
    n_as = shrink default.n_as 200;
    n_ixp = shrink default.n_ixp 6;
    n_tier1 = shrink default.n_tier1 5;
    as_as_edge_target = shrink default.as_as_edge_target 1_000;
    as_ixp_edge_target = shrink default.as_ixp_edge_target 200;
  }

(* Degree-preferential endpoint pool: vertices appear once per incident
   edge, so uniform draws are degree-weighted. *)
type pool = { mutable arr : int array; mutable len : int }

let pool_create cap = { arr = Array.make (max cap 16) 0; len = 0 }

let pool_push p v =
  if p.len = Array.length p.arr then begin
    let bigger = Array.make (2 * Array.length p.arr) 0 in
    Array.blit p.arr 0 bigger 0 p.len;
    p.arr <- bigger
  end;
  p.arr.(p.len) <- v;
  p.len <- p.len + 1

let pool_draw rng p = p.arr.(R.int rng p.len)

let generate params =
  Broker_obs.Trace.with_span t_generate @@ fun () ->
  let {
    n_as;
    n_ixp;
    n_tier1;
    transit_frac;
    as_as_edge_target;
    as_ixp_edge_target;
    ixp_connect_frac;
    seed;
  } =
    params
  in
  if n_tier1 < 2 || n_as <= n_tier1 then invalid_arg "Internet.generate: sizes";
  let rng = R.create seed in
  let n_transit = max n_tier1 (int_of_float (transit_frac *. float_of_int n_as)) in
  let n_total = n_as + n_ixp in
  let kinds = Array.make n_total Node_meta.Enterprise in
  let tiers = Array.make n_total 3 in
  (* Accepted edges, newest first, and beside them their relations: for
     [Customer_provider] the first endpoint is the customer, for
     [Ixp_member] it is the AS. The arcs are labelled once the graph
     exists. *)
  let edges = ref [] in
  let rels = ref [] in
  let n_edges = ref 0 in
  let edge_seen = Hashtbl.create (4 * as_as_edge_target) in
  let add_edge u v rel =
    let key = if u < v then (u * n_total) + v else (v * n_total) + u in
    if u <> v && not (Hashtbl.mem edge_seen key) then begin
      Hashtbl.replace edge_seen key ();
      edges := (u, v) :: !edges;
      rels := rel :: !rels;
      incr n_edges;
      true
    end
    else false
  in
  (* Kind assignment: ids 0..n_tier1-1 tier-1; next transit; stubs mixed. *)
  for v = 0 to n_tier1 - 1 do
    kinds.(v) <- Node_meta.Tier1;
    tiers.(v) <- 1
  done;
  for v = n_tier1 to n_transit - 1 do
    kinds.(v) <- Node_meta.Transit;
    tiers.(v) <- 2
  done;
  for v = n_transit to n_as - 1 do
    let r = R.float rng 1.0 in
    kinds.(v) <-
      (if r < 0.08 then Node_meta.Content
       else if r < 0.53 then Node_meta.Access
       else Node_meta.Enterprise)
  done;
  for v = n_as to n_total - 1 do
    kinds.(v) <- Node_meta.Ixp;
    tiers.(v) <- 0
  done;
  (* Transit-core preferential pool (tier-1 + transit only). *)
  let core_pool = pool_create (4 * n_transit) in
  (* Tier-1 clique: settlement-free peering. *)
  for u = 0 to n_tier1 - 1 do
    for v = u + 1 to n_tier1 - 1 do
      if add_edge u v Node_meta.Peer then begin
        pool_push core_pool u;
        pool_push core_pool v
      end
    done
  done;
  (* Transit ASes multihome into the existing core. *)
  let providers_buf = Hashtbl.create 8 in
  let multihome v pool n_providers =
    Hashtbl.reset providers_buf;
    let tries = ref 0 in
    while Hashtbl.length providers_buf < n_providers && !tries < 40 * n_providers do
      incr tries;
      let p = pool_draw rng pool in
      if p <> v then Hashtbl.replace providers_buf p ()
    done;
    Hashtbl.iter
      (fun p () ->
        if add_edge v p Node_meta.Customer_provider then begin
          pool_push core_pool v;
          pool_push core_pool p
        end)
      providers_buf
  in
  for v = n_tier1 to n_transit - 1 do
    let n_providers = 1 + min 3 (R.geometric rng 0.55) in
    multihome v core_pool n_providers
  done;
  (* Stub ASes multihome into transit (not into other stubs). *)
  let stub_provider_count rng =
    let r = R.float rng 1.0 in
    if r < 0.50 then 1 else if r < 0.85 then 2 else 3
  in
  for v = n_transit to n_as - 1 do
    Hashtbl.reset providers_buf;
    let wanted = stub_provider_count rng in
    let tries = ref 0 in
    while Hashtbl.length providers_buf < wanted && !tries < 40 * wanted do
      incr tries;
      let p = pool_draw rng core_pool in
      (* Only transit-capable nodes provide transit to stubs. *)
      if p <> v && tiers.(p) <= 2 then Hashtbl.replace providers_buf p ()
    done;
    Hashtbl.iter
      (fun p () ->
        (* Stubs are not pushed: they never attract attachments. *)
        if add_edge v p Node_meta.Customer_provider then pool_push core_pool p)
      providers_buf
  done;
  (* Extra peering links up to the AS-AS edge budget. Endpoints are drawn
     degree-weighted over all ASes, concentrating peering in the core as in
     the real AS graph. *)
  let all_pool = pool_create (4 * as_as_edge_target) in
  List.iter
    (fun (u, v) ->
      pool_push all_pool u;
      pool_push all_pool v)
    !edges;
  let guard = ref 0 in
  let budget_guard = 30 * as_as_edge_target in
  while !n_edges < as_as_edge_target && !guard < budget_guard do
    incr guard;
    let u = pool_draw rng all_pool in
    let v = pool_draw rng all_pool in
    if u <> v && add_edge u v Node_meta.Peer then begin
      pool_push all_pool u;
      pool_push all_pool v
    end
  done;
  (* IXP memberships: a degree-biased ~ixp_connect_frac of ASes join, and
     membership slots are split across IXPs with heavy-tailed popularity. *)
  let as_degree = Array.make n_as 0 in
  List.iter
    (fun (u, v) ->
      as_degree.(u) <- as_degree.(u) + 1;
      as_degree.(v) <- as_degree.(v) + 1)
    !edges;
  let n_connected = int_of_float (ixp_connect_frac *. float_of_int n_as) in
  (* Efraimidis–Spirakis weighted sampling without replacement: keys
     u^(1/w), keep the n_connected largest. *)
  let keys =
    Array.init n_as (fun v ->
        let w = float_of_int (as_degree.(v) + 1) in
        let u = R.float rng 1.0 in
        (u ** (1.0 /. w), v))
  in
  Array.sort (fun (a, _) (b, _) -> Float.compare b a) keys;
  let members = Array.init (min n_connected n_as) (fun i -> snd keys.(i)) in
  let ixp_weights =
    Array.init n_ixp (fun _ -> R.pareto rng ~alpha:1.1 ~x_min:1.0)
  in
  let draw_ixp = Broker_util.Sampling.weighted_alias ixp_weights in
  (* Every connected AS gets one membership; the remaining budget goes to
     degree-weighted repeat memberships. *)
  let add_membership v ixp_local = add_edge v (n_as + ixp_local) Node_meta.Ixp_member in
  Array.iter (fun v -> ignore (add_membership v (draw_ixp rng))) members;
  let member_pool = pool_create (4 * Array.length members) in
  Array.iter
    (fun v ->
      (* Seed weight: AS degree, so big ASes collect more memberships. *)
      for _ = 0 to min 16 as_degree.(v) do
        pool_push member_pool v
      done)
    members;
  let total_edge_target = as_as_edge_target + as_ixp_edge_target in
  let guard = ref 0 in
  let budget_guard = 30 * as_ixp_edge_target in
  while !n_edges < total_edge_target && !guard < budget_guard do
    incr guard;
    let v = pool_draw rng member_pool in
    ignore (add_membership v (draw_ixp rng))
  done;
  (* Names. *)
  let names =
    Array.init n_total (fun v ->
        if v < n_as then
          Printf.sprintf "%s-AS%d"
            (match kinds.(v) with
            | Node_meta.Tier1 -> "T1"
            | Node_meta.Transit -> "TR"
            | Node_meta.Access -> "AC"
            | Node_meta.Content -> "CO"
            | Node_meta.Enterprise -> "EN"
            | Node_meta.Ixp -> assert false)
            v
        else Printf.sprintf "IXP-%d" (v - n_as))
  in
  let graph = G.of_edges ~n:n_total (Array.of_list !edges) in
  let relations = Relations.create graph in
  List.iter2
    (fun (u, v) -> function
      | Node_meta.Customer_provider -> Relations.add_c2p relations ~customer:u ~provider:v
      | Node_meta.Peer -> Relations.add_peer relations u v
      | Node_meta.Ixp_member -> Relations.add_ixp_member relations ~as_node:u ~ixp:v)
    !edges !rels;
  Log.info (fun m ->
      m "generated topology: %d ASes + %d IXPs, %d edges (seed %d)" n_as n_ixp
        (G.m graph) seed);
  { Topology.graph; kinds; tiers; names; relations }
