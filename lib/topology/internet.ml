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

(* Accepted edges in order of acceptance: endpoints as given to [add] and
   one relation byte each. For [Customer_provider] the first endpoint is
   the customer, for [Ixp_member] it is the AS. Beside them, the set of
   accepted keys [u * n_total + v] (u < v), open addressing with linear
   probing over a power-of-two table that is never more than half full;
   [-1] marks an empty slot. *)
type edges = {
  n_total : int;
  mutable us : int array;
  mutable vs : int array;
  mutable rels : Bytes.t;
  mutable len : int;
  mutable keys : int array;
}

let edges_create ~n_total ~expected =
  let cap = ref 16 in
  while !cap < 2 * expected do
    cap := 2 * !cap
  done;
  let expected = max expected 16 in
  {
    n_total;
    us = Array.make expected 0;
    vs = Array.make expected 0;
    rels = Bytes.make expected 'p';
    len = 0;
    keys = Array.make !cap (-1);
  }

(* The slot holding [key], or the empty slot where it belongs. *)
let find_slot keys key =
  let mask = Array.length keys - 1 in
  let h = key * 0x2545F4914F6CDD1D in
  let i = ref ((h lxor (h lsr 29)) land mask) in
  while keys.(!i) >= 0 && keys.(!i) <> key do
    i := (!i + 1) land mask
  done;
  !i

let grow_keys t =
  let old = t.keys in
  t.keys <- Array.make (2 * Array.length old) (-1);
  Array.iter (fun key -> if key >= 0 then t.keys.(find_slot t.keys key) <- key) old

let grow_edges t =
  let cap = 2 * t.len in
  let extend a = Array.append a (Array.make (cap - t.len) 0) in
  t.us <- extend t.us;
  t.vs <- extend t.vs;
  t.rels <- Bytes.extend t.rels 0 (cap - t.len)

let rel_code = function
  | Node_meta.Customer_provider -> 'c'
  | Node_meta.Peer -> 'p'
  | Node_meta.Ixp_member -> 'i'

(* Accept [uv] unless it is a self-loop or already accepted. *)
let add t u v rel =
  u <> v
  &&
  let key = if u < v then (u * t.n_total) + v else (v * t.n_total) + u in
  let slot = find_slot t.keys key in
  t.keys.(slot) < 0
  && begin
       t.keys.(slot) <- key;
       if t.len = Array.length t.us then grow_edges t;
       t.us.(t.len) <- u;
       t.vs.(t.len) <- v;
       Bytes.set t.rels t.len (rel_code rel);
       t.len <- t.len + 1;
       if 2 * t.len > Array.length t.keys then grow_keys t;
       true
     end

let check_params p =
  let fail field what =
    invalid_arg (Printf.sprintf "Internet.generate: %s %s" field what)
  in
  let fraction field x =
    if not (x >= 0.0 && x <= 1.0) then fail field (Printf.sprintf "must be in [0, 1], got %g" x)
  in
  let count field ~min x =
    if x < min then fail field (Printf.sprintf "must be at least %d, got %d" min x)
  in
  if p.n_tier1 < 2 || p.n_as <= p.n_tier1 then invalid_arg "Internet.generate: sizes";
  count "n_ixp" ~min:1 p.n_ixp;
  fraction "transit_frac" p.transit_frac;
  fraction "ixp_connect_frac" p.ixp_connect_frac;
  count "as_as_edge_target" ~min:0 p.as_as_edge_target;
  count "as_ixp_edge_target" ~min:0 p.as_ixp_edge_target

let generate params =
  Broker_obs.Trace.with_span t_generate @@ fun () ->
  check_params params;
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
  let rng = R.create seed in
  let n_transit = max n_tier1 (int_of_float (transit_frac *. float_of_int n_as)) in
  let n_total = n_as + n_ixp in
  let kinds = Array.make n_total Node_meta.Enterprise in
  let tiers = Array.make n_total 3 in
  let total_edge_target = as_as_edge_target + as_ixp_edge_target in
  let edges = edges_create ~n_total ~expected:total_edge_target in
  let add_edge = add edges in
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
     the real AS graph. The pool they are drawn from holds both endpoints
     of every accepted edge, so it is read off the edge arrays instead of
     being stored. Its slot [i] is endpoint [i land 1] (0: [us], 1: [vs])
     of edge [e], where, with [j = i / 2] and [n0] the edges accepted
     before this loop, [e = n0 - 1 - j] when [j < n0] (the earlier edges,
     newest first) and [e = j] otherwise (this loop's edges, in order).
     The pool has [2 * edges.len] slots. *)
  let n0 = edges.len in
  let pool_slot i =
    let j = i / 2 in
    let e = if j < n0 then n0 - 1 - j else j in
    if i land 1 = 0 then edges.us.(e) else edges.vs.(e)
  in
  let guard = ref 0 in
  let budget_guard = 30 * as_as_edge_target in
  while edges.len < as_as_edge_target && !guard < budget_guard do
    incr guard;
    let u = pool_slot (R.int rng (2 * edges.len)) in
    let v = pool_slot (R.int rng (2 * edges.len)) in
    ignore (u <> v && add_edge u v Node_meta.Peer)
  done;
  (* IXP memberships: a degree-biased ~ixp_connect_frac of ASes join, and
     membership slots are split across IXPs with heavy-tailed popularity. *)
  let as_degree = Array.make n_as 0 in
  for e = 0 to edges.len - 1 do
    let u = edges.us.(e) and v = edges.vs.(e) in
    as_degree.(u) <- as_degree.(u) + 1;
    as_degree.(v) <- as_degree.(v) + 1
  done;
  let n_connected = int_of_float (ixp_connect_frac *. float_of_int n_as) in
  (* Efraimidis–Spirakis weighted sampling without replacement: keys
     u^(1/w), keep the n_connected largest. Equal keys stay in the order
     [Array.sort], a heap sort that is not stable, leaves them in; another
     sort could reorder ties and change the topology. *)
  let keys =
    Array.init n_as (fun v ->
        let w = float_of_int (as_degree.(v) + 1) in
        let u = R.float rng 1.0 in
        u ** (1.0 /. w))
  in
  let by_key = Array.init n_as Fun.id in
  Array.sort (fun a b -> Float.compare keys.(b) keys.(a)) by_key;
  let members = Array.sub by_key 0 (min n_connected n_as) in
  let ixp_weights =
    Array.init n_ixp (fun _ -> R.pareto rng ~alpha:1.1 ~x_min:1.0)
  in
  let draw_ixp = Broker_util.Sampling.weighted_alias ixp_weights in
  (* Every connected AS gets one membership; the remaining budget goes to
     degree-weighted repeat memberships. *)
  let add_membership v ixp_local = add_edge v (n_as + ixp_local) Node_meta.Ixp_member in
  Array.iter (fun v -> ignore (add_membership v (draw_ixp rng))) members;
  (* Seed weight: AS degree, so big ASes collect more memberships. *)
  let seed_weight v = 1 + min 16 as_degree.(v) in
  let member_pool =
    pool_create (Array.fold_left (fun acc v -> acc + seed_weight v) 0 members)
  in
  Array.iter
    (fun v ->
      for _ = 1 to seed_weight v do
        pool_push member_pool v
      done)
    members;
  let guard = ref 0 in
  let budget_guard = 30 * as_ixp_edge_target in
  while member_pool.len > 0 && edges.len < total_edge_target && !guard < budget_guard do
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
  let graph = G.of_edge_arrays ~n:n_total ~len:edges.len edges.us edges.vs in
  let relations = Relations.create graph in
  for e = 0 to edges.len - 1 do
    let u = edges.us.(e) and v = edges.vs.(e) in
    match Bytes.get edges.rels e with
    | 'c' -> Relations.add_c2p relations ~customer:u ~provider:v
    | 'i' -> Relations.add_ixp_member relations ~as_node:u ~ixp:v
    | _ -> Relations.add_peer relations u v
  done;
  Log.info (fun m ->
      m "generated topology: %d ASes + %d IXPs, %d edges (seed %d)" n_as n_ixp
        (G.m graph) seed);
  { Topology.graph; kinds; tiers; names; relations }
