module T = Broker_topo.Topology
module G = Broker_graph.Graph
module Rel = Broker_topo.Relations

type route_class = Via_customer | Via_peer | Via_provider

type route = { hops : int; via : route_class }

(* Customer routes: BFS from d along customer→provider arcs (a provider
   inherits a customer route from each customer it serves). *)
let customer_pass topo d =
  let g = topo.T.graph in
  let n = G.n g in
  let off = G.csr_off g and adj = G.csr_adj g in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  dist.(d) <- 0;
  queue.(!tail) <- d;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = off.(u) to off.(u + 1) - 1 do
      let p = adj.(i) in
      (* u is a customer of p: p learns the route from its customer u. *)
      match Rel.arc topo.T.relations i with
      | Rel.Up when dist.(p) < 0 ->
          dist.(p) <- dist.(u) + 1;
          queue.(!tail) <- p;
          incr tail
      | Rel.Up | Rel.Down | Rel.Peer | Rel.Ixp_member | Rel.Unlabelled -> ()
    done
  done;
  dist

(* Peer routes: one peering segment off a neighbor's customer route —
   either a direct peering edge (1 hop) or an AS→IXP→AS crossing (2
   hops). Per-IXP minima make the fabric scan linear. *)
let peer_pass topo dist_c =
  let g = topo.T.graph in
  let n = G.n g in
  let off = G.csr_off g and adj = G.csr_adj g in
  let dist = Array.make n (-1) in
  (* For each IXP: the two best customer-route distances among members
     (two, so a member does not route through itself). *)
  let ixp_best = Hashtbl.create 64 in
  Array.iter
    (fun x ->
      let best1 = ref (max_int, -1) and best2 = ref (max_int, -1) in
      G.iter_neighbors g x (fun w ->
          if T.is_as topo w && dist_c.(w) >= 0 then begin
            if dist_c.(w) < fst !best1 then begin
              best2 := !best1;
              best1 := (dist_c.(w), w)
            end
            else if dist_c.(w) < fst !best2 then best2 := (dist_c.(w), w)
          end);
      Hashtbl.replace ixp_best x (!best1, !best2))
    (T.ixps topo);
  for v = 0 to n - 1 do
    if T.is_as topo v && dist_c.(v) < 0 then begin
      let best = ref max_int in
      for i = off.(v) to off.(v + 1) - 1 do
        let w = adj.(i) in
        if T.is_ixp topo w then begin
          match Hashtbl.find_opt ixp_best w with
          | Some ((d1, w1), (d2, _)) ->
              let d = if w1 = v then d2 else d1 in
              if d < max_int && d + 2 < !best then best := d + 2
          | None -> ()
        end
        else
          match Rel.arc topo.T.relations i with
          | Rel.Peer | Rel.Ixp_member ->
              if dist_c.(w) >= 0 && dist_c.(w) + 1 < !best then best := dist_c.(w) + 1
          | Rel.Up | Rel.Down | Rel.Unlabelled -> ()
      done;
      if !best < max_int then dist.(v) <- !best
    end
  done;
  dist

(* Provider routes: descend provider→customer arcs from any routed AS, in
   increasing distance order (distances differ, so a heap orders the
   relaxation). *)
let provider_pass topo dist_c dist_p =
  let g = topo.T.graph in
  let n = G.n g in
  let off = G.csr_off g and adj = G.csr_adj g in
  let dist = Array.make n (-1) in
  let heap = Broker_util.Heap.create ~initial_capacity:1024 Broker_util.Heap.Min in
  let seed v d = Broker_util.Heap.push heap ~priority:(float_of_int d) v in
  for v = 0 to n - 1 do
    let d =
      if dist_c.(v) >= 0 then dist_c.(v)
      else if dist_p.(v) >= 0 then dist_p.(v)
      else -1
    in
    if d >= 0 then seed v d
  done;
  let settled = Array.make n false in
  let continue = ref true in
  while !continue do
    match Broker_util.Heap.pop heap with
    | None -> continue := false
    | Some (fd, u) ->
        if not settled.(u) then begin
          settled.(u) <- true;
          let d = int_of_float fd in
          (* The route propagates from provider u to its customers only. *)
          for i = off.(u) to off.(u + 1) - 1 do
            let c = adj.(i) in
            match Rel.arc topo.T.relations i with
            | Rel.Down when not settled.(c) ->
                let nd = d + 1 in
                if dist.(c) < 0 || nd < dist.(c) then begin
                  dist.(c) <- nd;
                  seed c nd
                end
            | Rel.Up | Rel.Down | Rel.Peer | Rel.Ixp_member | Rel.Unlabelled -> ()
          done
        end
  done;
  (* Remove entries that merely echo a better-class route. *)
  for v = 0 to n - 1 do
    if dist_c.(v) >= 0 || dist_p.(v) >= 0 then dist.(v) <- -1
  done;
  dist

let routes_to topo d =
  let dist_c = customer_pass topo d in
  let dist_p = peer_pass topo dist_c in
  let dist_pr = provider_pass topo dist_c dist_p in
  Array.init (T.n topo) (fun v ->
      if dist_c.(v) >= 0 then Some { hops = dist_c.(v); via = Via_customer }
      else if dist_p.(v) >= 0 then Some { hops = dist_p.(v); via = Via_peer }
      else if dist_pr.(v) >= 0 then Some { hops = dist_pr.(v); via = Via_provider }
      else None)

let sample_routes ~rng ~destinations topo f =
  let as_nodes = T.ases topo in
  let n = Array.length as_nodes in
  let k = min destinations n in
  let idx = Broker_util.Sampling.without_replacement rng ~n ~k in
  Array.iter (fun i -> f as_nodes.(i) (routes_to topo as_nodes.(i))) idx

let reachable_fraction ~rng ~destinations topo =
  let reached = ref 0 and total = ref 0 in
  sample_routes ~rng ~destinations topo (fun d routes ->
      Array.iteri
        (fun v r ->
          if v <> d && T.is_as topo v then begin
            incr total;
            if r <> None then incr reached
          end)
        routes);
  if !total = 0 then 0.0 else float_of_int !reached /. float_of_int !total

let average_path_length ~rng ~destinations topo =
  let sum = ref 0 and count = ref 0 in
  sample_routes ~rng ~destinations topo (fun d routes ->
      Array.iteri
        (fun v r ->
          match r with
          | Some { hops; _ } when v <> d && T.is_as topo v ->
              sum := !sum + hops;
              incr count
          | Some _ | None -> ())
        routes);
  if !count = 0 then 0.0 else float_of_int !sum /. float_of_int !count
