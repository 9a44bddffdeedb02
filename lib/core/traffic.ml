module G = Broker_graph.Graph

type model = { masses : float array }

let gravity ~rng g =
  let n = G.n g in
  let raw =
    Array.init n (fun v ->
        let base = float_of_int (G.degree g v + 1) in
        (* Log-normal-ish multiplicative noise: exp(N(0, 0.75²))
           approximated by a product of uniforms (CLT on logs). *)
        let z =
          Broker_util.Xrandom.float rng 1.0
          +. Broker_util.Xrandom.float rng 1.0
          +. Broker_util.Xrandom.float rng 1.0 -. 1.5
        in
        base *. exp (0.75 *. z))
  in
  let mean = Array.fold_left ( +. ) 0.0 raw /. float_of_int (max n 1) in
  { masses = Array.map (fun x -> x /. mean) raw }

let weighted_saturated ~rng ~sources g m ~is_broker =
  let n = G.n g in
  if n < 2 then 0.0
  else begin
    let draw = Broker_util.Sampling.weighted_alias m.masses in
    (* All [sources] draws share one broker set: project once, then reuse a
       single BFS workspace across the rows. *)
    let pg =
      Broker_graph.Projected.graph (Broker_graph.Projected.project g ~is_broker)
    in
    let ws = Broker_graph.Bfs.workspace () in
    let mass_total = Array.fold_left ( +. ) 0.0 m.masses in
    let served = ref 0.0 and possible = ref 0.0 in
    for _ = 1 to sources do
      let s = draw rng in
      Broker_graph.Bfs.run ws pg s;
      let row_served = ref 0.0 in
      for v = 0 to n - 1 do
        if Broker_graph.Bfs.distance ws v > 0 then
          row_served := !row_served +. m.masses.(v)
      done;
      (* Row total demand excludes the self pair. *)
      served := !served +. !row_served;
      possible := !possible +. (mass_total -. m.masses.(s))
    done;
    if !possible = 0.0 then 0.0 else !served /. !possible
  end
