module G = Broker_graph.Graph
module Msbfs = Broker_graph.Msbfs

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

(* Row [s] sums the masses of the vertices a dominated path reaches from
   [s], the source excluded, in increasing vertex order; rows add up in
   draw order. The draws go [Msbfs.lanes] to a sweep, and each lane's
   row is read off the settled words by one pass over the vertices, so
   every float addition happens in the order a per-source loop makes
   it. *)
let weighted_saturated ~rng ~sources g m ~is_broker =
  let n = G.n g in
  if n < 2 then 0.0
  else begin
    let draw = Broker_util.Sampling.weighted_alias m.masses in
    let srcs = Array.init (max sources 0) (fun _ -> draw rng) in
    (* All draws share one broker set: project once, then sweep every
       batch on one workspace. *)
    let pg =
      Broker_graph.Projected.graph (Broker_graph.Projected.project g ~is_broker)
    in
    let ws = Msbfs.workspace () in
    let rows = Array.make Msbfs.lanes 0.0 in
    let mass_total = Array.fold_left ( +. ) 0.0 m.masses in
    let served = ref 0.0 and possible = ref 0.0 in
    let lo = ref 0 in
    while !lo < Array.length srcs do
      let len = min Msbfs.lanes (Array.length srcs - !lo) in
      Msbfs.run ws pg srcs ~lo:!lo ~len;
      Array.fill rows 0 len 0.0;
      for v = 0 to n - 1 do
        let w = ref (Msbfs.settled_bits ws v) in
        while !w <> 0 do
          let b = Broker_util.Bitset.popcount ((!w land - !w) - 1) in
          if srcs.(!lo + b) <> v then rows.(b) <- rows.(b) +. m.masses.(v);
          w := !w land (!w - 1)
        done
      done;
      for b = 0 to len - 1 do
        (* Row total demand excludes the self pair. *)
        served := !served +. rows.(b);
        possible := !possible +. (mass_total -. m.masses.(srcs.(!lo + b)))
      done;
      lo := !lo + len
    done;
    if !possible = 0.0 then 0.0 else !served /. !possible
  end
