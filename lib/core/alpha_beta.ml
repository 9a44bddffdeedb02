type estimate = { beta : int; alpha : float; cdf : float array }

let l_max = 16

let distance_cdf ~rng ~sources g =
  let dists = Broker_graph.Metrics.hop_distance_sample ~rng ~sources g in
  let total = Array.length dists in
  let hist = Array.make (l_max + 1) 0 in
  Array.iter (fun d -> if d <= l_max then hist.(d) <- hist.(d) + 1) dists;
  let cdf = Array.make (l_max + 1) 0.0 in
  let acc = ref 0 in
  for l = 1 to l_max do
    acc := !acc + hist.(l);
    cdf.(l) <- (if total = 0 then 0.0 else float_of_int !acc /. float_of_int total)
  done;
  cdf

let estimate ~rng ~sources g ~alpha =
  let cdf = distance_cdf ~rng ~sources g in
  let beta = ref l_max in
  (try
     for l = 1 to l_max do
       if cdf.(l) >= alpha then begin
         beta := l;
         raise Exit
       end
     done
   with Exit -> ());
  { beta = !beta; alpha = cdf.(!beta); cdf }
