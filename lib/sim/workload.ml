type session = {
  id : int;
  src : int;
  dst : int;
  arrival : float;
  duration : float;
  demand : float;
}

type params = { arrival_rate : float; mean_duration : float; demand : float }

let default_params = { arrival_rate = 10.0; mean_duration = 5.0; demand = 1.0 }

(* Zipf-skewed endpoint popularity: mass of vertex i is 1/(i+1)^alpha,
   normalized to mean 1 like the gravity model. Deterministic (no rng) —
   the skew is what X8 needs so a small set of hot (src, dst) pairs
   dominates cache traffic. *)
let zipf ?(alpha = 1.2) ~n () =
  if n < 2 then invalid_arg "Workload.zipf: need at least 2 vertices";
  if Float.is_nan alpha || alpha <= 0.0 || alpha = infinity then
    invalid_arg "Workload.zipf: alpha must be positive and finite";
  let masses =
    Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** alpha))
  in
  let total = Array.fold_left ( +. ) 0.0 masses in
  let scale = float_of_int n /. total in
  { Broker_core.Traffic.masses = Array.map (fun m -> m *. scale) masses }

let generate ~rng model ~n_sessions params =
  if n_sessions < 0 then invalid_arg "Workload.generate: negative count";
  if params.arrival_rate <= 0.0 || params.mean_duration <= 0.0 then
    invalid_arg "Workload.generate: rates must be positive";
  let masses = model.Broker_core.Traffic.masses in
  let draw = Broker_util.Sampling.weighted_alias masses in
  let clock = ref 0.0 in
  Array.init n_sessions (fun id ->
      clock := !clock +. Broker_util.Xrandom.exponential rng params.arrival_rate;
      let src = draw rng in
      let dst = ref (draw rng) in
      while !dst = src do
        dst := draw rng
      done;
      {
        id;
        src;
        dst = !dst;
        arrival = !clock;
        duration =
          Broker_util.Xrandom.exponential rng (1.0 /. params.mean_duration);
        demand = params.demand;
      })

let last_arrival sessions =
  let n = Array.length sessions in
  if n = 0 then 0.0 else sessions.(n - 1).arrival
