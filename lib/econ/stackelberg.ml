let t_solve = Broker_obs.Trace.scope "econ.stackelberg"

type equilibrium = {
  price : float;
  adoptions : float array;
  alpha : float;
  broker_utility : float;
  customer_utilities : float array;
}

let aggregate_response customers ~price =
  Array.fold_left
    (fun acc c -> acc +. Market.best_response c ~price)
    0.0 customers

let broker_utility customers ~cost ~price =
  let alpha = aggregate_response customers ~price in
  (2.0 *. price *. alpha) -. Market.cost cost alpha

let default_p_max customers =
  (* Above the steepest initial marginal value V'(a0) + P'(a0) no customer
     moves beyond a0, so the search interval can stop there. *)
  Array.fold_left
    (fun acc c ->
      let da = 1e-5 in
      let slope =
        (Market.utility c ~price:0.0 (c.Market.a0 +. da)
        -. Market.utility c ~price:0.0 c.Market.a0)
        /. da
      in
      Float.max acc slope)
    1.0 customers

let solve customers ~cost =
  Broker_obs.Trace.with_span t_solve @@ fun () ->
  if Array.length customers = 0 then invalid_arg "Stackelberg.solve: no customers";
  let objective price = broker_utility customers ~cost ~price in
  let price, _ =
    Broker_util.Optimize.grid_then_golden ~steps:96 ~tol:1e-7 objective ~lo:0.0
      ~hi:(default_p_max customers)
  in
  let adoptions = Array.map (fun c -> Market.best_response c ~price) customers in
  let alpha = Array.fold_left ( +. ) 0.0 adoptions in
  let customer_utilities =
    Array.mapi (fun i c -> Market.utility c ~price adoptions.(i)) customers
  in
  {
    price;
    adoptions;
    alpha;
    broker_utility = (2.0 *. price *. alpha) -. Market.cost cost alpha;
    customer_utilities;
  }

let full_adoption_price customers ~epsilon =
  Broker_obs.Trace.with_span t_solve @@ fun () ->
  let full price =
    Array.for_all
      (fun c -> Market.best_response c ~price >= 1.0 -. epsilon)
      customers
  in
  if not (full 0.0) then None
  else begin
    (* Largest price keeping adoption full, by bisection on the indicator
       (adoption is monotone non-increasing in price). *)
    let lo = ref 0.0 and hi = ref (default_p_max customers) in
    if full !hi then Some !hi
    else begin
      for _ = 1 to 60 do
        let mid = (!lo +. !hi) /. 2.0 in
        if full mid then lo := mid else hi := mid
      done;
      Some !lo
    end
  end
