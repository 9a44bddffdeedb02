type outcome = {
  price : float;
  u_employee : float;
  u_broker : float;
  nash_product : float;
}

(* u_j(p) = p - c;  u_B(p) = 2 p_B - h p - h c = R - h p  with
   R = 2 p_B - h c. The Nash product (p - c)(R - h p) is a concave parabola
   with roots c and R/h; the maximizer is their midpoint. *)
let feasible ~broker_price ~hops ~cost =
  if hops < 1 then invalid_arg "Bargain: hops must be >= 1";
  if cost < 0.0 then invalid_arg "Bargain: negative cost";
  let h = float_of_int hops in
  (2.0 *. broker_price) -. (h *. cost) > h *. cost

let t_solve = Broker_obs.Trace.scope "econ.bargain"

let solve ?(cross_check = false) ~broker_price ~hops cost =
  Broker_obs.Trace.with_span t_solve @@ fun () ->
  if not (feasible ~broker_price ~hops ~cost) then None
  else begin
    let h = float_of_int hops in
    let r = (2.0 *. broker_price) -. (h *. cost) in
    let price = (cost +. (r /. h)) /. 2.0 in
    if cross_check then begin
      let product p = (p -. cost) *. (r -. (h *. p)) in
      let p_num, _ =
        Broker_util.Optimize.golden_section_max ~tol:1e-10 product ~lo:cost
          ~hi:(r /. h)
      in
      assert (abs_float (p_num -. price) < 1e-6)
    end;
    let u_employee = price -. cost in
    let u_broker = r -. (h *. price) in
    Some { price; u_employee; u_broker; nash_product = u_employee *. u_broker }
  end
