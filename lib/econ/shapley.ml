let t_solve = Broker_obs.Trace.scope "econ.shapley"

let exact ~n ~v =
  Broker_obs.Trace.with_span t_solve @@ fun () ->
  if n < 1 || n > 20 then invalid_arg "Shapley.exact: n in [1, 20]";
  let fact = Array.make (n + 1) 1.0 in
  for i = 1 to n do
    fact.(i) <- fact.(i - 1) *. float_of_int i
  done;
  let phi = Array.make n 0.0 in
  let full = (1 lsl n) - 1 in
  for s = 0 to full do
    let size_s =
      let rec pop x acc = if x = 0 then acc else pop (x land (x - 1)) (acc + 1) in
      pop s 0
    in
    if size_s < n then begin
      let vs = v s in
      (* Weight of adding j to coalition s: |s|! (n-|s|-1)! / n!. *)
      let w = fact.(size_s) *. fact.(n - size_s - 1) /. fact.(n) in
      for j = 0 to n - 1 do
        if s land (1 lsl j) = 0 then
          phi.(j) <- phi.(j) +. (w *. (v (s lor (1 lsl j)) -. vs))
      done
    end
  done;
  phi

let monte_carlo ~rng ~n ~samples ~v =
  Broker_obs.Trace.with_span t_solve @@ fun () ->
  if n < 1 || n > 62 then invalid_arg "Shapley.monte_carlo: n in [1, 62]";
  if samples < 1 then invalid_arg "Shapley.monte_carlo: samples >= 1";
  let phi = Array.make n 0.0 in
  for _ = 1 to samples do
    let perm = Broker_util.Xrandom.permutation rng n in
    let mask = ref 0 in
    let prev = ref (v 0) in
    Array.iter
      (fun j ->
        mask := !mask lor (1 lsl j);
        let cur = v !mask in
        phi.(j) <- phi.(j) +. (cur -. !prev);
        prev := cur)
      perm
  done;
  Array.map (fun x -> x /. float_of_int samples) phi

let efficiency_gap ~v ~n phi =
  let total = Array.fold_left ( +. ) 0.0 phi in
  abs_float (total -. v ((1 lsl n) - 1))
