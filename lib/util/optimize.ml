let invphi = (sqrt 5.0 -. 1.0) /. 2.0

let golden_section_max ?(tol = 1e-9) f ~lo ~hi =
  if hi < lo then invalid_arg "Optimize.golden_section_max: hi < lo";
  let a = ref lo and b = ref hi in
  let c = ref (!b -. (invphi *. (!b -. !a))) in
  let d = ref (!a +. (invphi *. (!b -. !a))) in
  let fc = ref (f !c) and fd = ref (f !d) in
  let iter = ref 0 in
  while !b -. !a > tol && !iter < 200 do
    if !fc > !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (invphi *. (!b -. !a));
      fc := f !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (invphi *. (!b -. !a));
      fd := f !d
    end;
    incr iter
  done;
  let x = (!a +. !b) /. 2.0 in
  (x, f x)

let grid_max f ~lo ~hi ~steps =
  if steps <= 0 then invalid_arg "Optimize.grid_max: steps must be positive";
  let best_x = ref lo and best_f = ref (f lo) in
  for i = 1 to steps do
    let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int steps) in
    let fx = f x in
    if fx > !best_f then begin
      best_x := x;
      best_f := fx
    end
  done;
  (!best_x, !best_f)

let grid_then_golden ?(steps = 64) ?(tol = 1e-9) f ~lo ~hi =
  let x0, _ = grid_max f ~lo ~hi ~steps in
  let h = (hi -. lo) /. float_of_int steps in
  let a = max lo (x0 -. h) and b = min hi (x0 +. h) in
  golden_section_max ~tol f ~lo:a ~hi:b
