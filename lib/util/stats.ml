let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    acc /. float_of_int n
  end

let stddev xs = sqrt (variance xs)

let quantile xs q =
  if Array.length xs = 0 then invalid_arg "Stats.quantile: empty array";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q out of [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = quantile xs 0.5

let pearson xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.pearson: length mismatch";
  if n = 0 then 0.0
  else begin
    let mx = mean xs and my = mean ys in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    if !sxx = 0.0 || !syy = 0.0 then 0.0 else !sxy /. sqrt (!sxx *. !syy)
  end

type summary = {
  n : int;
  min : float;
  max : float;
  mean : float;
  stddev : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty array";
  {
    n = Array.length xs;
    min = Array.fold_left min xs.(0) xs;
    max = Array.fold_left max xs.(0) xs;
    mean = mean xs;
    stddev = stddev xs;
    p50 = quantile xs 0.5;
    p90 = quantile xs 0.9;
    p99 = quantile xs 0.99;
  }
