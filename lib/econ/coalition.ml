type check = { holds : bool; violations : int; trials : int }

let tol = 1e-9
let t_check = Broker_obs.Trace.scope "econ.coalition"

let superadditive ~rng ~n ~v ~trials =
  Broker_obs.Trace.with_span t_check @@ fun () ->
  let full = (1 lsl n) - 1 in
  let violations = ref 0 and count = ref 0 in
  let test k l =
    if k land l = 0 && k <> 0 && l <> 0 then begin
      incr count;
      if v (k lor l) < v k +. v l -. tol then incr violations
    end
  in
  if full <= 4096 then
    for k = 1 to full do
      for l = 1 to full do
        test k l
      done
    done
  else
    for _ = 1 to trials do
      let k = Broker_util.Xrandom.int rng (full + 1) in
      let l = Broker_util.Xrandom.int rng (full + 1) land lnot k in
      test k l
    done;
  { holds = !violations = 0; violations = !violations; trials = !count }

let supermodular ~rng ~n ~v ~trials =
  Broker_obs.Trace.with_span t_check @@ fun () ->
  let full = (1 lsl n) - 1 in
  let violations = ref 0 and count = ref 0 in
  let test j k l =
    let bit = 1 lsl j in
    if k land bit = 0 && l land bit = 0 && k land l = k (* K ⊆ L *) then begin
      incr count;
      let dk = v (k lor bit) -. v k and dl = v (l lor bit) -. v l in
      if dk > dl +. tol then incr violations
    end
  in
  if full <= 1024 then
    for j = 0 to n - 1 do
      for l = 0 to full do
        (* Enumerate subsets k of l. *)
        let k = ref l in
        let stop = ref false in
        while not !stop do
          test j !k l;
          if !k = 0 then stop := true else k := (!k - 1) land l
        done
      done
    done
  else
    for _ = 1 to trials do
      let j = Broker_util.Xrandom.int rng n in
      let l = Broker_util.Xrandom.int rng (full + 1) land lnot (1 lsl j) in
      (* Random subset of l. *)
      let k = Broker_util.Xrandom.int rng (full + 1) land l in
      test j k l
    done;
  { holds = !violations = 0; violations = !violations; trials = !count }

let individually_rational ~v ~n phi =
  let ok = ref true in
  for j = 0 to n - 1 do
    if phi.(j) < v (1 lsl j) -. tol then ok := false
  done;
  !ok

let group_rational ~rng ~n ~v phi ~trials =
  Broker_obs.Trace.with_span t_check @@ fun () ->
  let full = (1 lsl n) - 1 in
  let violations = ref 0 and count = ref 0 in
  let test m =
    if m <> 0 then begin
      incr count;
      let sum = ref 0.0 in
      for j = 0 to n - 1 do
        if m land (1 lsl j) <> 0 then sum := !sum +. phi.(j)
      done;
      if !sum < v m -. tol then incr violations
    end
  in
  if full <= 65536 then
    for m = 1 to full do
      test m
    done
  else
    for _ = 1 to trials do
      test (Broker_util.Xrandom.int rng (full + 1))
    done;
  { holds = !violations = 0; violations = !violations; trials = !count }

let marginal_curve values =
  let n = Array.length values in
  if n = 0 then [||]
  else
    Array.init n (fun i -> if i = 0 then values.(0) else values.(i) -. values.(i - 1))

let supermodularity_break values =
  let marg = marginal_curve values in
  let n = Array.length marg in
  let rec scan i =
    if i >= n then None
    else if marg.(i) < marg.(i - 1) -. tol then Some i
    else scan (i + 1)
  in
  if n < 2 then None else scan 1
