let without_replacement rng ~n ~k =
  if k < 0 || n < 0 || k > n then invalid_arg "Sampling.without_replacement";
  (* Floyd's algorithm: k iterations, O(k) expected set operations. *)
  let chosen = Hashtbl.create (2 * k) in
  for j = n - k to n - 1 do
    let t = Xrandom.int rng (j + 1) in
    if Hashtbl.mem chosen t then Hashtbl.replace chosen j ()
    else Hashtbl.replace chosen t ()
  done;
  let out = Array.make k 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun v () ->
      out.(!i) <- v;
      incr i)
    chosen;
  Array.sort Int.compare out;
  out

let weighted_alias weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Sampling.weighted_alias: empty weights";
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Sampling.weighted_alias: zero total weight";
  let prob = Array.make n 0.0 in
  let alias = Array.make n 0 in
  let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
  let small = Stack.create () and large = Stack.create () in
  Array.iteri
    (fun i p -> if p < 1.0 then Stack.push i small else Stack.push i large)
    scaled;
  while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
    let s = Stack.pop small and l = Stack.pop large in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
    if scaled.(l) < 1.0 then Stack.push l small else Stack.push l large
  done;
  Stack.iter (fun i -> prob.(i) <- 1.0) small;
  Stack.iter (fun i -> prob.(i) <- 1.0) large;
  fun rng ->
    let i = Xrandom.int rng n in
    if Xrandom.float rng 1.0 < prob.(i) then i else alias.(i)
