(* Fixture (brokercheck: allow mli-complete): Zero-alloc kernels that must pass: O(1) setup allocation before the
   loop is tolerated by design; the per-iteration path is pure int
   arithmetic on preallocated arrays. *)

let[@brokercheck.noalloc] prefix_sums src =
  let n = Array.length src in
  let out = Array.make (n + 1) 0 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + src.(i);
    out.(i + 1) <- !acc
  done;
  out

let[@brokercheck.noalloc] count_even a =
  let c = ref 0 in
  for i = 0 to Array.length a - 1 do
    if a.(i) land 1 = 0 then incr c
  done;
  !c
