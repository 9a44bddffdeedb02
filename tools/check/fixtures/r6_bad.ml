(* Fixture (brokercheck: allow mli-complete): R6 no-list-nth — List.nth and list append inside loop bodies
   are accidentally quadratic. *)

let sum_first_k xs k =
  let s = ref 0 in
  for i = 0 to k - 1 do
    s := !s + List.nth xs i
  done;
  !s

let replicate x n =
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    out := !out @ [ x ];
    incr i
  done;
  !out
