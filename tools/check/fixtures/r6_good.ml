(* Fixture (brokercheck: allow mli-complete): R6 clean — array indexing in loops; cons then reverse. *)

let sum_first_k xs k =
  let arr = Array.of_list xs in
  let s = ref 0 in
  for i = 0 to k - 1 do
    s := !s + arr.(i)
  done;
  !s

let replicate x n =
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    out := x :: !out;
    incr i
  done;
  List.rev !out
