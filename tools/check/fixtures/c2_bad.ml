(* Fixture (brokercheck: allow mli-complete): Seeded allocations inside [@brokercheck.noalloc] bodies, one per
   construct class the rule rejects. *)

let[@brokercheck.noalloc] sum_pairs a b =
  let acc = ref 0 in
  for i = 0 to Array.length a - 1 do
    let p = (a.(i), b.(i)) in
    acc := !acc + fst p + snd p
  done;
  !acc

let[@brokercheck.noalloc] collect n =
  let out = ref [] in
  for i = 0 to n - 1 do
    out := i :: !out
  done;
  !out

let[@brokercheck.noalloc] scaled xs =
  let acc = ref 0 in
  for i = 0 to Array.length xs - 1 do
    acc := !acc + int_of_float (float_of_int xs.(i) *. 2.0)
  done;
  !acc

let[@brokercheck.noalloc] with_closure base xs =
  let f = fun x -> x + base in
  Array.map f xs

let[@brokercheck.noalloc] partial xs = List.map (( + ) 1) xs
