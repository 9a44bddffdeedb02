(* Fixture (brokercheck: allow mli-complete): R1 no-poly-compare — polymorphic comparator passed to a sort,
   and a bare [compare] in a comparator lambda (library mode). *)

let sort_ints (a : int array) = Array.sort compare a

let sort_pairs_desc (a : (float * int) array) =
  Array.sort (fun (x, _) (y, _) -> compare y x) a
