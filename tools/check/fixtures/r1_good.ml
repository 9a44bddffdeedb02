(* Fixture (brokercheck: allow mli-complete): R1 clean — monomorphic comparators everywhere. *)

let sort_ints (a : int array) = Array.sort Int.compare a

let sort_pairs_desc (a : (float * int) array) =
  Array.sort (fun (x, _) (y, _) -> Float.compare y x) a

(* Resolved, not spelled: this [compare] is a local monomorphic one. *)
let sort_desc (a : int array) =
  let compare x y = Int.compare y x in
  Array.sort compare a
