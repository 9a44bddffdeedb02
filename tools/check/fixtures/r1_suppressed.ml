(* Fixture (brokercheck: allow mli-complete): the same R1 violation as r1_bad.ml, silenced by an inline
   suppression comment on the offending line. *)

let sort_ints (a : int array) =
  Array.sort compare a (* brokercheck: allow no-poly-compare *)
