(* Fixture (brokercheck: allow mli-complete): the other unit whose
   reference gives r10_good's [used] export its user. *)

let twice = 2 * R10_good.used
