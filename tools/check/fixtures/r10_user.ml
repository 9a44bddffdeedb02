(* Fixture (brokercheck: allow mli-complete): the other unit whose
   references give r10_good's [used] export its user and make
   r10_stale's test hook stale. *)

let twice = 2 * R10_good.used
let thrice = 3 * R10_stale.hook
