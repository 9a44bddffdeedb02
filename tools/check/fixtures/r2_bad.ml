(* Fixture (brokercheck: allow mli-complete): R2 determinism — self-seeded global RNG, plus Stdlib.Random
   draws in library code (one hidden behind a local open). *)

let () = Random.self_init ()
let roll () = Random.int 6
let coin () = Random.(bool ())
