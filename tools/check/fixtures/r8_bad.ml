(* Fixture (brokercheck: allow mli-complete): R8 clock-discipline — ad-hoc wall/CPU clocks outside
   the sanctioned lib/obs/ and bench/ homes. *)

let started_at = Unix.gettimeofday ()
let cpu_budget_spent () = Sys.time () > 10.0
