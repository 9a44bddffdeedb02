(* Fixture (brokercheck: allow mli-complete): R8 clean — timing through the sanctioned observability
   clock (a stand-in here) instead of ad-hoc Unix/Sys wall clocks. *)

module Clock = struct
  let time f = f ()
  let now_ns () = 0
end

let time_it f = Clock.time f
let elapsed_ns t0 = Clock.now_ns () - t0
