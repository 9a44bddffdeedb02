(* Fixture (brokercheck: allow mli-complete): R4 clean — parallelism goes through the sanctioned runner
   (a stand-in here). *)

module Parallel = struct
  let map_array f a = Array.map f a
end

let doubled arr = Parallel.map_array (fun x -> 2 * x) arr
