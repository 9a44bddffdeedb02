(* Fixture (brokercheck: allow mli-complete): Seeded domain-safety races: writes to shared mutable state from a
   parallel worker. The fixture carries its own [Parallel] so the spawn
   site resolves without depending on the real libraries. *)

module Parallel = struct
  let strided ~n ~worker ~merge init =
    ignore n;
    merge init (worker ~start:0 ~step:1)
end

let total = ref 0
let hits = Array.make 8 0

type cell = { mutable value : int }

let shared = { value = 0 }

(* Not itself a worker, but reachable from one: its global write below
   must still be flagged. *)
let bump () = total := !total + 1

let race n =
  let local_sum = ref 0 in
  Parallel.strided ~n
    ~worker:(fun ~start ~step ->
      let i = ref start in
      while !i < n do
        total := !total + !i;
        hits.(!i mod 8) <- 1;
        shared.value <- !i;
        local_sum := !local_sum + !i;
        bump ();
        i := !i + step
      done;
      !local_sum)
    ~merge:( + ) 0
