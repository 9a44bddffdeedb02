(* Fixture (brokercheck: allow mli-complete): Domain-safe counterparts of c1_bad.ml: cross-domain accumulation goes
   through Atomic, per-worker scratch lives inside the worker closure,
   and the one shared array is written at provably disjoint strided
   indices under the owned annotation. *)

module Parallel = struct
  let strided ~n ~worker ~merge init =
    ignore n;
    merge init (worker ~start:0 ~step:1)
end

let total = Atomic.make 0

let sum n =
  Parallel.strided ~n
    ~worker:(fun ~start ~step ->
      let acc = ref 0 in
      let i = ref start in
      while !i < n do
        acc := !acc + !i;
        i := !i + step
      done;
      Atomic.fetch_and_add total !acc)
    ~merge:(fun a _ -> a) 0

let fill n =
  let[@brokercheck.owned] out = Array.make (max n 1) 0 in
  let () =
    Parallel.strided ~n
      ~worker:(fun ~start ~step ->
        let i = ref start in
        while !i < n do
          out.(!i) <- !i;
          i := !i + step
        done)
      ~merge:(fun () () -> ()) ()
  in
  out
