(* Fixture (brokercheck: allow mli-complete): Same race as c1_bad.ml, silenced by a suppression comment on the
   offending line: the file must check clean. *)

module Parallel = struct
  let strided ~n ~worker ~merge init =
    ignore n;
    merge init (worker ~start:0 ~step:1)
end

let total = ref 0

let bump n =
  Parallel.strided ~n
    ~worker:(fun ~start ~step ->
      ignore step;
      total := !total + start (* brokercheck: allow domain-safety *))
    ~merge:(fun () () -> ()) ()
