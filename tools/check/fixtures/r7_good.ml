(* Fixture (brokercheck: allow mli-complete): R7 clean — the experiment
   builds a typed report; non-output Ctx accessors stay fair game. *)

module Report = struct
  let create ~name () = ref [ name ]
  let section r (_ : string) = r
  let notef s fmt = Printf.ksprintf (fun line -> s := line :: !s) fmt
end

module Ctx = struct
  let seed () = 42
end

let report ctx =
  let r = Report.create ~name:"fixture" () in
  let s = Report.section r "Table 1 — coverage" in
  Report.notef s "seed = %d\n" (Ctx.seed ctx);
  r
