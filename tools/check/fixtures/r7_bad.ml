(* Fixture (brokercheck: allow mli-complete): R7 report-pure — an
   experiment module printing through the retired Ctx output surface
   (stand-ins for the old helpers below). *)

module Ctx = struct
  let printf () fmt = Printf.ifprintf () fmt
  let table () (_ : (string * int) list) = ()
  let section () (_ : string) = ()
end

module Broker_experiments = struct
  module Ctx = Ctx
end

let run ctx =
  Ctx.printf ctx "saturated = %.2f%%\n" 98.5;
  Ctx.table ctx [ ("k", 100); ("coverage", 92) ];
  Broker_experiments.Ctx.section ctx "Table 1"
