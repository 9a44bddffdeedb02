(* Fixture (brokercheck: allow mli-complete): R5 clean — an explicit formatter threaded by the caller. *)

module Fmt = struct
  let pf = Format.fprintf
end

let report ppf x = Fmt.pf ppf "x = %d@." x
let fail_soft () = invalid_arg "fail_soft"
