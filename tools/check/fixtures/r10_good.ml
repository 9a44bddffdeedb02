(* Fixture: R10 clean — [used] has a user in r10_user.ml, and [oracle],
   which nothing calls, carries the test-hook attribute in the .mli. *)

let used = 7
let oracle x = x = used
