(* Fixture: R10 violation — r10_stale.mli marks [hook] as a test hook,
   but r10_user.ml references it, so the attribute is stale. *)

let hook = 3
