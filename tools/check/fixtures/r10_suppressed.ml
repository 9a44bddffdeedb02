(* Fixture: the same R10 violation as r10_bad.ml, silenced by a
   suppression comment on the [val] line of r10_suppressed.mli. *)

let hook = 0
