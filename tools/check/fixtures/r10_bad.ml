(* Fixture: R10 violation — r10_bad.mli exports [orphan], and no other
   unit references it. *)

let orphan x = x + 1
