(** Interface for the R10 clean fixture. *)

val used : int
(** Referenced from r10_user.ml. *)

val oracle : int -> bool [@@brokercheck.test_only]
(** Referenced by no unit: a hook for tests, which the checker does not
    scan. *)
