(** Interface for the R3 clean fixture. *)

val answer : int (* brokercheck: allow export-has-user *)
