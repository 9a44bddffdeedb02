(** Interface for the R10 suppressed fixture. *)

val hook : int (* brokercheck: allow export-has-user *)
