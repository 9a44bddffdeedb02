(** Interface for the R10 stale-hook fixture. *)

val hook : int [@@brokercheck.test_only]
(** Marked as a test hook, yet r10_user.ml references it. *)
