(** Interface for the R10 violating fixture. *)

val orphan : int -> int
(** No other unit references this. *)
