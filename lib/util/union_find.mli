(** Disjoint-set forest with union by size and path compression. *)

type t

val create : int -> t
(** [create n] has elements [0..n-1], each in its own singleton. *)

val find : t -> int -> int
(** Canonical representative. *)

val union : t -> int -> int -> bool
(** Merge the two components. Returns [true] if they were distinct. *)
