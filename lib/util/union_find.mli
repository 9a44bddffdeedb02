(** Disjoint-set forest with union by size and path compression.

    Tracks component sizes and the number of components. *)

type t

val create : int -> t
(** [create n] has elements [0..n-1], each in its own singleton. *)

val find : t -> int -> int
(** Canonical representative. *)

val union : t -> int -> int -> bool
(** Merge the two components. Returns [true] if they were distinct. *)

val same : t -> int -> int -> bool [@@brokercheck.test_only]
val size : t -> int -> int [@@brokercheck.test_only]
(** Size of the component containing the element. *)

val count : t -> int [@@brokercheck.test_only]
(** Number of components. *)
