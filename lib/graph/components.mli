(** Connected components of an undirected graph. *)

type t = {
  component : int array;  (** component id of every vertex, ids are dense 0.. *)
  sizes : int array;  (** size of each component, indexed by id *)
}

val compute : Graph.t -> t

val count : t -> int [@@brokercheck.test_only]
(** Number of components. *)

val largest : t -> int * int
(** [(id, size)] of the largest component. *)

val largest_members : Graph.t -> int array [@@brokercheck.test_only]
(** Vertices of the largest connected component, ascending. *)

val same : t -> int -> int -> bool [@@brokercheck.test_only]
(** Whether two vertices share a component. *)
