(** Connected components of an undirected graph. *)

type t = {
  component : int array;  (** component id of every vertex, ids are dense 0.. *)
  sizes : int array;  (** size of each component, indexed by id *)
}

val compute : Graph.t -> t

val largest : t -> int * int
(** [(id, size)] of the largest component. *)
