(** PageRank by power iteration, used by the PageRank-Based (PRB) baseline
    broker selection and the Fig. 3 correlation study. Undirected edges are
    treated as arcs in both directions. *)

val compute :
  ?damping:float -> ?tol:float -> ?max_iter:int -> Graph.t -> float array
(** [compute g] returns scores summing to 1. Defaults: damping 0.85,
    tolerance 1e-10 (L1 change per iteration), at most 200 iterations.
    Isolated vertices receive the teleport mass only. *)
