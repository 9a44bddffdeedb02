(** PageRank by power iteration, used by the PageRank-Based (PRB) baseline
    broker selection and the Fig. 3 correlation study. Undirected edges are
    treated as arcs in both directions. *)

val compute : ?max_iter:int -> Graph.t -> float array
(** [compute g] returns scores summing to 1, with damping 0.85, iterating
    until the L1 change per iteration falls to 1e-10 or [max_iter]
    iterations (default 200) have run. Isolated vertices receive the
    teleport mass only. *)
