(** k-core decomposition (Batagelj–Zaveršnik peeling, O(|V| + |E|)).

    The coreness of a vertex discriminates the Internet "core" (high-coreness
    transit/IXP mesh) from the "edge" (stub networks); Fig. 4 of the paper
    contrasts broker placements of the Degree-Based baseline (core-heavy)
    against MaxSG (edge-covering). *)

val coreness : Graph.t -> int array
(** Largest [k] such that the vertex belongs to the k-core. *)
