(** Immutable undirected graphs in compressed sparse row (CSR) form.

    Vertices are the integers [0 .. n-1]. Parallel edges and self-loops are
    removed at construction. Adjacency lists are sorted, enabling O(log d)
    membership tests. This is the representation every algorithm in the
    reproduction operates on; at the paper's scale (52,079 vertices, ~700k
    directed arcs) the whole structure fits comfortably in a few MB. *)

type t

val of_edge_arrays : n:int -> len:int -> int array -> int array -> t
(** [of_edge_arrays ~n ~len us vs] builds the graph on [n] vertices from
    the undirected edges [(us.(i), vs.(i))] for [i < len]; entries past
    [len] are never read, so callers may pass preallocated buffers.
    Duplicates (in either orientation) and self-loops are dropped. The
    result does not depend on the order of the pairs. It allocates the
    [n + 1] offsets and the arcs, and reads the arrays without keeping
    them.
    @raise Invalid_argument when [n < 0], when [len] is outside
    [\[0, min (length us) (length vs)\]], or when an endpoint among the
    first [len] pairs is outside [0..n-1]. *)

val of_edges : n:int -> (int * int) array -> t
(** [of_edges ~n edges] is {!of_edge_arrays} over the pairs of [edges],
    for callers that already hold a pair array.
    @raise Invalid_argument ["Graph.of_edges: …"] as {!of_edge_arrays}
    does. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of (undirected) edges. *)

val degree : t -> int -> int

val iter_neighbors : t -> int -> (int -> unit) -> unit
val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val mem_edge : t -> int -> int -> bool
(** O(log degree) adjacency test. *)

val find_arc : t -> int -> int -> int
(** [find_arc t u v] is the index of the arc [u -> v] in {!csr_adj} (so
    [off.(u) <= i < off.(u+1)]), or [-1] when [uv] is not an edge or an
    endpoint is out of range. O(log degree). Arc indices key per-arc
    data such as business-relation labels. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Each undirected edge exactly once, with [u < v]. *)

val degrees_into : t -> int array -> unit
(** Write every vertex degree into the first [n] slots of a caller-owned
    buffer, for callers that reuse a scratch array.
    @raise Invalid_argument when the buffer is shorter than [n]. *)

val arcs : t -> int
(** Number of directed arcs, i.e. [2 * m t]; O(1). *)

val equal : t -> t -> bool
(** Structural equality of the CSR arrays. Because construction
    canonicalizes segments (sorted, duplicate- and self-loop-free), two
    graphs are [equal] iff they have the same vertex count and edge set —
    and then their CSR arrays are bitwise identical. *)

val csr_off : t -> int array
(** The CSR offset array (length [n+1]): vertex [u]'s neighbors occupy
    [csr_adj] indices [csr_off.(u) .. csr_off.(u+1) - 1]. Read-only view of
    the graph's own storage — callers must not mutate it. This is the
    zero-overhead access path for tight traversal kernels ({!View.of_graph},
    which {!Msbfs.run} reads, and {!Projected.project}); everything else
    should go through {!iter_neighbors}. *)

val csr_adj : t -> int array
(** The CSR adjacency array paired with {!csr_off}. Read-only. *)

val of_csr_unchecked : n:int -> off:int array -> adj:int array -> t
(** Wrap a prebuilt CSR without re-sorting or deduplicating. The caller
    promises the invariants {!of_edge_arrays} establishes: [off] has
    length [n+1] with [off.(0) = 0] and [off.(n) = Array.length adj]
    (checked), and each segment is sorted, duplicate-free, self-loop-free
    and symmetric (trusted). The arrays are owned by the result — do not
    mutate them afterwards. Used by {!Projected.project}, whose filtering
    preserves all of these properties from its (already valid) source. *)
