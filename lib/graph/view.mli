(** Read-only adjacency views: one API over a bare CSR or a CSR with a
    sparse delta overlay.

    Every traversal kernel ({!Msbfs.run_view}, {!Projected.project},
    [Dominating.find_dominated_path_view])
    consumes a view, so dynamic-topology callers pay for the overlay
    only on the vertices it actually touched. {!of_graph} is O(1) and
    allocation is a single record, which keeps the [Graph.t] wrappers of
    those kernels zero-cost on the static path.

    A view is a snapshot: it stays valid until the {!Delta} it came from
    is next mutated. The record is exposed (not abstract) so kernels can
    select a vertex's segment inline — two array reads and a branch —
    without closures; treat every field as read-only. *)

type t = {
  n : int;
  arcs : int;  (** directed arc count of the viewed graph *)
  off : int array;  (** base CSR offsets *)
  adj : int array;  (** base CSR adjacency *)
  overlaid : bool;  (** false: base arrays only, override arrays empty *)
  dirty : bool array;  (** [dirty.(u)]: read [u]'s segment from the override *)
  xoff : int array;  (** override offsets (length [n+1]); clean vertices
                          get 0-length segments *)
  xadj : int array;  (** override adjacency, sorted per segment *)
}

val of_graph : Graph.t -> t
(** O(1) base view sharing the graph's own CSR arrays. *)

val n : t -> int [@@brokercheck.test_only]
val arcs : t -> int [@@brokercheck.test_only]
(** Directed arcs, i.e. [2 *] edge count; O(1). *)

val degree : t -> int -> int [@@brokercheck.test_only]
val iter_neighbors : t -> int -> (int -> unit) -> unit [@@brokercheck.test_only]
val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a [@@brokercheck.test_only]

val mem_edge : t -> int -> int -> bool
(** O(log degree) adjacency test against the effective segment. *)
