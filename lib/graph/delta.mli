(** Mutable announce/withdraw overlay over an immutable CSR graph.

    A [Delta.t] records an edge-set diff against a {!Graph.t} base:
    withdrawals of base edges become tombstone bits over base arc
    positions, announcements of new edges live in per-vertex sorted
    arrays. Reads go through {!view} — an O(dirty) materialized
    {!View.t} every traversal kernel accepts — and {!compact} folds the
    diff into a fresh canonical CSR that is bitwise-equal to a
    [Graph.of_edges] rebuild of the same edge set.

    Invariants: effective segments stay sorted, duplicate- and
    self-loop-free; [added] never overlaps the live base segment
    (re-announcing a withdrawn base edge clears its tombstone instead).
    Single-writer: mutation is not domain-safe, but views are immutable
    snapshots — they stay correct pictures of the edge set they were
    built from even after the delta mutates on, and are safe to read
    from parallel workers. *)

type t

val create : Graph.t -> t
(** Empty diff over [base]; O(n). *)

val add_edge : t -> int -> int -> bool
(** Announce edge [(u, v)]. Returns [true] iff the edge set changed —
    self-loops and already-present edges are no-ops. @raise
    Invalid_argument when an endpoint is out of range. *)

val remove_edge : t -> int -> int -> bool
(** Withdraw edge [(u, v)]; [true] iff the edge set changed. *)

val mem_edge : t -> int -> int -> bool [@@brokercheck.test_only]
(** Effective adjacency test (base minus withdrawals plus announces). *)

val degree : t -> int -> int [@@brokercheck.test_only]
(** Effective degree; O(1). *)

val edges : t -> int [@@brokercheck.test_only]
(** Effective undirected edge count; O(1). *)

val arcs : t -> int [@@brokercheck.test_only]
(** Effective directed arc count; O(1). *)

val view : t -> View.t
(** Read view of the effective graph: O(1) when the diff is empty
    (cancelled out), otherwise O(n + dirty segments) to materialize the
    override — memoized until the next mutation. The returned view is an
    immutable snapshot of the current edge set. *)

val compact : Graph.t -> t -> Graph.t
(** [compact base t] folds the diff into a fresh CSR. The result is
    bitwise-equal ({!Graph.equal}) to [Graph.of_edges] on the effective
    edge set. @raise Invalid_argument when [base] is not the graph the
    delta was created over. *)
