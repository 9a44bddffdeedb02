(** Incremental state for the coverage function [f(B) = |B ∪ N(B)|]
    (Problem 2/3 of the paper).

    [f] is submodular and nondecreasing (Lemma 3), which the greedy
    algorithms exploit; this module provides O(deg) marginal-gain queries
    and O(deg) insertion. *)

type t

val create : Broker_graph.Graph.t -> t
(** Empty broker set over the graph. *)

val graph : t -> Broker_graph.Graph.t

val f : t -> int
(** Current coverage value [|B ∪ N(B)|]. *)

val size : t -> int
(** [|B|]. *)

val brokers : t -> int array
(** Brokers in insertion order (fresh array, O(|B|)). *)

val is_broker : t -> int -> bool
val is_covered : t -> int -> bool
(** Member of [B ∪ N(B)]. *)

val covered : t -> Broker_util.Bitset.t
(** The covered set itself (not a copy — do not mutate). *)

val gain : t -> int -> int
(** [gain t v] = [f (B ∪ {v}) - f B], i.e. uncovered vertices in the closed
    neighbourhood of [v]. O(deg v). *)

val gains_into : t -> int array -> lo:int -> len:int -> int array -> unit
(** [gains_into t cands ~lo ~len out] evaluates
    [gain t cands.(lo + b)] for each [b < len] into [out.(b)], riding the
    bit-parallel MS-BFS kernel ({!Broker_graph.Msbfs}): one depth-1
    batch settles every candidate's closed neighbourhood word-parallel,
    and per-lane uncovered counts are the gains — identical to calling
    {!gain} per candidate. [len] at most [Broker_graph.Msbfs.lanes];
    entries of [out] beyond [len] are untouched. *)

val add : t -> int -> unit
(** Add a broker. Adding an existing broker is a no-op. *)

val coverage_fraction : t -> float
(** [f B / |V|]. *)
