(** Mergeable log-bucketed quantile sketch with HDR-style sub-bucket
    resolution.

    A sketch is a fixed array of [int Atomic.t] cells indexed by a
    two-level scheme over non-negative integers (negative values clamp
    to cell 0):

    - values below [2^sub_bits] land in their own cell (exact);
    - a value [v >= 2^sub_bits] with highest set bit [k] lands in one of
      [2^sub_bits] equal-width sub-cells of the octave [[2^k, 2^(k+1))],
      each of width [2^(k - sub_bits)].

    {b Error bound.} {!quantile} returns the lower bound [l] of the cell
    holding the selected rank, so the true sample [v] at that rank
    satisfies [l <= v < l * (1 + 2^-sub_bits)] — a one-sided relative
    error below [2^-sub_bits] (3.125% at the default [sub_bits = 5]),
    and exact (zero error) for values below [2^sub_bits]. The bound is
    immediate from the cell widths above: a cell starting at
    [l >= 2^k] has width [2^(k - sub_bits) <= l * 2^-sub_bits].

    {b Determinism.} Cells are [int Atomic.t] and every update is a
    fetch-and-add, so concurrent recording from any number of domains
    commutes: totals are bitwise identical for every [REPRO_DOMAINS]
    setting. {!merge} is cellwise addition, hence commutative and
    associative — merging per-window or per-domain sketches in any
    order yields the same cells.

    {b Cost.} {!record} is allocation-free (checked
    [@brokercheck.noalloc]): a branch-free bit-length computation, one
    cell index, one atomic fetch-and-add. [sub_bits = 0] degenerates to
    the 63-bucket power-of-two histogram {!Metrics} exposes. *)

type t

val create : ?sub_bits:int -> unit -> t
(** A fresh sketch of [(63 - sub_bits) * 2^sub_bits] zero cells
    ([sub_bits] defaults to 5: 32 sub-cells per octave, relative error
    below 1/32).
    @raise Invalid_argument if [sub_bits] is outside [0 .. 8]. *)

val cells : t -> int [@@brokercheck.test_only]
(** Number of cells (fixed at creation). *)

val record : t -> int -> unit
(** Count one observation of [v] (clamped to 0 when negative).
    Allocation-free and safe from any domain. *)

val count : t -> int [@@brokercheck.test_only]
(** Total observations recorded (cell sum; reads are atomic per cell
    but not across cells — take totals after parallel work joins). *)

val index : t -> int -> int [@@brokercheck.test_only]
(** The cell {!record} files [v] under (exposed for tests). At
    [sub_bits = 0] this is 0 for [v <= 0], otherwise the position of the
    highest set bit plus one. *)

val lower_bound : t -> int -> int [@@brokercheck.test_only]
(** Smallest value filed under cell [i] — the value {!quantile}
    reports for a rank landing in that cell. *)

val quantile : t -> float -> int
(** [quantile t q] selects rank [round (q * (count - 1))] (clamped to
    [0 .. count-1]) in the recorded multiset and returns the
    {!lower_bound} of its cell — see the error bound above. Returns 0
    on an empty sketch.
    @raise Invalid_argument if [q] is outside [0, 1]. *)

val merge : into:t -> t -> unit
(** Cellwise [into += src]; commutative and associative. [src] is
    unchanged.
    @raise Invalid_argument if the shapes ([sub_bits]) differ. *)

val counts : t -> int array
(** Per-cell observation counts (a fresh snapshot array). *)

val reset : t -> unit
(** Zero every cell. *)
