(** Fixed-capacity bit sets over the integers [0 .. capacity-1].

    Used pervasively for broker sets and coverage bookkeeping where the
    universe is the vertex set of a graph. *)

type t

val create : int -> t
(** [create n] is the empty set over universe size [n]. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val unsafe_mem : t -> int -> bool
(** {!mem} without the bounds check — for hot inner loops whose index is
    already known to be in [0 .. capacity-1] (e.g. a CSR neighbor id). Out
    of range is undefined behavior. *)

val cardinal : t -> int
(** Number of members; O(words). *)

val iter : (int -> unit) -> t -> unit
(** Iterate members in increasing order. *)

(** {1 Word layout}

    The packing, for word-parallel kernels (the MS-BFS engine packs one
    BFS lane per bit and advances all of them with word ops) and for
    counting without per-bit loops. *)

val bits_per_word : int
(** Bits packed per word: 63 (OCaml native ints). Member [i] lives in
    word [i / bits_per_word] at bit [i mod bits_per_word]. *)

val popcount : int -> int
(** Set bits in one word, over the full 63-bit pattern (sign bit
    included — [popcount (-1) = 63]). Branch-free SWAR, constant time;
    the building block of every per-level tally in the MS-BFS engine. *)
