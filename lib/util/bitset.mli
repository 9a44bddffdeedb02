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

val is_empty : t -> bool [@@brokercheck.test_only]

val clear : t -> unit [@@brokercheck.test_only]
(** Remove all members. *)

val copy : t -> t [@@brokercheck.test_only]

val iter : (int -> unit) -> t -> unit
(** Iterate members in increasing order. *)

val to_list : t -> int list [@@brokercheck.test_only]
val of_list : int -> int list -> t [@@brokercheck.test_only]

val union_into : into:t -> t -> unit [@@brokercheck.test_only]
(** [union_into ~into s] adds every member of [s] to [into]. Capacities must
    match. *)

val inter_cardinal : t -> t -> int [@@brokercheck.test_only]
(** Size of the intersection; capacities must match. *)

(** {1 Word-level access}

    The packed representation itself, for word-parallel kernels (the
    MS-BFS engine packs one BFS lane per bit and advances all of them
    with word ops) and for counting without per-bit loops. *)

val bits_per_word : int
(** Bits packed per word: 63 (OCaml native ints). Member [i] lives in
    word [i / bits_per_word] at bit [i mod bits_per_word]. *)

val popcount : int -> int
(** Set bits in one word, over the full 63-bit pattern (sign bit
    included — [popcount (-1) = 63]). Branch-free SWAR, constant time;
    the building block of every per-level tally in the MS-BFS engine. *)

val num_words : t -> int [@@brokercheck.test_only]
(** Words backing the set ([capacity]-derived, never 0). *)

val word : t -> int -> int [@@brokercheck.test_only]
(** [word t w]: the [w]-th packed word.
    @raise Invalid_argument outside [0 .. num_words t - 1]. *)

val unsafe_word : t -> int -> int [@@brokercheck.test_only]
(** {!word} without the bounds check; same contract as {!unsafe_mem}. *)
