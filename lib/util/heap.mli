(** Resizable binary heap of [int] payloads keyed by [float] priorities.

    The heap does not support in-place decrease-key; algorithms that need it
    (Dijkstra, CELF lazy greedy) push duplicates and discard stale entries on
    pop, which is asymptotically equivalent and much simpler. *)

type order = Min | Max

type t

val create : ?initial_capacity:int -> order -> t

val push : t -> priority:float -> int -> unit

val pop : t -> (float * int) option
(** Remove and return the best entry: smallest priority for [Min], largest for
    [Max]. *)
