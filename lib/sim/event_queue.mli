(** Time-ordered event queue for the discrete-event simulator. Ties are
    served in insertion order (stable), which keeps runs deterministic. *)

type 'a t

val create : unit -> 'a t
val add : 'a t -> time:float -> 'a -> unit
val pop : 'a t -> (float * 'a) option
(** Earliest event, or [None] when empty. *)

val peek_time : 'a t -> float option
val size : 'a t -> int [@@brokercheck.test_only]

val length : 'a t -> int [@@brokercheck.test_only]
(** Alias for {!size} (O(1)). *)

val max_length : 'a t -> int
(** High-water mark: the largest {!length} ever reached since creation
    or the last {!clear} (O(1); popping never lowers it). Feeds the
    simulator's [sim.queue.max_depth] gauge. *)

val is_empty : 'a t -> bool [@@brokercheck.test_only]

val clear : 'a t -> unit
(** Empty the queue and release the backing storage (so large drained
    queues do not pin their peak capacity — or any popped payload — in
    memory). The queue remains usable; the insertion-sequence counter
    and the {!max_length} high-water mark restart. *)
