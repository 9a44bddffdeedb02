(** Time-ordered event queue for the discrete-event simulator. Ties are
    served in insertion order (stable), which keeps runs deterministic. *)

type 'a t

val create : unit -> 'a t
val add : 'a t -> time:float -> 'a -> unit
val pop : 'a t -> (float * 'a) option
(** Earliest event, or [None] when empty. *)

val peek_time : 'a t -> float option

val max_length : 'a t -> int
(** High-water mark: the largest number of queued events since creation
    or the last {!clear} (O(1); popping never lowers it). Feeds the
    simulator's [sim.queue.max_depth] gauge. *)

val clear : 'a t -> unit
(** Empty the queue and release the backing storage (so large drained
    queues do not pin their peak capacity — or any popped payload — in
    memory). The queue remains usable; the insertion-sequence counter
    and the {!max_length} high-water mark restart. *)
