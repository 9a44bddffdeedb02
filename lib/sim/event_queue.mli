(** Time-ordered event queue for the discrete-event simulator. Ties are
    served in insertion order (stable), which keeps runs deterministic:
    events leave in increasing (time, insertion sequence), a total order
    because NaN times are refused. Serving the queue allocates nothing:
    {!min_time} reads the root and {!take} returns the payload alone. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument on a NaN [time]: it would compare false with
    every other time, stop at the root and block every event behind
    it. *)

val length : 'a t -> int
(** Number of queued events. *)

val min_time : 'a t -> float
(** Time of the earliest event.
    @raise Invalid_argument on an empty queue. *)

val take : 'a t -> 'a
(** Remove the earliest event and return its payload; read its time
    with {!min_time} first.
    @raise Invalid_argument on an empty queue. *)

val max_length : 'a t -> int
(** High-water mark: the largest number of queued events since creation
    or the last {!clear} (O(1); taking never lowers it). Feeds the
    simulator's [sim.queue.max_depth] gauge. *)

val clear : 'a t -> unit
(** Empty the queue and release the backing storage (so large drained
    queues do not pin their peak capacity — or any taken payload — in
    memory). The queue remains usable; the insertion-sequence counter
    and the {!max_length} high-water mark restart. *)
