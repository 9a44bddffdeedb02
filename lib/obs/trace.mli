(** Nestable named spans and counter samples in a preallocated ring,
    dumped as Chrome trace-event JSON (loadable in Perfetto /
    [chrome://tracing]).

    Tracing is independent of the metrics flag: it is active only after
    {!arm}, which preallocates the global ring. Recording a span is two
    monotonic clock reads plus one atomic slot reservation — no
    allocation on the hot path, safe from any domain. When the ring
    wraps, the oldest events are overwritten ({!dropped} counts them).

    Spans nest naturally: the Chrome "X" (complete) event carries start
    and duration, and the viewer reconstructs the stack per thread from
    overlap, so no enter/exit pairing state is kept here. *)

type scope
(** An interned span/counter name. Intern once at module-init time
    ([let t_run = Trace.scope "bfs.run"]); interning takes a lock,
    recording never does. *)

val scope : string -> scope

val arm : ?capacity:int -> unit -> unit
(** Allocate the ring ([capacity] rounded up to a power of two,
    default 65536 events) and start recording. No-op when
    {!Control.available} is [false]. *)

val disarm : unit -> unit
(** Stop recording and release the ring. *)

val armed : unit -> bool

val enter : unit -> int
(** Start a span: the current timestamp, or 0 when not armed. *)

val leave : scope -> int -> unit
(** [leave sc t0] completes the span opened by {!enter} as [sc]. *)

val leave_named : string -> int -> unit
(** {!leave} with a dynamic name (interned per call — fine for
    per-experiment spans, not for per-edge work). *)

val with_span : scope -> (unit -> 'a) -> 'a
(** Run a thunk inside a span; the span closes on exception too. *)

val sample : scope -> int -> unit
(** Record an instantaneous counter value (a Chrome "C" event), e.g.
    the BFS frontier size at each level. *)

val recorded : unit -> int
(** Events currently held (at most the ring capacity). *)

val dropped : unit -> int
(** Events lost to ring wraparound since {!arm}/{!reset}. *)

val publish_dropped : unit -> unit
(** Push {!dropped} into the volatile [trace.dropped] gauge so the
    next {!Metrics.snapshot} (hence [--obs-summary] and the metrics
    artifact) surfaces silent ring truncation. {!write} calls it
    automatically; call it yourself before snapshotting when the trace
    is kept in memory. *)

val to_chrome_json : unit -> string
(** The trace as a JSON object: [{"traceEvents": [...], ...}] with
    per-domain [tid]s, thread-name metadata, and microsecond
    timestamps normalized to the earliest event. *)

val write : path:string -> bool
(** Write {!to_chrome_json} to [path]; returns [false] (and creates no
    file) when not armed or nothing was recorded. *)
