(** The project clock: monotonic, allocation-free, and the only
    sanctioned way to read time outside [bench/].

    brokercheck rule R8 ([clock-discipline]) bans [Unix.gettimeofday] and
    [Sys.time] everywhere but [lib/obs/] and [bench/]; code that wants a
    duration calls {!time} (or {!now_ns} pairs) so the wall-clock value
    flows through the obs layer and stays flagged volatile in reports.

    The clock works regardless of {!Control.enabled} — timing an
    ablation is not instrumentation, it is the measurement itself. *)

val monotonic_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds (a C primitive, no allocation).
    Only differences are meaningful; the epoch is unspecified. *)

val now_ns : unit -> int
(** Alias for {!monotonic_ns}. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result with the elapsed
    monotonic wall-clock in seconds. Report such values with
    [Report.seconds] / [~volatile:true] so they never gate a diff. *)
