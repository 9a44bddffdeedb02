(** Named windowed time series keyed on deterministic sim-time.

    A series chops the sim-time axis into fixed-width windows; each
    window holds a count, an integer sum, and (on demand) a {!Sketch}
    of recorded samples. Series register once by name under a mutex —
    like {!Metrics}, registration is idempotent and meant for
    module-init time — and are {e restarted} per run: the window width
    is a run knob (e.g. [brokerctl simulate --stats-window W]), not
    part of the series identity.

    {b Sim-time vs wall-clock.} Windows are keyed on the simulation
    clock, so the resulting [(t, value)] points are deterministic for a
    fixed seed/scale and diff clean through [report diff] — unlike
    {!Trace} timestamps, which are wall-clock and always volatile. When
    the trace ring is armed, each completed window is additionally
    emitted as a Perfetto counter track (a Chrome ["C"] event carrying
    the window sum) at wall-clock flush time.

    {b Fixed-point convention.} Sketches hold integers; latencies
    measured in (float) sim-time are recorded as
    [to_fp latency = round (latency * 1e6)] micro-units and divided
    back by {!of_fp} for reporting. *)

type t

val series : ?window:float -> string -> t
(** Register (or re-obtain) the series named [name]. The width
    ([window], default 1.0 sim-time units) is set at first
    registration; re-obtaining an existing series returns it unchanged
    — use {!restart} to re-window.
    @raise Invalid_argument if [window] is not positive. *)

val name : t -> string

val width : t -> float
(** Current window width in sim-time units. *)

val restart : ?window:float -> t -> unit
(** Drop all recorded windows (and the flush cursor), optionally
    changing the window width. Call at the start of each run. A run's
    windows, sketches included, stay reachable from the global registry
    until the next restart, so a caller that has read what it needs
    should restart the series to release them.
    @raise Invalid_argument if [window] is not positive. *)

val add : t -> time:float -> int -> unit
(** Add [v] to the sum (and bump the count) of the window containing
    [time]. Crossing into a later window than any seen before flushes
    the completed windows to {!Trace} (when armed).
    @raise Invalid_argument if [time] is negative or NaN. *)

val observe : t -> time:float -> int -> unit
(** {!add}, and additionally record [v] into the window's sketch
    (created on first observation, at {!Sketch.create}'s default
    shape). *)

val flush : t -> unit
(** Emit any not-yet-emitted windows (including the last, still-open
    one) as Perfetto counter samples. Call once at end of run. *)

type point = {
  t_start : float;  (** window start in sim-time: index × width *)
  count : int;
  sum : int;
  sketch : Sketch.t option;
      (** the live window sketch — read after the run completes *)
}

val points : t -> point array
(** Dense snapshot from window 0 through the last touched window
    (untouched windows in between yield [count = 0], [sum = 0],
    [sketch = None]); empty when nothing was recorded. *)

val values : t -> (float * float) array
(** [(t_start, sum)] pairs of {!points} — the shape
    [Report.series] takes. *)

val all : unit -> t list
(** Every registered series, sorted by name. *)

(** {1 Fixed-point sim-time} *)

val to_fp : float -> int
(** [round (x * 1e6)], clamped to 0 for negative [x]. *)

val of_fp : int -> float
(** [float v / 1e6]. *)
