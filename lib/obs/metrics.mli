(** Named counters, high-water gauges, and log-bucketed histograms.

    Instruments register once at module-init time (registration is
    idempotent by name) and update through probes that are a single
    inlined {!Control.enabled} check followed by an atomic
    read-modify-write. All cells are [int Atomic.t]: updates commute, so
    totals are bit-identical for every [REPRO_DOMAINS] setting — the
    property that makes the snapshot diffable run-to-run.

    Taxonomy: a metric registered with [~volatile:true] carries
    wall-clock or scheduling-dependent data (worker nanoseconds, GC
    words); it renders in reports via the volatile [Report.seconds]
    convention and is excluded from [report diff]. Everything else must
    be deterministic for a fixed seed/scale — counters like edges
    relaxed, CELF lazy hits, or simulator events popped by kind. *)

type counter
type gauge
type histogram

val counter : ?volatile:bool -> string -> counter
(** Register (or re-obtain) the counter named [name].
    @raise Invalid_argument if [name] is already registered with a
    different kind or volatility. *)

val gauge : ?volatile:bool -> string -> gauge
(** A high-water gauge: {!gauge_max} keeps the maximum observed value. *)

val histogram : string -> histogram
(** Deterministic log-bucketed histogram with 63 fixed bins: bucket 0
    holds values [<= 0], bucket [i >= 1] holds [2^(i-1) .. 2^i - 1], and
    the last bucket absorbs everything larger. Internally a {!Sketch}
    at [sub_bits = 0] — the same bucketing implementation the
    {!Timeseries} latency windows use at finer resolution. *)

val add : counter -> int -> unit
val incr : counter -> unit

val gauge_max : gauge -> int -> unit
(** Raise the gauge to [v] if [v] exceeds the current maximum
    (lock-free CAS loop; max is commutative). *)

val observe : histogram -> int -> unit

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge_max of int
  | Histogram of int array  (** per-bucket observation counts *)

type entry = { name : string; volatile : bool; value : value }

type snapshot = entry list
(** Sorted by [name]. *)

val snapshot : unit -> snapshot
(** Read every registered instrument. Take it after parallel work has
    joined; reads are atomic per cell but not across cells. *)

val deterministic : snapshot -> snapshot
(** Only the entries that must replay bit-for-bit from the seed. *)

val find : snapshot -> string -> entry option
val reset : unit -> unit
(** Zero every registered instrument (registrations persist). *)
