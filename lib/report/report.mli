(** Typed report IR for the experiment harness.

    Every experiment builds and returns a {!t} — named sections holding
    tables with typed columns, scalar metrics with stable dotted keys,
    [(k, value)] series, and free-text notes — instead of printing.
    Rendering is a separate backend concern: {!Report_text} reproduces the
    historical terminal output byte for byte, {!Report_json} emits the
    schema-versioned machine artifact ([brokerset-report/1]), and
    {!Report_csv} one file per table/series. {!Report_diff} compares two
    reports numerically and powers the CI regression gate.

    Invariants:
    - metric/series/table keys are dotted, stable across runs, and unique
      within a report (enforced: duplicate keys raise [Invalid_argument]);
    - cells carry both the typed value and the formatting contract
      (decimals), so text rendering is reproducible;
    - values measured off the wall clock (timings) are flagged [volatile]:
      rendered in text, excluded from {!Report_diff} comparison. *)

type t
type section
type table

type cell
(** A typed table cell. *)

type column = { title : string; unit_ : string option }

type trow = Row of cell list | Rule

type metric = {
  mkey : string;
  value : float;
  munit : string option;
  mvolatile : bool;
  display : string option;
      (** Exact text line(s) the text renderer emits; [None] = silent
          (machine-only) metric. *)
}

type series = {
  skey : string;
  x_label : string;
  y_label : string;
  points : (float * float) array;
}

type item =
  | Table of table
  | Note of string  (** free text, rendered verbatim *)
  | Metric of metric
  | Series of series  (** machine-only: not rendered as text *)

(** {1 Building} *)

val create : ?meta:(string * float) list -> name:string -> unit -> t
(** A fresh empty report. [name] keys the artifact files and must match the
    registry id. @raise Invalid_argument on an empty name. *)

val name : t -> string
val meta : t -> (string * float) list
val set_meta : t -> (string * float) list -> unit
(** Run parameters (scale/sources/seed), attached by the registry runner. *)

val section : t -> string -> section
(** Append a section (its banner in text output) and return it. *)

val note : section -> string -> unit
val notef : section -> ('a, unit, string, unit) format4 -> 'a
(** Append free text, [Printf]-style. The string is rendered verbatim —
    include the trailing newline, exactly as the old [Ctx.printf] calls. *)

val metric :
  section -> key:string -> ?unit:string -> ?volatile:bool -> float -> unit
(** A silent (machine-only) scalar with a stable dotted key. *)

val metricf :
  section ->
  key:string ->
  ?unit:string ->
  ?volatile:bool ->
  float ->
  ('a, unit, string, unit) format4 ->
  'a
(** A scalar plus its exact text rendering (replaces a [Ctx.printf] line
    that carried one headline number). *)

val series :
  section -> key:string -> ?x:string -> ?y:string -> (float * float) array -> unit
(** A [(k, value)] curve. [x]/[y] label the CSV columns (defaults ["k"],
    ["value"]). The points array is copied. *)

val col : ?unit:string -> string -> column

val table : section -> ?key:string -> columns:column list -> unit -> table
(** Append a table ([key] defaults to ["main"]; must be unique within the
    report). *)

val row : table -> cell list -> unit
(** @raise Invalid_argument when the arity differs from the columns. *)

val rule : table -> unit
(** Horizontal separator at this position. *)

(** {1 Cells}

    Constructors mirror [Broker_util.Table.cell_*] so text rendering is
    byte-identical to the historical output. *)

val int : int -> cell
val float : ?decimals:int -> float -> cell
(** Rendered ["%.*f"], [decimals] defaults to 2. *)

val pct : ?decimals:int -> float -> cell
(** A fraction, rendered ["%.*f%%"] of [100 x]; the typed value stays the
    fraction. [decimals] defaults to 2. *)

val str : string -> cell
val strf : ('a, unit, string, cell) format4 -> 'a

val seconds : ?decimals:int -> float -> cell
(** A wall-clock measurement: rendered like {!float} ([decimals] defaults
    to 3) but flagged volatile, so {!Report_diff} ignores it. *)

(** {1 Reading (for renderers)} *)

val sections : t -> section list
val section_title : section -> string
val items : section -> item list
val rows : table -> trow list
val table_key : table -> string
val columns : table -> column list
val cell_text : cell -> string
(** The exact string the text renderer prints for a cell. *)

val cell_value : cell -> float option
(** The typed numeric value ([Pct] yields the fraction), [None] for
    strings. *)

val cell_volatile : cell -> bool
val cell_decimals : cell -> int option

val equal : t -> t -> bool [@@brokercheck.test_only]
(** Structural equality; NaN equals NaN (round-trip tests). *)
