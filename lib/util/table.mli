(** Aligned plain-text tables: pure row/column data plus a string
    renderer.

    Every table/figure reproduction renders through this module (via the
    [Broker_report.Report_text] backend) so the bench output is uniform
    and diffable. *)

type align = Left | Right

type t

val create : headers:string list -> t
(** A table with the given column headers; alignment defaults to [Right] for
    cells that parse as numbers, [Left] otherwise. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument when the arity differs from the headers. *)

val add_rule : t -> unit
(** Insert a horizontal separator at this position. *)

val render : t -> string
(** The formatted table, newline terminated. *)
