(** Text backend for {!Report}: reproduces the historical terminal output
    byte for byte (verified against captured seed output in
    [test/goldens/text/] and by the CI golden job).

    Rendering rules: a 72-[=] banner per section; tables through
    {!Broker_util.Table.render} with cells formatted by
    {!Report.cell_text}; notes and metric display strings verbatim; silent
    metrics and series emit nothing. *)

val render : Report.t -> string
val pp : Format.formatter -> Report.t -> unit

val print : Report.t -> unit
(** Render to {!Format.std_formatter}. *)

val flush : unit -> unit
(** Flush {!Format.std_formatter} (called between experiments so
    channel- and formatter-level output interleave correctly). *)
