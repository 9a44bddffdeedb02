(** JSON backend for {!Report}: the machine artifact consumed by
    [brokerctl report diff] and the CI golden job.

    The document is schema-versioned ([brokerset-report/1]) and emitted
    with a fixed key order, so equal reports serialize to byte-identical
    strings. Floats round-trip exactly; JSON has no non-finite numbers, so
    NaN and infinities are written as the strings ["NaN"] /
    ["Infinity"] / ["-Infinity"] and parse back losslessly. *)

val to_string : Report.t -> string
(** Serialize (stable key order, trailing newline). *)

val of_string : string -> (Report.t, string) result
(** Parse a document produced by {!to_string}. Self-contained
    recursive-descent parser — no external JSON dependency. *)

(** {1 Generic JSON}

    The parser underneath {!of_string}, exposed so other JSON artifacts
    the toolchain emits (notably the Chrome trace files written by
    [Broker_obs.Trace]) can be validated without adding a dependency. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

val json_of_string : string -> (json, string) result
(** Parse any JSON document (trailing garbage is an error). *)
