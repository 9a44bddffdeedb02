(** Topology persistence and dataset summaries (paper Table 2). *)

type summary = {
  ixps : int;
  ases : int;
  max_connected_subgraph : int;
  as_as_connections : int;
  as_ixp_connections : int;
  ixp_connected_fraction : float;
}

val summarize : Topology.t -> summary

val pp_summary : Format.formatter -> summary -> unit

val save : out_channel -> Topology.t -> unit
(** Write the topology to [oc]. Plain-text format: a header line
    [brokerset-topology 1 n m], then one node line [n v kind tier name]
    per vertex and one edge line [e u v rel] per edge. [rel] is read from [u]: [cp] ([u] is the
    customer), [pc] ([u] is the provider), [pp] (peering), [im] (IXP
    membership, one endpoint an IXP) or [--] (no relation). *)

val load : path:string -> Topology.t
(** Inverse of [save].
    @raise Sys_error when the file cannot be read.
    @raise Invalid_argument ["Dataset.load: <path>:<line>: <what>"] on a
    malformed dataset: a bad header, a non-integer field, a node id or
    edge endpoint outside [0 .. n-1], a node-line count other than [n]
    or a node listed twice, an edge-line count other than [m], a
    self-loop, an edge listed twice (in either orientation), an unknown
    kind or relation code, an [im] edge with no IXP endpoint, or any
    other malformed line. *)
