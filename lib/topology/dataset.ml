module G = Broker_graph.Graph

type summary = {
  ixps : int;
  ases : int;
  max_connected_subgraph : int;
  as_as_connections : int;
  as_ixp_connections : int;
  ixp_connected_fraction : float;
}

let summarize t =
  let comps = Broker_graph.Components.compute t.Topology.graph in
  let _, largest = Broker_graph.Components.largest comps in
  {
    ixps = Topology.count_kind t Node_meta.Ixp;
    ases = Topology.n t - Topology.count_kind t Node_meta.Ixp;
    max_connected_subgraph = largest;
    as_as_connections = Topology.as_as_edges t;
    as_ixp_connections = Topology.as_ixp_edges t;
    ixp_connected_fraction = Topology.ixp_connected_fraction t;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>IXPs: %d@,ASes: %d@,Max connected subgraph: %d@,AS-AS connections: %d@,AS-IXP connections: %d@,ASes with IXP membership: %.1f%%@]"
    s.ixps s.ases s.max_connected_subgraph s.as_as_connections
    s.as_ixp_connections
    (100.0 *. s.ixp_connected_fraction)

let kind_code = function
  | Node_meta.Tier1 -> "t1"
  | Node_meta.Transit -> "tr"
  | Node_meta.Access -> "ac"
  | Node_meta.Content -> "co"
  | Node_meta.Enterprise -> "en"
  | Node_meta.Ixp -> "ix"

let kind_of_code = function
  | "t1" -> Some Node_meta.Tier1
  | "tr" -> Some Node_meta.Transit
  | "ac" -> Some Node_meta.Access
  | "co" -> Some Node_meta.Content
  | "en" -> Some Node_meta.Enterprise
  | "ix" -> Some Node_meta.Ixp
  | _ -> None

(* Edge codes, read from the line's first endpoint. *)
let label_of_code = function
  | "cp" -> Some Relations.Up
  | "pc" -> Some Relations.Down
  | "pp" -> Some Relations.Peer
  | "im" -> Some Relations.Ixp_member
  | "--" -> Some Relations.Unlabelled
  | _ -> None

let save oc t =
  let n = Topology.n t in
  Printf.fprintf oc "brokerset-topology 1 %d %d\n" n (G.m t.Topology.graph);
  for v = 0 to n - 1 do
    Printf.fprintf oc "n %d %s %d %s\n" v
      (kind_code t.Topology.kinds.(v))
      t.Topology.tiers.(v) t.Topology.names.(v)
  done;
  G.iter_edges t.Topology.graph (fun u v ->
      let rel =
        match Relations.find t.Topology.relations u v with
        | Some Node_meta.Customer_provider ->
            if Relations.customer_of t.Topology.relations u v then "cp" else "pc"
        | Some Node_meta.Peer -> "pp"
        | Some Node_meta.Ixp_member -> "im"
        | None -> "--"
      in
      Printf.fprintf oc "e %d %d %s\n" u v rel)

(* Lines are read before anything is sized from the header, so a header
   that overstates n or m fails on the line count instead of allocating
   what it claims. *)
let load ~path =
  In_channel.with_open_text path (fun ic ->
      let line = ref 0 in
      let bad fmt =
        Printf.ksprintf
          (fun what ->
            invalid_arg (Printf.sprintf "Dataset.load: %s:%d: %s" path !line what))
          fmt
      in
      let next () =
        match In_channel.input_line ic with
        | Some l ->
            incr line;
            Some l
        | None -> None
      in
      let int_field s =
        match int_of_string_opt s with Some x -> x | None -> bad "not an integer: %S" s
      in
      let n, m =
        let header = match next () with Some h -> h | None -> "" in
        line := 1;
        match String.split_on_char ' ' header with
        | [ "brokerset-topology"; "1"; n; m ] -> (
            match (int_of_string_opt n, int_of_string_opt m) with
            | Some n, Some m when n >= 0 && m >= 0 -> (n, m)
            | _ -> bad "bad header")
        | _ -> bad "bad header"
      in
      let vertex what s =
        let v = int_field s in
        if v < 0 || v >= n then bad "%s %d out of range [0, %d)" what v n;
        v
      in
      let nodes = ref [] and n_nodes = ref 0 in
      let edges = ref [] and n_edges = ref 0 in
      let rec read () =
        match next () with
        | None -> ()
        | Some l ->
            (match String.split_on_char ' ' l with
            | "n" :: v :: kind :: tier :: name_parts ->
                let v = vertex "node id" v in
                let kind =
                  match kind_of_code kind with Some k -> k | None -> bad "unknown kind %S" kind
                in
                let tier = int_field tier in
                if !n_nodes = n then bad "more node lines than the header's %d" n;
                incr n_nodes;
                nodes := (v, kind, tier, String.concat " " name_parts, !line) :: !nodes
            | [ "e"; u; v; rel ] ->
                let u = vertex "edge endpoint" u in
                let v = vertex "edge endpoint" v in
                if u = v then bad "self-loop on %d" u;
                let label =
                  match label_of_code rel with
                  | Some l -> l
                  | None -> bad "unknown relation %S" rel
                in
                if !n_edges = m then bad "more edge lines than the header's %d" m;
                incr n_edges;
                edges := (u, v, label, !line) :: !edges
            | [] | [ "" ] -> ()
            | _ -> bad "malformed line");
            read ()
      in
      read ();
      if !n_nodes <> n then bad "%d node lines, the header declares %d" !n_nodes n;
      if !n_edges <> m then bad "%d edge lines, the header declares %d" !n_edges m;
      let kinds = Array.make n Node_meta.Enterprise in
      let tiers = Array.make n 3 in
      let names = Array.make n "" in
      let listed = Array.make n false in
      List.iter
        (fun (v, kind, tier, name, at) ->
          line := at;
          if listed.(v) then bad "node %d listed twice" v;
          listed.(v) <- true;
          kinds.(v) <- kind;
          tiers.(v) <- tier;
          names.(v) <- name)
        (List.rev !nodes);
      let edges = Array.of_list (List.rev !edges) in
      let graph =
        G.of_edge_arrays ~n ~len:m
          (Array.map (fun (u, _, _, _) -> u) edges)
          (Array.map (fun (_, v, _, _) -> v) edges)
      in
      let relations = Relations.create graph in
      let is_ixp v = Node_meta.kind_equal kinds.(v) Node_meta.Ixp in
      let seen = Broker_util.Bitset.create (G.arcs graph) in
      Array.iter
        (fun (u, v, label, at) ->
          line := at;
          let i = G.find_arc graph (Int.min u v) (Int.max u v) in
          if Broker_util.Bitset.mem seen i then bad "edge (%d, %d) listed twice" u v;
          Broker_util.Bitset.add seen i;
          match label with
          | Relations.Up -> Relations.add_c2p relations ~customer:u ~provider:v
          | Relations.Down -> Relations.add_c2p relations ~customer:v ~provider:u
          | Relations.Peer -> Relations.add_peer relations u v
          | Relations.Ixp_member ->
              if is_ixp v then Relations.add_ixp_member relations ~as_node:u ~ixp:v
              else if is_ixp u then Relations.add_ixp_member relations ~as_node:v ~ixp:u
              else bad "im edge (%d, %d) has no IXP endpoint" u v
          | Relations.Unlabelled -> ())
        edges;
      { Topology.graph; kinds; tiers; names; relations })
