module G = Broker_graph.Graph

type label = Unlabelled | Up | Down | Peer | Ixp_member

(* Byte [code l] at arc index [i] holds the label of arc [i]; [decode]
   inverts [code]. *)
let code = function
  | Unlabelled -> '\000'
  | Up -> '\001'
  | Down -> '\002'
  | Peer -> '\003'
  | Ixp_member -> '\004'

let decode = [| Unlabelled; Up; Down; Peer; Ixp_member |]

type t = { graph : G.t; labels : Bytes.t }

let create graph = { graph; labels = Bytes.make (G.arcs graph) (code Unlabelled) }
let graph t = t.graph

let set_edge t ~fn u v fwd =
  if u = v then invalid_arg (fn ^ ": self edge");
  let i = G.find_arc t.graph u v in
  if i < 0 then invalid_arg (fn ^ ": not an edge");
  let bwd = match fwd with Up -> Down | Down -> Up | (Unlabelled | Peer | Ixp_member) as l -> l in
  Bytes.set t.labels i (code fwd);
  Bytes.set t.labels (G.find_arc t.graph v u) (code bwd)

let add_c2p t ~customer ~provider = set_edge t ~fn:"Relations.add_c2p" customer provider Up
let add_peer t u v = set_edge t ~fn:"Relations.add_peer" u v Peer

let add_ixp_member t ~as_node ~ixp =
  set_edge t ~fn:"Relations.add_ixp_member" as_node ixp Ixp_member

let arc t i = Array.unsafe_get decode (Char.code (Bytes.get t.labels i))

let remap t g ~old_id =
  let labels = Bytes.make (G.arcs g) (code Unlabelled) in
  let off = G.csr_off g and adj = G.csr_adj g in
  for u = 0 to G.n g - 1 do
    let ou = old_id u in
    if ou >= 0 then
      for i = off.(u) to off.(u + 1) - 1 do
        let ov = old_id adj.(i) in
        let j = if ov >= 0 then G.find_arc t.graph ou ov else -1 in
        if j >= 0 then Bytes.set labels i (Bytes.get t.labels j)
      done
  done;
  { graph = g; labels }

let label t u v =
  let i = G.find_arc t.graph u v in
  if i < 0 then Unlabelled else arc t i

let find t u v =
  match label t u v with
  | Up | Down -> Some Node_meta.Customer_provider
  | Peer -> Some Node_meta.Peer
  | Ixp_member -> Some Node_meta.Ixp_member
  | Unlabelled -> None

let customer_of t u v =
  match label t u v with Up -> true | Down | Peer | Ixp_member | Unlabelled -> false
