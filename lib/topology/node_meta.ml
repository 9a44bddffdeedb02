type kind = Tier1 | Transit | Access | Content | Enterprise | Ixp

let kind_to_string = function
  | Tier1 -> "Tier1"
  | Transit -> "Transit"
  | Access -> "Access"
  | Content -> "Content"
  | Enterprise -> "Enterprise"
  | Ixp -> "IXP"

let kind_equal (a : kind) b = a = b
let all_kinds = [ Tier1; Transit; Access; Content; Enterprise; Ixp ]

type relation = Customer_provider | Peer | Ixp_member
