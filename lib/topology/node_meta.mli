(** Node and edge metadata of the AS-level Internet topology.

    Node kinds follow the classification the paper borrows from CAIDA
    (Transit/Access, Content, Enterprise) plus Tier-1 transit and IXPs.
    Edge relations follow the Gao business-relationship model: a link is
    either customer-to-provider, settlement-free peering, or an IXP
    membership (AS connected to an IXP fabric). *)

type kind =
  | Tier1  (** top-level transit provider, member of the tier-1 clique *)
  | Transit  (** regional/national transit & access provider *)
  | Access  (** eyeball/access network *)
  | Content  (** content provider / CDN *)
  | Enterprise  (** enterprise stub network *)
  | Ixp  (** Internet eXchange Point fabric, modelled as a node *)

val kind_to_string : kind -> string
val kind_equal : kind -> kind -> bool

val all_kinds : kind list

type relation =
  | Customer_provider
      (** one endpoint buys transit from the other; {!Relations} records
          which one per arc *)
  | Peer
  | Ixp_member
