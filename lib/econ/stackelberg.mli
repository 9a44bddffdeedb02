(** The Stackelberg pricing game of Section 7.1 (Theorem 6).

    B is the first mover and posts a per-unit routing price [p_B]; each
    customer AS [i] then best-responds with its adoption fraction
    [a_i(p_B)] (unique, since its utility is strictly concave — Eq. 10).
    B anticipates the responses and maximizes
    [u_B(p) = 2·p·α(p) - C(α(p))] over [0 <= p <= p_max] (Eq. 11).
    Backward induction: we evaluate the aggregate response [α(p)] exactly
    at every candidate price and search the outer objective, which is
    continuous on a compact interval — so an equilibrium exists. *)

type equilibrium = {
  price : float;  (** p_B at the Stackelberg equilibrium *)
  adoptions : float array;  (** a_i(p_B) per customer *)
  alpha : float;  (** Σ a_i *)
  broker_utility : float;
  customer_utilities : float array;
}

val aggregate_response : Market.customer array -> price:float -> float
(** [α(p) = Σ_i a_i(p)]. *)

val broker_utility :
  Market.customer array -> cost:Market.broker_cost -> price:float -> float [@@brokercheck.test_only]

val solve : Market.customer array -> cost:Market.broker_cost -> equilibrium
(** Backward-induction equilibrium; outer search is a 96-point grid over
    [0 <= p <= p_max] refined by golden section, where [p_max] is the
    largest marginal value any customer places on adoption (higher prices
    drive [α] to the boundary). *)

val full_adoption_price :
  Market.customer array -> epsilon:float -> float option
(** Largest grid price at which every customer adopts fully
    ([a_i >= 1 - epsilon]) — the paper's condition "make a_i = 1 under the
    steady state". [None] when even a zero price does not induce full
    adoption. *)
