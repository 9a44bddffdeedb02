(** Utility-function families of the Section 7 economic model.

    The paper leaves the customer-AS utility components abstract, imposing
    only shape conditions; we instantiate the standard parameterizations
    satisfying exactly those conditions (DESIGN.md §5):

    - [V_i(a)]: income from end users — continuous, strictly increasing,
      concave (diminishing returns on QoS). We use
      [v_scale · ln(1 + v_curvature·a) / ln(1 + v_curvature)].
    - [P_i(a)]: legacy routing cost/revenue rebalancing — continuous,
      concave, non-decreasing on [a0, peak], non-increasing after, with
      [P_i(1) = 0]. We use the concave parabola
      [p_scale · ((1 - peak)² - (a - peak)²)].
    - Customer utility: [u_i(a) = V_i(a) + P_i(a) - price·a], strictly
      concave, hence a unique best response (Theorem 6's inner stage). *)

type customer = {
  v_scale : float;  (** end-user income at full adoption *)
  v_curvature : float;  (** diminishing-returns curvature, > 0 *)
  p_peak : float;  (** adoption level where legacy rebalancing peaks *)
  p_scale : float;  (** magnitude of the legacy term *)
  a0 : float;  (** pre-existing (BGP-era) fraction routed through B *)
}

val customer :
  ?v_scale:float ->
  ?v_curvature:float ->
  ?p_peak:float ->
  ?p_scale:float ->
  ?a0:float ->
  unit ->
  customer [@@brokercheck.test_only]
(** Defaults: [v_scale = 10], [v_curvature = 4], [p_peak = 0.6],
    [p_scale = 2], [a0 = 0.05].
    @raise Invalid_argument on out-of-range parameters. *)

val random_population :
  rng:Broker_util.Xrandom.t -> n:int -> customer array
(** Heterogeneous customers with jittered parameters, for the adoption
    experiments. *)

val v : customer -> float -> float [@@brokercheck.test_only]
val p : customer -> float -> float [@@brokercheck.test_only]

val utility : customer -> price:float -> float -> float
(** [utility c ~price a] = [V(a) + P(a) - price·a]. *)

val best_response : customer -> price:float -> float
(** The unique [a* ∈ [a0, 1]] maximizing utility at the given price. *)

type broker_cost = { per_unit : float; concavity : float }
(** Coalition cost [C(α) = per_unit·α + concavity·√α] — concavely
    increasing in total routed traffic [α], as assumed for Eq. (9). *)

val default_cost : broker_cost
val cost : broker_cost -> float -> float
