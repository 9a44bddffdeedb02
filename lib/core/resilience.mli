(** Broker-failure resilience (reproduction extension).

    The paper's brokerage layer concentrates control in few nodes; a
    natural systems question it leaves open is how gracefully the E2E
    guarantee degrades when brokers fail. This module evaluates the
    connectivity of a broker set after removing a fraction of its members,
    under two failure models:

    - [Random]: uniformly chosen brokers fail (independent outages);
    - [Targeted]: the highest-degree brokers fail first (attack /
      correlated overload).

    The remaining brokers keep serving; failed brokers stop dominating
    edges (their node still forwards its own traffic as a plain AS). *)

type failure_model = Random | Targeted

type point = {
  failed_fraction : float;
  failed : int;
  connectivity : float;  (** saturated E2E connectivity of the survivors *)
}

val degradation :
  rng:Broker_util.Xrandom.t ->
  sources:int ->
  Broker_graph.Graph.t ->
  brokers:int array ->
  model:failure_model ->
  fractions:float list ->
  point list
(** One evaluation per requested failure fraction, on a fixed shared source
    sample (common random numbers across the sweep). *)

val survivors :
  rng:Broker_util.Xrandom.t ->
  Broker_graph.Graph.t ->
  brokers:int array ->
  model:failure_model ->
  fraction:float ->
  int array [@@brokercheck.test_only]
(** The broker subset remaining after failures (deterministic for
    [Targeted]). *)
