(** Nash bargaining between the broker coalition B and a hired "employee"
    AS (Section 7.1, Theorem 5).

    The employee transits traffic between two brokers for price [p_j] per
    unit volume, at cost [c]; its utility is [u_j = p_j - c] (Eq. 5). B
    charges [p_B] at both ends of the connection and budgets for hiring up
    to [h = ⌈β/2⌉] employees, giving the pessimistic per-unit utility
    [u_B = 2·p_B - h·p_j - h·c] (Eq. 6). The bargaining solution maximizes
    the Nash product [u_j · u_B] over [p_j > c] (Eq. 7). *)

type outcome = {
  price : float;  (** agreed per-unit transit price p_j *)
  u_employee : float;
  u_broker : float;
  nash_product : float;
}

val solve : ?cross_check:bool -> broker_price:float -> hops:int -> float -> outcome option
(** [solve ~broker_price ~hops cost]: closed-form maximizer
    [p_j = (2·p_B - h·c + h·c) / (2h) + c/2] of the concave Nash product,
    i.e. the midpoint between the employee's reservation price [c] and B's
    break-even price [(2·p_B - h·c)/h]. Returns [None] when the bargaining
    set is empty (B cannot profitably hire at any price above cost).
    [cross_check] (default false) verifies the closed form against a
    golden-section maximization and asserts agreement to 1e-6. *)

val feasible : broker_price:float -> hops:int -> cost:float -> bool [@@brokercheck.test_only]
(** Non-empty bargaining set: [2·p_B > h·(2c)]... i.e. some price leaves
    both sides positive surplus. *)
