(** Problem 4: MCBG with path-length constraints, and the stochastic
    feasibility test of Eq. (4): a broker-selection strategy is feasible
    when its dominated-path length distribution F_B(l) tracks the target
    distribution F(l) within ε at every l. *)

type verdict = {
  feasible : bool;
  epsilon : float;  (** the ε the verdict was taken against *)
  max_deviation : float;  (** sup_l |F_B(l) - F(l)| over the compared range *)
  worst_l : int;  (** an l attaining the maximum deviation *)
}

val max_deviation : Connectivity.curve -> target:Connectivity.curve -> float * int
(** Supremum deviation between two connectivity curves (compared on hop
    counts 1 .. min of the two l_max, plus the saturated values). *)

val feasible :
  epsilon:float -> Connectivity.curve -> target:Connectivity.curve -> verdict [@@brokercheck.test_only]
(** Eq. (4) with the free-path-selection curve of the same topology as the
    natural [target]. *)
