(** Coalition-stability analysis of Section 7.2 (Theorems 7–8).

    - Superadditivity of the characteristic function implies individual
      rationality of the Shapley split (no single AS gains by leaving).
    - Supermodularity (convexity) implies group rationality — the Shapley
      value lies in the core, so no sub-coalition gains by splitting off.
    - The marginal-contribution curve of successively added brokers locates
      the point where supermodularity breaks — the paper's criterion for
      when to stop growing the broker set. *)

type check = { holds : bool; violations : int; trials : int }

val superadditive :
  rng:Broker_util.Xrandom.t -> n:int -> v:(int -> float) -> trials:int -> check
(** Sample disjoint pairs [K, L] and test
    [v(K ∪ L) >= v(K) + v(L) - 1e-9]. Exhaustive when [2^n <= 4096]. *)

val supermodular :
  rng:Broker_util.Xrandom.t -> n:int -> v:(int -> float) -> trials:int -> check
(** Sample chains [K ⊆ L ⊆ N\{j}] and test
    [v(K∪{j}) - v(K) <= v(L∪{j}) - v(L) + 1e-9]. *)

val individually_rational : v:(int -> float) -> n:int -> float array -> bool
(** [φ_j >= v({j})] for every player (Theorem 7's conclusion). *)

val group_rational :
  rng:Broker_util.Xrandom.t ->
  n:int ->
  v:(int -> float) ->
  float array ->
  trials:int ->
  check
(** [Σ_{j∈M} φ_j >= v(M)] on sampled coalitions [M] (Theorem 8's
    conclusion; exhaustive for small [n]). *)

val marginal_curve : float array -> float array [@@brokercheck.test_only]
(** [marginal_curve values]: first differences of a value-per-prefix-size
    sequence; the index after which differences stop growing marks where
    supermodularity — and hence the incentive to keep adding brokers —
    ends. *)

val supermodularity_break : float array -> int option
(** First index (1-based prefix size) where the marginal contribution
    strictly decreases; [None] if never. *)
