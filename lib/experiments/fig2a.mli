(** Fig. 2a: CDF of the broker-set size produced by the Set Cover baseline
    over 300 random-order runs — always ~100% coverage but at an enormous
    (paper: ~40,000 nodes, >76% of the network) alliance size. *)

type result = {
  runs : int;
  sizes : float array;
  mean_fraction : float;  (** mean set size / |V| *)
}

val compute : ?runs:int -> Ctx.t -> result [@@brokercheck.test_only]
val report : Ctx.t -> Broker_report.Report.t
