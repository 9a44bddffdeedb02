(** Fig. 3: why PageRank-guided selection stops working — the correlation
    between a candidate's PageRank value and the saturated-connectivity
    increase it brings as the 101st vs the 1,001st broker. The paper
    measures the correlation dropping from 0.818 to 0.227. *)

type point = { pagerank : float; delta_connectivity : float }

type result = {
  base_size : int;
  correlation : float;
  points : point array;
}

val compute : ?candidates:int -> Ctx.t -> base_k:int -> result [@@brokercheck.test_only]
val report : Ctx.t -> Broker_report.Report.t
