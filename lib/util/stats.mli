(** Descriptive statistics used by the evaluation harness: moments,
    quantiles and Pearson correlation. *)

val mean : float array -> float
(** Arithmetic mean; 0 on an empty array. *)

val variance : float array -> float [@@brokercheck.test_only]
(** Population variance; 0 on arrays shorter than 2. *)

val stddev : float array -> float [@@brokercheck.test_only]

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in [\[0,1\]], linear interpolation between order
    statistics. The input need not be sorted. *)

val median : float array -> float

val pearson : float array -> float array -> float
(** Pearson product-moment correlation; 0 when either side is constant.
    @raise Invalid_argument on length mismatch. *)

type summary = {
  n : int;
  min : float;
  max : float;
  mean : float;
  stddev : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float array -> summary
(** @raise Invalid_argument on an empty array. *)
