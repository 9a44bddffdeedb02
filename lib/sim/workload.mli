(** Session workload generation for the brokerage simulator.

    Sessions are QoS flows between AS pairs: Poisson arrivals, exponential
    holding times, unit (configurable) bandwidth demand. Endpoints are
    drawn from the gravity-model traffic masses, so demand concentrates on
    the popular eyeball/content pairs — the VoIP/video traffic mix that
    motivates the paper. *)

type session = {
  id : int;
  src : int;
  dst : int;
  arrival : float;
  duration : float;
  demand : float;
}

type params = {
  arrival_rate : float;  (** sessions per time unit *)
  mean_duration : float;
  demand : float;  (** bandwidth units per session *)
}

val default_params : params
(** arrival_rate 10, mean_duration 5, demand 1. *)

val zipf : ?alpha:float -> n:int -> unit -> Broker_core.Traffic.model
(** Zipf-skewed traffic masses over [n] vertices: vertex [i] has mass
    proportional to [1/(i+1)^alpha] (default [alpha = 1.2]), normalized to
    mean 1 like the gravity model. Deterministic. Feeding this to
    {!generate} concentrates sessions on a small hot set of (src, dst)
    pairs — the skew that makes path-cache hit rates meaningful (X8).
    @raise Invalid_argument if [n < 2] or [alpha] is not positive and
    finite. *)

val generate :
  rng:Broker_util.Xrandom.t ->
  Broker_core.Traffic.model ->
  n_sessions:int ->
  params ->
  session array
(** Sessions sorted by arrival time; [src <> dst] always. *)

val last_arrival : session array -> float
(** Arrival time of the last of [generate]'s sorted sessions; [0.] for
    none. *)
