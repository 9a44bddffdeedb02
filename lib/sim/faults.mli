(** Deterministic broker fault injection for the flow-level simulator.

    A fault stream is a time-sorted array of crash/recover events over a
    broker set, generated from an {!Broker_util.Xrandom} stream — never
    from wall-clock or [Stdlib.Random] — so a chaos run replays bit-for-bit
    from its seed (HACKING.md, "Determinism discipline").

    Crash and recover events always come in matched pairs (the recover of a
    pair is clamped to the horizon), and a broker may crash again while
    already down under the correlated scenario: consumers must treat broker
    liveness as a down-{e counter}, up when it returns to zero. *)

type kind = Crash | Recover

type event = { time : float; broker : int; kind : kind }

type scenario =
  | Independent of { mtbf : float; mttr : float }
      (** Every broker fails independently: up-times ~ Exp(1/mtbf),
          down-times ~ Exp(1/mttr). [mtbf = infinity] yields the empty
          stream (the zero-rate process). *)
  | Degree_targeted of { mtbf : float; mttr : float; bias : float }
      (** Like [Independent] but a broker's failure rate scales with
          [(degree / mean broker degree) ^ bias]: the high-degree hubs —
          exactly the brokers the alliance leans on — fail first. [bias = 0]
          degenerates to [Independent]; the broker-averaged rate stays near
          [1/mtbf]. *)
  | Ixp_outage of { mtbf : float; mttr : float }
      (** Correlated facility outages: each IXP fabric fails as a unit
          (up ~ Exp(1/mtbf) per fabric), taking down simultaneously every
          broker member of the fabric plus the IXP node itself when it is a
          broker. Models the shared-fate risk of colocating alliance members
          at the same exchange. *)

val generate :
  rng:Broker_util.Xrandom.t ->
  Broker_topo.Topology.t ->
  brokers:int array ->
  horizon:float ->
  scenario ->
  event array
(** Fault events over [\[0, horizon)], sorted by time (emission-order
    tie-break, hence stable and deterministic). Per-broker draws come from
    {!Broker_util.Xrandom.split} streams taken in [brokers] array order, so
    one broker's parameters never perturb another broker's sample path.
    @raise Invalid_argument on non-positive mtbf/mttr, negative bias or
    horizon. *)

val phased : (float * int array) list -> event array
(** [phased [(d1, down1); (d2, down2); ...]] is the deterministic churn
    schedule that holds exactly the brokers of [down_i] down for the
    [i]-th phase of duration [d_i] (phases are laid back to back from
    time 0). At each phase boundary, recovers for brokers leaving the
    down-set precede crashes for brokers entering it (both in ascending
    broker order); after the final phase every remaining down broker
    recovers, so crash/recover pairs stay matched. No randomness: the
    n → n−m → n churn of X8 is the three-phase schedule
    [[(d, \[||\]); (d', crashed); (d'', \[||\])]].
    @raise Invalid_argument on a NaN or non-positive phase duration, or a
    negative broker id. *)

val thin :
  rng:Broker_util.Xrandom.t -> keep:float -> event array -> event array
(** [thin ~rng ~keep events] keeps each crash/recover pair independently
    with probability [keep] (FIFO-matched per broker). The per-pair uniform
    is drawn for {e every} pair regardless of [keep], so calls on the same
    base stream with identically seeded [rng] and increasing [keep] produce
    {e nested} outage sets — the coupling that makes an availability-vs-rate
    sweep monotone sample-wise, not just in expectation. *)
