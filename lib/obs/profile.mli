(** GC-pressure profiling: [Gc.quick_stat] deltas around a thunk.

    In OCaml 5 [Gc.quick_stat] reads the calling domain's counters, so
    {!measure} wrapped around a {!Broker_util.Parallel} worker body
    yields that worker's own allocation profile; per-domain deltas are
    summed into the (volatile) [parallel.gc.*] counters. Word counts
    are scheduling-dependent, never diffed. *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

val measure : (unit -> 'a) -> 'a * gc_delta
(** [measure f] is [f ()] together with the GC counter movement it
    caused on the calling domain. Runs [f] unconditionally — callers
    guard with {!Control.enabled} if the measurement itself is the
    point. *)
