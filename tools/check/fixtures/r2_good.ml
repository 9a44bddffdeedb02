(* Fixture (brokercheck: allow mli-complete): R2 clean — randomness comes from an explicitly seeded stream
   threaded by the caller. The stand-in is named like the stdlib module:
   only the resolved path counts. *)

module Random = struct
  let int rng bound = !rng mod bound
end

let roll rng = Random.int rng 6
