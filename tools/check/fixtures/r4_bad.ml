(* Fixture (brokercheck: allow mli-complete): R4 domain-confinement — ad-hoc Domain.spawn outside
   lib/util/parallel.ml escapes the deterministic chunk-merge discipline. *)

let sum_halves a =
  let n = Array.length a in
  let half lo hi () =
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + a.(i)
    done;
    !s
  in
  let left = Domain.spawn (half 0 (n / 2)) in
  let right = half (n / 2) n () in
  Domain.join left + right
