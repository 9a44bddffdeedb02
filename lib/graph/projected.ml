module B = Broker_util.Bitset
module Obs = Broker_obs

type t = { graph : Graph.t; broker_count : int }

let m_builds = Obs.Metrics.counter "projected.builds"
let m_arcs_kept = Obs.Metrics.counter "projected.arcs_kept"
let m_broker_verts = Obs.Metrics.counter "projected.broker_vertices"
let t_build = Obs.Trace.scope "projected.build"

(* The per-vertex counter and write cursor are single refs hoisted above
   the CSR sweeps and reset per vertex: the body is checked
   [@brokercheck.noalloc], so the O(n + m) fill path must not allocate
   per iteration (the arrays and result record before/after the loops
   are the tolerated O(1) setup). Adjacency is read through the
   base-or-overlay segment selector of {!View}, so a {!Delta} overlay
   projects without compacting first; base views take the CSR branch
   throughout. *)
let[@brokercheck.noalloc] project_view vw ~is_broker =
  let tr0 = Obs.Trace.enter () in
  let n = vw.View.n in
  let off = vw.View.off and adj = vw.View.adj in
  let ov = vw.View.overlaid in
  let dirty = vw.View.dirty and xoff = vw.View.xoff and xadj = vw.View.xadj in
  let brokers = B.create n in
  let broker_count = ref 0 in
  for v = 0 to n - 1 do
    if is_broker v then begin
      B.add brokers v;
      incr broker_count
    end
  done;
  (* Counting pass: a broker keeps its whole (already sorted) segment; a
     non-broker keeps exactly its broker neighbors. *)
  let poff = Array.make (n + 1) 0 in
  let c = ref 0 in
  for u = 0 to n - 1 do
    let du = ov && Array.unsafe_get dirty u in
    let a = if du then xadj else adj in
    let lo = if du then Array.unsafe_get xoff u else Array.unsafe_get off u in
    let hi =
      if du then Array.unsafe_get xoff (u + 1)
      else Array.unsafe_get off (u + 1)
    in
    let kept =
      if B.unsafe_mem brokers u then hi - lo
      else begin
        c := 0;
        for i = lo to hi - 1 do
          if B.unsafe_mem brokers (Array.unsafe_get a i) then incr c
        done;
        !c
      end
    in
    poff.(u + 1) <- poff.(u) + kept
  done;
  (* Fill pass. Filtering a sorted, duplicate-free, symmetric CSR with a
     symmetric edge predicate preserves all of those invariants, so the
     result can be wrapped without re-normalizing. *)
  let padj = Array.make poff.(n) 0 in
  let w = ref 0 in
  for u = 0 to n - 1 do
    let du = ov && Array.unsafe_get dirty u in
    let a = if du then xadj else adj in
    let lo = if du then Array.unsafe_get xoff u else Array.unsafe_get off u in
    let hi =
      if du then Array.unsafe_get xoff (u + 1)
      else Array.unsafe_get off (u + 1)
    in
    if B.unsafe_mem brokers u then Array.blit a lo padj poff.(u) (hi - lo)
    else begin
      w := poff.(u);
      for i = lo to hi - 1 do
        let v = Array.unsafe_get a i in
        if B.unsafe_mem brokers v then begin
          Array.unsafe_set padj !w v;
          incr w
        end
      done
    end
  done;
  if Obs.Control.enabled () then begin
    Obs.Metrics.incr m_builds;
    Obs.Metrics.add m_arcs_kept poff.(n);
    Obs.Metrics.add m_broker_verts !broker_count
  end;
  Obs.Trace.leave t_build tr0;
  { graph = Graph.of_csr_unchecked ~n ~off:poff ~adj:padj; broker_count = !broker_count }

(* Static-graph entry point: the view record is the only extra setup
   allocation, built once before the passes. *)
let[@brokercheck.noalloc] project g ~is_broker =
  project_view (View.of_graph g) ~is_broker

let graph t = t.graph
let broker_count t = t.broker_count
let arcs t = 2 * Graph.m t.graph
