module G = Broker_graph.Graph
module Bitset = Broker_util.Bitset

let m_adds = Broker_obs.Metrics.counter "coverage.adds"

type t = {
  graph : G.t;
  broker : Bitset.t;
  covered_set : Bitset.t;
  mutable order : int array;  (* insertion order; first [n_brokers] live *)
  mutable n_brokers : int;
  mutable n_covered : int;
  msbfs : Broker_graph.Msbfs.workspace;  (* scratch for [gains_into] *)
}

let create graph =
  let n = G.n graph in
  {
    graph;
    broker = Bitset.create n;
    covered_set = Bitset.create n;
    order = [||];
    n_brokers = 0;
    n_covered = 0;
    msbfs = Broker_graph.Msbfs.workspace ();
  }

let graph t = t.graph
let f t = t.n_covered
let size t = t.n_brokers
let brokers t = Array.sub t.order 0 t.n_brokers

let is_broker t v = Bitset.mem t.broker v
let is_covered t v = Bitset.mem t.covered_set v
let covered t = t.covered_set

let gain t v =
  let acc = ref (if Bitset.mem t.covered_set v then 0 else 1) in
  G.iter_neighbors t.graph v (fun w ->
      if not (Bitset.mem t.covered_set w) then incr acc);
  !acc

(* Batched [gain] on the MS-BFS kernel: a depth-<=1 batch settles exactly
   the closed neighborhood of each candidate in its lane, so the per-lane
   count of settled-and-uncovered vertices is that candidate's marginal
   gain. The greedy selectors (CELF, MaxSG) seed their heaps with this —
   candidates probe [Msbfs.lanes] at a time instead of one closure-built
   neighbor sweep each. Gains are identical to [gain] by construction
   (self-loop-free CSR: the candidate itself is the lone depth-0 settle). *)
let gains_into t cands ~lo ~len out =
  Broker_graph.Msbfs.run t.msbfs t.graph ~max_depth:1 cands ~lo ~len;
  Broker_graph.Msbfs.lane_counts_into t.msbfs
    ~keep:(fun w -> not (Bitset.unsafe_mem t.covered_set w))
    out

let push_order t v =
  let cap = Array.length t.order in
  if t.n_brokers = cap then begin
    let grown = Array.make (max 8 (2 * cap)) 0 in
    Array.blit t.order 0 grown 0 t.n_brokers;
    t.order <- grown
  end;
  t.order.(t.n_brokers) <- v

(* The neighbor sweep is an explicit loop over the CSR arrays — same
   ascending order as [G.iter_neighbors], without the closure that call
   would build; [add] sits on the greedy inner loop and is checked
   [@brokercheck.noalloc]. *)
let[@brokercheck.noalloc] add t v =
  if not (Bitset.mem t.broker v) then begin
    Broker_obs.Metrics.incr m_adds;
    Bitset.add t.broker v;
    push_order t v;
    t.n_brokers <- t.n_brokers + 1;
    if not (Bitset.mem t.covered_set v) then begin
      Bitset.add t.covered_set v;
      t.n_covered <- t.n_covered + 1
    end;
    let off = G.csr_off t.graph and adj = G.csr_adj t.graph in
    for i = off.(v) to off.(v + 1) - 1 do
      let w = Array.unsafe_get adj i in
      if not (Bitset.mem t.covered_set w) then begin
        Bitset.add t.covered_set w;
        t.n_covered <- t.n_covered + 1
      end
    done
  end

let coverage_fraction t =
  let n = G.n t.graph in
  if n = 0 then 0.0 else float_of_int t.n_covered /. float_of_int n
