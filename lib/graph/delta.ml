module Bitset = Broker_util.Bitset
module Obs = Broker_obs

(* Announce/withdraw probes: all commutative int counters over a
   single-writer structure, so they diff cleanly run-to-run like the
   bfs.* family. *)
let m_announced = Obs.Metrics.counter "topo.delta.announced"
let m_withdrawn = Obs.Metrics.counter "topo.delta.withdrawn"
let m_noops = Obs.Metrics.counter "topo.delta.noops"
let m_views = Obs.Metrics.counter "topo.delta.views_built"
let m_compactions = Obs.Metrics.counter "topo.delta.compactions"
let t_view = Obs.Trace.scope "delta.view"
let t_compact = Obs.Trace.scope "delta.compact"

(* A mutable edge-set diff against an immutable base CSR:

     - withdrawals of base edges are tombstones over base arc positions
       (one bit per directed arc, so a withdraw is two bit sets and two
       binary searches);
     - announcements of new edges live in per-vertex sorted arrays
       ([added]), kept strictly disjoint from the effective base
       segment — re-announcing a tombstoned base edge clears its
       tombstone instead of duplicating it in [added].

   [dirty.(u)] marks vertices whose effective segment differs (or ever
   differed) from the base; only those get a materialized override
   segment when a {!View.t} is built. The invariants keep every
   effective segment sorted, duplicate-free and self-loop-free — the
   same canonical form [Graph.of_edges] produces — which is what makes
   {!compact} bitwise-equal to a from-scratch rebuild. *)
type t = {
  base : Graph.t;
  n : int;
  added : int array array;  (* sorted strictly-increasing, per vertex *)
  tomb : Bitset.t;  (* withdrawn base arc positions *)
  tombed : int array;  (* per-vertex tombstone count *)
  dirty : bool array;
  mutable added_arcs : int;
  mutable tombed_arcs : int;
  mutable edits : int;  (* successful announce/withdraw operations *)
  mutable cache : View.t option;  (* memoized until the next mutation *)
}

let no_added : int array = [||]

let create base =
  let n = Graph.n base in
  {
    base;
    n;
    added = Array.make n no_added;
    tomb = Bitset.create (Graph.arcs base);
    tombed = Array.make n 0;
    dirty = Array.make n false;
    added_arcs = 0;
    tombed_arcs = 0;
    edits = 0;
    cache = None;
  }

(* Arc position of [v] inside [u]'s base segment, or -1. *)
let base_pos t u v =
  let off = Graph.csr_off t.base and adj = Graph.csr_adj t.base in
  let lo = ref off.(u) and hi = ref (off.(u + 1) - 1) in
  let pos = ref (-1) in
  while !pos < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = adj.(mid) in
    if w = v then pos := mid else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !pos

let added_mem t u v =
  let a = t.added.(u) in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = a.(mid) in
    if w = v then found := true else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* Announced edges stay small relative to the base, so sorted-array
   insertion (fresh array per insert) is cheaper and friendlier to the
   merge in [materialize] than any tree would be. *)
let insert_sorted a v =
  let len = Array.length a in
  let out = Array.make (len + 1) v in
  let i = ref 0 in
  while !i < len && a.(!i) < v do
    out.(!i) <- a.(!i);
    incr i
  done;
  Array.blit a !i out (!i + 1) (len - !i);
  out

let remove_sorted a v =
  let len = Array.length a in
  let out = Array.make (len - 1) 0 in
  let j = ref 0 in
  for i = 0 to len - 1 do
    if a.(i) <> v then begin
      out.(!j) <- a.(i);
      incr j
    end
  done;
  out

let check_pair t name u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg ("Delta." ^ name ^ ": endpoint out of range")

let touch t u v =
  t.dirty.(u) <- true;
  t.dirty.(v) <- true;
  t.edits <- t.edits + 1;
  t.cache <- None

let add_edge t u v =
  check_pair t "add_edge" u v;
  if u = v then begin
    Obs.Metrics.incr m_noops;
    false
  end
  else begin
    let p = base_pos t u v in
    if p >= 0 then
      if Bitset.mem t.tomb p then begin
        (* Re-announce of a withdrawn base edge: clear both tombstones. *)
        let q = base_pos t v u in
        Bitset.remove t.tomb p;
        Bitset.remove t.tomb q;
        t.tombed.(u) <- t.tombed.(u) - 1;
        t.tombed.(v) <- t.tombed.(v) - 1;
        t.tombed_arcs <- t.tombed_arcs - 2;
        touch t u v;
        Obs.Metrics.incr m_announced;
        true
      end
      else begin
        Obs.Metrics.incr m_noops;
        false
      end
    else if added_mem t u v then begin
      Obs.Metrics.incr m_noops;
      false
    end
    else begin
      t.added.(u) <- insert_sorted t.added.(u) v;
      t.added.(v) <- insert_sorted t.added.(v) u;
      t.added_arcs <- t.added_arcs + 2;
      touch t u v;
      Obs.Metrics.incr m_announced;
      true
    end
  end

let remove_edge t u v =
  check_pair t "remove_edge" u v;
  if u = v then begin
    Obs.Metrics.incr m_noops;
    false
  end
  else if added_mem t u v then begin
    t.added.(u) <- remove_sorted t.added.(u) v;
    t.added.(v) <- remove_sorted t.added.(v) u;
    t.added_arcs <- t.added_arcs - 2;
    touch t u v;
    Obs.Metrics.incr m_withdrawn;
    true
  end
  else begin
    let p = base_pos t u v in
    if p >= 0 && not (Bitset.mem t.tomb p) then begin
      let q = base_pos t v u in
      Bitset.add t.tomb p;
      Bitset.add t.tomb q;
      t.tombed.(u) <- t.tombed.(u) + 1;
      t.tombed.(v) <- t.tombed.(v) + 1;
      t.tombed_arcs <- t.tombed_arcs + 2;
      touch t u v;
      Obs.Metrics.incr m_withdrawn;
      true
    end
    else begin
      Obs.Metrics.incr m_noops;
      false
    end
  end

let mem_edge t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then false
  else if added_mem t u v then true
  else
    let p = base_pos t u v in
    p >= 0 && not (Bitset.mem t.tomb p)

let degree t u =
  if u < 0 || u >= t.n then invalid_arg "Delta.degree: vertex out of range";
  Graph.degree t.base u - t.tombed.(u) + Array.length t.added.(u)

let arcs t = Graph.arcs t.base - t.tombed_arcs + t.added_arcs
let edges t = arcs t / 2

(* Merge [u]'s effective segment (base minus tombstones, plus added)
   into [dst] starting at [start]; both inputs are sorted and disjoint,
   so this is a plain two-finger merge. Returns the write cursor. *)
let merge_into t u dst start =
  let off = Graph.csr_off t.base and adj = Graph.csr_adj t.base in
  let hi = off.(u + 1) in
  let add = t.added.(u) in
  let jn = Array.length add in
  let i = ref off.(u) and j = ref 0 and w = ref start in
  while !i < hi || !j < jn do
    if !i < hi && Bitset.mem t.tomb !i then incr i
    else if !j >= jn || (!i < hi && adj.(!i) < add.(!j)) then begin
      dst.(!w) <- adj.(!i);
      incr i;
      incr w
    end
    else begin
      dst.(!w) <- add.(!j);
      incr j;
      incr w
    end
  done;
  !w

let materialize t =
  let off = Graph.csr_off t.base and adj = Graph.csr_adj t.base in
  let xoff = Array.make (t.n + 1) 0 in
  for u = 0 to t.n - 1 do
    xoff.(u + 1) <-
      (xoff.(u)
      + if t.dirty.(u) then off.(u + 1) - off.(u) - t.tombed.(u)
                            + Array.length t.added.(u)
        else 0)
  done;
  let xadj = Array.make xoff.(t.n) 0 in
  for u = 0 to t.n - 1 do
    if t.dirty.(u) then ignore (merge_into t u xadj xoff.(u))
  done;
  {
    View.n = t.n;
    arcs = arcs t;
    off;
    adj;
    overlaid = true;
    (* Snapshot the flags: a view must stay a correct picture of the
       edge set it was built from even after the delta mutates on — the
       incremental tracker diffs an old view against a new one. *)
    dirty = Array.copy t.dirty;
    xoff;
    xadj;
  }

let view t =
  match t.cache with
  | Some vw -> vw
  | None ->
      let tr0 = Obs.Trace.enter () in
      let vw =
        (* Cancelled-out deltas read straight from the base: correct
           because the effective edge set is exactly the base's. *)
        if t.added_arcs = 0 && t.tombed_arcs = 0 then View.of_graph t.base
        else materialize t
      in
      Obs.Trace.leave t_view tr0;
      Obs.Metrics.incr m_views;
      t.cache <- Some vw;
      vw

let compact base t =
  if not (Graph.equal base t.base) then
    invalid_arg "Delta.compact: delta was built over a different base";
  Obs.Trace.with_span t_compact @@ fun () ->
  let off = Graph.csr_off t.base and adj = Graph.csr_adj t.base in
  let noff = Array.make (t.n + 1) 0 in
  for u = 0 to t.n - 1 do
    noff.(u + 1) <-
      noff.(u) + off.(u + 1) - off.(u) - t.tombed.(u)
      + Array.length t.added.(u)
  done;
  let nadj = Array.make noff.(t.n) 0 in
  for u = 0 to t.n - 1 do
    if t.dirty.(u) then ignore (merge_into t u nadj noff.(u))
    else Array.blit adj off.(u) nadj noff.(u) (off.(u + 1) - off.(u))
  done;
  Obs.Metrics.incr m_compactions;
  Graph.of_csr_unchecked ~n:t.n ~off:noff ~adj:nadj
