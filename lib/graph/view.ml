(* A read-only adjacency view: either a bare CSR, or a CSR with a sparse
   per-vertex override. Traversal kernels (Bfs, Msbfs, Projected,
   Dominating) read through this record so the same zero-alloc inner
   loops serve both the static graph and a Delta overlay.

   The record is deliberately flat and public within the library: the
   hot loops select a vertex's segment with two array reads and a
   branch — no closure, no per-vertex allocation:

     let du = vw.overlaid && Array.unsafe_get vw.dirty u in
     let a  = if du then vw.xadj else vw.adj in
     let lo = if du then vw.xoff u else vw.off u ...

   Clean vertices read the base CSR untouched; dirty vertices read their
   materialized merged segment in [xoff]/[xadj]. For a base view
   ([overlaid = false]) the override arrays are shared empty arrays and
   the short-circuit on [overlaid] guarantees they are never indexed. *)

type t = {
  n : int;
  arcs : int;  (** directed arc count of the viewed graph *)
  off : int array;
  adj : int array;
  overlaid : bool;
  dirty : bool array;  (** vertex has an override segment *)
  xoff : int array;  (** override offsets; 0-length segment when clean *)
  xadj : int array;
}

let no_dirty : bool array = [||]
let no_off : int array = [||]
let no_adj : int array = [||]

let of_graph g =
  {
    n = Graph.n g;
    arcs = Graph.arcs g;
    off = Graph.csr_off g;
    adj = Graph.csr_adj g;
    overlaid = false;
    dirty = no_dirty;
    xoff = no_off;
    xadj = no_adj;
  }

let n t = t.n
let arcs t = t.arcs

(* Segment bounds for vertex [u]: base or override. *)
let seg t u =
  if t.overlaid && Array.unsafe_get t.dirty u then
    (t.xadj, t.xoff.(u), t.xoff.(u + 1))
  else (t.adj, t.off.(u), t.off.(u + 1))

let degree t u =
  if u < 0 || u >= t.n then invalid_arg "View.degree: vertex out of range";
  if t.overlaid && Array.unsafe_get t.dirty u then t.xoff.(u + 1) - t.xoff.(u)
  else t.off.(u + 1) - t.off.(u)

let iter_neighbors t u f =
  let a, lo, hi = seg t u in
  for i = lo to hi - 1 do
    f a.(i)
  done

let fold_neighbors t u f init =
  let a, lo, hi = seg t u in
  let acc = ref init in
  for i = lo to hi - 1 do
    acc := f !acc a.(i)
  done;
  !acc

let mem_edge t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then false
  else begin
    let a, lo0, hi0 = seg t u in
    let lo = ref lo0 and hi = ref (hi0 - 1) in
    let found = ref false in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let w = a.(mid) in
      if w = v then found := true else if w < v then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end
