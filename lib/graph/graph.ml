type t = { n : int; off : int array; adj : int array }

(* In-place ascending sorts of [a.(lo) .. a.(hi-1)], with zero heap
   allocation. Each produces the same order as [Array.sort Int.compare]
   on the slice — integer keys have a unique sorted arrangement —
   without the per-segment copy. *)
let insertion_sort a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Sift-down heapsort: O(len log len) on any input, the introsort's
   fallback. The heap is over positions lo..hi-1; the children of slot k
   are 2k+1 and 2k+2. *)
let heap_sort a lo hi =
  let len = hi - lo in
  let sift root last =
    let r = ref root in
    let continue = ref true in
    while !continue do
      let child = (2 * !r) + 1 in
      if child > last then continue := false
      else begin
        let child =
          if child < last && a.(lo + child) < a.(lo + child + 1) then child + 1 else child
        in
        if a.(lo + !r) < a.(lo + child) then begin
          let tmp = a.(lo + !r) in
          a.(lo + !r) <- a.(lo + child);
          a.(lo + child) <- tmp;
          r := child
        end
        else continue := false
      end
    done
  in
  for root = (len - 2) / 2 downto 0 do
    sift root (len - 1)
  done;
  for last = len - 1 downto 1 do
    let tmp = a.(lo) in
    a.(lo) <- a.(lo + last);
    a.(lo + last) <- tmp;
    sift 0 (last - 1)
  done

(* Introsort: median-of-three quicksort down to the insertion-sort
   cutoff of 32, and heapsort for a range still unsorted after [depth]
   partitions, so the worst case stays O(len log len). The partition is
   Hoare's around the pivot value: it stops on keys equal to the pivot
   from both sides, so runs of equal keys split evenly, and the first
   swap puts an element >= pivot at or after [i] and one <= pivot at or
   before [j], which keeps both scans in bounds. *)
let rec intro_sort a lo hi depth =
  if hi - lo <= 32 then insertion_sort a lo hi
  else if depth = 0 then heap_sort a lo hi
  else begin
    let x = a.(lo) and y = a.(lo + ((hi - lo) / 2)) and z = a.(hi - 1) in
    let pivot =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while a.(!j) > pivot do
        decr j
      done;
      if !i <= !j then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    intro_sort a lo (!j + 1) (depth - 1);
    intro_sort a !i hi (depth - 1)
  end

let sort_range a lo hi =
  let depth = ref 0 and len = ref (hi - lo) in
  while !len > 1 do
    incr depth;
    len := !len / 2
  done;
  intro_sort a lo hi (2 * !depth)

(* The one CSR body. Degrees are counted into [off], whose prefix sums
   are segment ends; the fill decrements them, leaving segment starts.
   Each segment is then sorted in place and its duplicates dropped,
   compacting towards the front: the write cursor never passes the read
   cursor, and [off.(u)] is rewritten only after it was read. A segment's
   sorted, deduplicated contents do not depend on the order of the input
   pairs, so neither does the result. *)
let build who ~n ~len us vs =
  if n < 0 then invalid_arg (who ^ ": negative n");
  if len < 0 || len > Array.length us || len > Array.length vs then
    invalid_arg (who ^ ": len outside [0, min lengths]");
  let off = Array.make (n + 1) 0 in
  for i = 0 to len - 1 do
    let u = us.(i) and v = vs.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg (who ^ ": endpoint out of range");
    if u <> v then begin
      off.(u) <- off.(u) + 1;
      off.(v) <- off.(v) + 1
    end
  done;
  for u = 1 to n - 1 do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  if n > 0 then off.(n) <- off.(n - 1);
  let adj = Array.make off.(n) 0 in
  for i = 0 to len - 1 do
    let u = us.(i) and v = vs.(i) in
    if u <> v then begin
      off.(u) <- off.(u) - 1;
      adj.(off.(u)) <- v;
      off.(v) <- off.(v) - 1;
      adj.(off.(v)) <- u
    end
  done;
  let write = ref 0 in
  for u = 0 to n - 1 do
    let lo = off.(u) and hi = off.(u + 1) in
    sort_range adj lo hi;
    off.(u) <- !write;
    let prev = ref (-1) in
    for i = lo to hi - 1 do
      let v = adj.(i) in
      if v <> !prev then begin
        adj.(!write) <- v;
        incr write;
        prev := v
      end
    done
  done;
  off.(n) <- !write;
  let adj = if !write = Array.length adj then adj else Array.sub adj 0 !write in
  { n; off; adj }

let of_edge_arrays ~n ~len us vs = build "Graph.of_edge_arrays" ~n ~len us vs

let of_edges ~n edges =
  build "Graph.of_edges" ~n ~len:(Array.length edges) (Array.map fst edges) (Array.map snd edges)

let n t = t.n
let m t = (t.off.(t.n) - t.off.(0)) / 2

let degree t u =
  if u < 0 || u >= t.n then invalid_arg "Graph.degree: vertex out of range";
  t.off.(u + 1) - t.off.(u)

let iter_neighbors t u f =
  for i = t.off.(u) to t.off.(u + 1) - 1 do
    f t.adj.(i)
  done

let fold_neighbors t u f init =
  let acc = ref init in
  for i = t.off.(u) to t.off.(u + 1) - 1 do
    acc := f !acc t.adj.(i)
  done;
  !acc

let find_arc t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then -1
  else begin
    let lo = ref t.off.(u) and hi = ref (t.off.(u + 1) - 1) in
    let found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let w = t.adj.(mid) in
      if w = v then found := mid
      else if w < v then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let mem_edge t u v = find_arc t u v >= 0

let iter_edges t f =
  for u = 0 to t.n - 1 do
    for i = t.off.(u) to t.off.(u + 1) - 1 do
      let v = t.adj.(i) in
      if u < v then f u v
    done
  done

let degrees_into t out =
  if Array.length out < t.n then
    invalid_arg "Graph.degrees_into: buffer too small";
  for u = 0 to t.n - 1 do
    out.(u) <- t.off.(u + 1) - t.off.(u)
  done

let arcs t = t.off.(t.n)
let csr_off t = t.off
let csr_adj t = t.adj

(* Segments are canonical (sorted, dedup'd, loop-free), so structural
   array equality decides graph equality — this is what lets Delta.compact
   claim bitwise agreement with an of_edges rebuild. *)
let equal a b =
  a.n = b.n
  && Array.length a.adj = Array.length b.adj
  && (a.off == b.off || Array.for_all2 Int.equal a.off b.off)
  && (a.adj == b.adj || Array.for_all2 Int.equal a.adj b.adj)

let of_csr_unchecked ~n ~off ~adj =
  if Array.length off <> n + 1 || off.(0) <> 0 || off.(n) <> Array.length adj
  then invalid_arg "Graph.of_csr_unchecked: malformed offsets";
  { n; off; adj }
