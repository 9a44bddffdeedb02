type order = Min | Max

type t = {
  order : order;
  mutable prio : float array;
  mutable data : int array;
  mutable size : int;
}

let create ?(initial_capacity = 16) order =
  let cap = max initial_capacity 1 in
  { order; prio = Array.make cap 0.0; data = Array.make cap 0; size = 0 }

(* [before t a b]: should priority [a] sit above priority [b]? *)
let before t a b = match t.order with Min -> a < b | Max -> a > b

let grow t =
  let cap = Array.length t.prio in
  let prio = Array.make (2 * cap) 0.0 in
  let data = Array.make (2 * cap) 0 in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.data 0 data 0 t.size;
  t.prio <- prio;
  t.data <- data

let swap t i j =
  let p = t.prio.(i) and d = t.data.(i) in
  t.prio.(i) <- t.prio.(j);
  t.data.(i) <- t.data.(j);
  t.prio.(j) <- p;
  t.data.(j) <- d

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t t.prio.(i) t.prio.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.size && before t t.prio.(l) t.prio.(!best) then best := l;
  if r < t.size && before t t.prio.(r) t.prio.(!best) then best := r;
  if !best <> i then begin
    swap t i !best;
    sift_down t !best
  end

let push t ~priority payload =
  if t.size = Array.length t.prio then grow t;
  t.prio.(t.size) <- priority;
  t.data.(t.size) <- payload;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let res = (t.prio.(0), t.data.(0)) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.prio.(0) <- t.prio.(t.size);
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some res
  end
