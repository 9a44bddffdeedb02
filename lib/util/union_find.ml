type t = {
  parent : int array;
  comp_size : int array;
  mutable count : int;
}

let create n =
  {
    parent = Array.init n (fun i -> i);
    comp_size = Array.make n 1;
    count = n;
  }

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let root = find t p in
    t.parent.(x) <- root;
    root
  end

let same t a b = find t a = find t b
let size t x = t.comp_size.(find t x)

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let big, small = if t.comp_size.(ra) >= t.comp_size.(rb) then (ra, rb) else (rb, ra) in
    t.parent.(small) <- big;
    t.comp_size.(big) <- t.comp_size.(big) + t.comp_size.(small);
    t.count <- t.count - 1;
    true
  end

let count t = t.count
