type t = {
  parent : int array;
  comp_size : int array;
}

let create n =
  {
    parent = Array.init n (fun i -> i);
    comp_size = Array.make n 1;
  }

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let root = find t p in
    t.parent.(x) <- root;
    root
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let big, small = if t.comp_size.(ra) >= t.comp_size.(rb) then (ra, rb) else (rb, ra) in
    t.parent.(small) <- big;
    t.comp_size.(big) <- t.comp_size.(big) + t.comp_size.(small);
    true
  end
