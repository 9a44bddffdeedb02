type t = { component : int array; sizes : int array }

let compute g =
  let n = Graph.n g in
  let component = Array.make n (-1) in
  let queue = Array.make n 0 in
  let sizes = ref [] in
  let next_id = ref 0 in
  for s = 0 to n - 1 do
    if component.(s) < 0 then begin
      let id = !next_id in
      incr next_id;
      let head = ref 0 and tail = ref 0 in
      component.(s) <- id;
      queue.(!tail) <- s;
      incr tail;
      let size = ref 0 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        incr size;
        Graph.iter_neighbors g u (fun v ->
            if component.(v) < 0 then begin
              component.(v) <- id;
              queue.(!tail) <- v;
              incr tail
            end)
      done;
      sizes := !size :: !sizes
    end
  done;
  { component; sizes = Array.of_list (List.rev !sizes) }

let largest t =
  if Array.length t.sizes = 0 then (0, 0)
  else begin
    let best = ref 0 in
    Array.iteri (fun i s -> if s > t.sizes.(!best) then best := i) t.sizes;
    (!best, t.sizes.(!best))
  end
