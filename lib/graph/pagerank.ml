let damping = 0.85
let tol = 1e-10

let compute ?(max_iter = 200) g =
  let n = Graph.n g in
  if n = 0 then [||]
  else begin
    let fn = float_of_int n in
    let rank = Array.make n (1.0 /. fn) in
    let next = Array.make n 0.0 in
    let iter = ref 0 in
    let delta = ref infinity in
    while !iter < max_iter && !delta > tol do
      Array.fill next 0 n 0.0;
      (* Push each vertex's rank share to its neighbors; dangling (isolated)
         mass is redistributed uniformly. *)
      let dangling = ref 0.0 in
      for u = 0 to n - 1 do
        let d = Graph.degree g u in
        if d = 0 then dangling := !dangling +. rank.(u)
        else begin
          let share = rank.(u) /. float_of_int d in
          Graph.iter_neighbors g u (fun v -> next.(v) <- next.(v) +. share)
        end
      done;
      let base = ((1.0 -. damping) /. fn) +. (damping *. !dangling /. fn) in
      delta := 0.0;
      for v = 0 to n - 1 do
        let nv = base +. (damping *. next.(v)) in
        delta := !delta +. abs_float (nv -. rank.(v));
        rank.(v) <- nv
      done;
      incr iter
    done;
    rank
  end
