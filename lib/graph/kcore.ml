let coreness g =
  let n = Graph.n g in
  let deg = Array.make n 0 in
  Graph.degrees_into g deg;
  let max_deg = Array.fold_left max 0 deg in
  (* Bucket sort vertices by current degree. *)
  let bin = Array.make (max_deg + 1) 0 in
  Array.iter (fun d -> bin.(d) <- bin.(d) + 1) deg;
  let start = ref 0 in
  for d = 0 to max_deg do
    let count = bin.(d) in
    bin.(d) <- !start;
    start := !start + count
  done;
  let pos = Array.make n 0 in
  let vert = Array.make n 0 in
  Array.iteri
    (fun v d ->
      pos.(v) <- bin.(d);
      vert.(bin.(d)) <- v;
      bin.(d) <- bin.(d) + 1)
    deg;
  (* Restore bucket starts. *)
  for d = max_deg downto 1 do
    bin.(d) <- bin.(d - 1)
  done;
  if max_deg >= 0 then bin.(0) <- 0;
  let core = Array.copy deg in
  for i = 0 to n - 1 do
    let v = vert.(i) in
    Graph.iter_neighbors g v (fun u ->
        if core.(u) > core.(v) then begin
          (* Move u one bucket down by swapping it with the first vertex of
             its bucket. *)
          let du = core.(u) in
          let pu = pos.(u) in
          let pw = bin.(du) in
          let w = vert.(pw) in
          if u <> w then begin
            pos.(u) <- pw;
            pos.(w) <- pu;
            vert.(pu) <- w;
            vert.(pw) <- u
          end;
          bin.(du) <- bin.(du) + 1;
          core.(u) <- du - 1
        end)
  done;
  core
