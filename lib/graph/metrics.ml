let average_degree g =
  if Graph.n g = 0 then 0.0
  else 2.0 *. float_of_int (Graph.m g) /. float_of_int (Graph.n g)

let power_law_exponent g =
  (* MLE alpha = 1 + n / sum ln(d / (dmin - 0.5)) with dmin = 2. *)
  let dmin = 2.0 in
  let acc = ref 0.0 and count = ref 0 in
  for u = 0 to Graph.n g - 1 do
    let d = Graph.degree g u in
    if float_of_int d >= dmin then begin
      acc := !acc +. log (float_of_int d /. (dmin -. 0.5));
      incr count
    end
  done;
  if !count = 0 || !acc = 0.0 then nan
  else 1.0 +. (float_of_int !count /. !acc)

let local_clustering g u =
  (* Read the neighbor segment in place — no fresh array per vertex. *)
  let off = Graph.csr_off g and adj = Graph.csr_adj g in
  let lo = off.(u) and hi = off.(u + 1) in
  let d = hi - lo in
  if d < 2 then 0.0
  else begin
    let links = ref 0 in
    for i = lo to hi - 1 do
      for j = i + 1 to hi - 1 do
        if Graph.mem_edge g adj.(i) adj.(j) then incr links
      done
    done;
    2.0 *. float_of_int !links /. float_of_int (d * (d - 1))
  end

let clustering_coefficient ?(samples = 2000) ~rng g =
  let candidates = ref [] in
  for u = 0 to Graph.n g - 1 do
    if Graph.degree g u >= 2 then candidates := u :: !candidates
  done;
  let cands = Array.of_list !candidates in
  let total = Array.length cands in
  if total = 0 then 0.0
  else begin
    let chosen =
      if total <= samples then cands
      else begin
        let idx = Broker_util.Sampling.without_replacement rng ~n:total ~k:samples in
        Array.map (fun i -> cands.(i)) idx
      end
    in
    let sum = Array.fold_left (fun acc u -> acc +. local_clustering g u) 0.0 chosen in
    sum /. float_of_int (Array.length chosen)
  end

let hop_distance_sample ~rng ~sources g =
  let n = Graph.n g in
  if n = 0 then [||]
  else begin
    let k = min sources n in
    let srcs = Broker_util.Sampling.without_replacement rng ~n ~k in
    let acc = ref [] in
    Array.iter
      (fun s ->
        let dist = Bfs.distances g s in
        Array.iter (fun d -> if d > 0 then acc := d :: !acc) dist)
      srcs;
    Array.of_list !acc
  end

let degree_assortativity g =
  let m = Graph.m g in
  if m = 0 then 0.0
  else begin
    let xs = Array.make m 0.0 and ys = Array.make m 0.0 in
    let i = ref 0 in
    Graph.iter_edges g (fun u v ->
        xs.(!i) <- float_of_int (Graph.degree g u);
        ys.(!i) <- float_of_int (Graph.degree g v);
        incr i);
    (* Symmetrize: each edge contributes both orientations. *)
    let xs' = Array.append xs ys and ys' = Array.append ys xs in
    Broker_util.Stats.pearson xs' ys'
  end
