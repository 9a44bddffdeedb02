module G = Broker_graph.Graph
module View = Broker_graph.View

let is_dominated_path ~is_broker path =
  let rec check = function
    | u :: (v :: _ as rest) -> (is_broker u || is_broker v) && check rest
    | [ _ ] | [] -> true
  in
  check path

(* One search workspace per domain, reused by every call on that domain
   and grown to the largest graph seen. A vertex [y] is discovered in the
   current search iff [stamp.(y) = epoch], and [parent.(y)] is only
   meaningful under that guard, so a search starts with an epoch bump
   instead of clearing or allocating n-word arrays. *)
type workspace = {
  mutable epoch : int;
  mutable stamp : int array;
  mutable parent : int array;
  mutable queue : int array;
}

let workspace_key =
  Domain.DLS.new_key (fun () ->
      { epoch = 0; stamp = [||]; parent = [||]; queue = [||] })

let ensure ws n =
  if Array.length ws.stamp < n then begin
    ws.stamp <- Array.make n 0;
    ws.parent <- Array.make n 0;
    ws.queue <- Array.make n 0;
    (* Fresh stamps are all 0; the epoch bump of the next search makes
       it 1, so no vertex starts out discovered. *)
    ws.epoch <- 0
  end

(* FIFO breadth-first search over the dominated arcs (an arc is usable
   when either endpoint is a broker) from [u], stopping once [v] has been
   discovered; each vertex keeps its first discoverer as parent. The
   segment of the dequeued vertex is selected inline as in
   [Projected.project_view], so the loops allocate nothing; the only
   allocation is the exact-length result. *)
let[@brokercheck.noalloc] find_dominated_path_view vw ~is_broker u v =
  let n = vw.View.n in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Dominating.find_dominated_path: endpoint out of range";
  let ws = Domain.DLS.get workspace_key in
  ensure ws n;
  ws.epoch <- ws.epoch + 1;
  let epoch = ws.epoch in
  let stamp = ws.stamp and parent = ws.parent and queue = ws.queue in
  let off = vw.View.off and adj = vw.View.adj in
  let ov = vw.View.overlaid in
  let dirty = vw.View.dirty and xoff = vw.View.xoff and xadj = vw.View.xadj in
  stamp.(u) <- epoch;
  queue.(0) <- u;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail && stamp.(v) <> epoch do
    let x = Array.unsafe_get queue !head in
    incr head;
    let bx = is_broker x in
    let dx = ov && Array.unsafe_get dirty x in
    let a = if dx then xadj else adj in
    let lo = if dx then Array.unsafe_get xoff x else Array.unsafe_get off x in
    let hi =
      if dx then Array.unsafe_get xoff (x + 1)
      else Array.unsafe_get off (x + 1)
    in
    for i = lo to hi - 1 do
      let y = Array.unsafe_get a i in
      if Array.unsafe_get stamp y <> epoch && (bx || is_broker y) then begin
        Array.unsafe_set stamp y epoch;
        Array.unsafe_set parent y x;
        Array.unsafe_set queue !tail y;
        incr tail
      end
    done
  done;
  if stamp.(v) <> epoch then [||]
  else begin
    let len = ref 1 and x = ref v in
    while !x <> u do
      x := parent.(!x);
      incr len
    done;
    let path = Array.make !len u in
    x := v;
    for i = !len - 1 downto 1 do
      path.(i) <- !x;
      x := parent.(!x)
    done;
    path
  end

let find_dominated_path g ~is_broker u v =
  Array.to_list (find_dominated_path_view (View.of_graph g) ~is_broker u v)

type broker_only = {
  broker_only_pairs : float;
  saturated_pairs : float;
  ratio : float;
}

let broker_only_fraction ~rng ~sources g ~brokers =
  let n = G.n g in
  let is_broker = Connectivity.of_brokers ~n brokers in
  (* Components of the broker-induced subgraph. *)
  let uf = Broker_util.Union_find.create n in
  Array.iter
    (fun b -> G.iter_neighbors g b (fun w -> if is_broker w then ignore (Broker_util.Union_find.union uf b w)))
    brokers;
  let comp_id = Hashtbl.create 64 in
  let next_id = ref 0 in
  let id_of root =
    match Hashtbl.find_opt comp_id root with
    | Some id -> id
    | None ->
        let id = !next_id in
        incr next_id;
        Hashtbl.replace comp_id root id;
        id
  in
  (* Per-vertex list of adjacent broker components (deduplicated). *)
  let adj_comps =
    Array.init n (fun v ->
        let acc = ref [] in
        let push b =
          let id = id_of (Broker_util.Union_find.find uf b) in
          if not (List.mem id !acc) then acc := id :: !acc
        in
        if is_broker v then push v;
        G.iter_neighbors g v (fun w -> if is_broker w then push w);
        Array.of_list !acc)
  in
  let n_comps = !next_id in
  let mark = Array.make (max n_comps 1) (-1) in
  let k = min sources n in
  let srcs = Broker_util.Sampling.without_replacement rng ~n ~k in
  let broker_only = ref 0 and total = ref 0 in
  Array.iteri
    (fun stamp u ->
      Array.iter (fun c -> mark.(c) <- stamp) adj_comps.(u);
      for v = 0 to n - 1 do
        if v <> u then begin
          incr total;
          if Array.exists (fun c -> mark.(c) = stamp) adj_comps.(v) then
            incr broker_only
        end
      done)
    srcs;
  (* Pairs with any dominated path, over the same sources and the same
     [k * (n - 1)] pair total: the connectivity engine's saturated
     fraction. *)
  let saturated_pairs =
    (Connectivity.eval_sources ~l_max:1 g ~is_broker srcs).Connectivity.saturated
  in
  let broker_only_pairs =
    float_of_int !broker_only /. float_of_int (max 1 !total)
  in
  {
    broker_only_pairs;
    saturated_pairs;
    ratio = (if saturated_pairs = 0.0 then 0.0 else broker_only_pairs /. saturated_pairs);
  }
