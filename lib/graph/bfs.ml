(* Observability (Broker_obs): one run per traversal and the vertices it
   reached, both commutative int sums, so totals are deterministic and
   REPRO_DOMAINS-independent. *)
module Obs = Broker_obs

let m_runs = Obs.Metrics.counter "bfs.runs"
let m_settled = Obs.Metrics.counter "bfs.settled"

let count_run reached =
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_settled reached

let generic g ~edge_ok ~max_depth srcs =
  let n = Graph.n g in
  (* Validate every source before touching any state: a bad source must not
     leave earlier sources enqueued in a half-initialized traversal for
     callers that catch the exception. *)
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Bfs: source out of range")
    srcs;
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  List.iter
    (fun s ->
      if dist.(s) < 0 then begin
        dist.(s) <- 0;
        queue.(!tail) <- s;
        incr tail
      end)
    srcs;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) in
    if du < max_depth then
      Graph.iter_neighbors g u (fun v ->
          if dist.(v) < 0 && edge_ok u v then begin
            dist.(v) <- du + 1;
            queue.(!tail) <- v;
            incr tail
          end)
  done;
  count_run !tail;
  dist

let all_edges _ _ = true

let distances g src = generic g ~edge_ok:all_edges ~max_depth:max_int [ src ]

let distances_bounded g ~max_depth src =
  generic g ~edge_ok:all_edges ~max_depth [ src ]

let distances_filtered g ~edge_ok src =
  generic g ~edge_ok ~max_depth:max_int [ src ]

let distances_multi g srcs = generic g ~edge_ok:all_edges ~max_depth:max_int srcs

let parents g src =
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  seen.(src) <- true;
  queue.(!tail) <- src;
  incr tail;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Graph.iter_neighbors g u (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          parent.(v) <- u;
          queue.(!tail) <- v;
          incr tail
        end)
  done;
  count_run !tail;
  parent

let path_to ~parents ~src dst =
  if src = dst then [ src ]
  else if parents.(dst) < 0 then []
  else begin
    let rec walk v acc =
      if v = src then src :: acc
      else begin
        let p = parents.(v) in
        if p < 0 then [] else walk p (v :: acc)
      end
    in
    walk dst []
  end
