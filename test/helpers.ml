(* Shared test fixtures and small graph builders. *)

module G = Broker_graph.Graph

let rng () = Broker_util.Xrandom.create 12345

(* Neighbors of [u] in adjacency order. *)
let neighbor_list g u = List.rev (G.fold_neighbors g u (fun acc v -> v :: acc) [])

(* Path 0-1-2-...-(n-1). *)
let path_graph n = G.of_edges ~n (Array.init (n - 1) (fun i -> (i, i + 1)))

(* Cycle. *)
let cycle_graph n =
  G.of_edges ~n (Array.init n (fun i -> (i, (i + 1) mod n)))

(* Star with center 0. *)
let star_graph n = G.of_edges ~n (Array.init (n - 1) (fun i -> (0, i + 1)))

(* Complete graph. *)
let clique_graph n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  G.of_edges ~n (Array.of_list !edges)

(* Two triangles joined by one bridge: 0-1-2-0, 3-4-5-3, bridge 2-3. *)
let barbell_graph () =
  G.of_edges ~n:6 [| (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) |]

(* Random connected-ish graph generator for qcheck. *)
let random_graph rng ~n ~m =
  let edges =
    Array.init m (fun _ ->
        (Broker_util.Xrandom.int rng n, Broker_util.Xrandom.int rng n))
  in
  (* A spanning chain keeps most of it connected. *)
  let chain = Array.init (n - 1) (fun i -> (i, i + 1)) in
  G.of_edges ~n (Array.append edges chain)

let small_internet ?(seed = 77) ?(scale = 0.01) () =
  Broker_topo.Internet.generate
    { (Broker_topo.Internet.scaled scale) with Broker_topo.Internet.seed }

(* qcheck arbitrary for small random graphs, shrinking-free. *)
let graph_arbitrary =
  QCheck.make
    ~print:(fun g -> Printf.sprintf "<graph n=%d m=%d>" (G.n g) (G.m g))
    QCheck.Gen.(
      int_range 2 40 >>= fun n ->
      int_range 0 80 >>= fun m ->
      int_range 0 1_000_000 >|= fun seed ->
      random_graph (Broker_util.Xrandom.create seed) ~n ~m)

(* Every property test is registered through [qcheck]. It runs at a
   pinned seed, so a failure replays on every rerun, unless qcheck's own
   [QCHECK_SEED] variable is set: then qcheck-alcotest draws from that
   seed (and prints it), which is how CI explores fresh seeds. *)
let qcheck ?(seed = 42) test =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some _ -> QCheck_alcotest.to_alcotest test
  | None -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* Run [f] with environment variable [name] set to [v], then restore it.
   There is no unsetenv: a variable that was unset comes back as "", which
   the REPRO_* readers treat as unset. *)
let with_env name v f =
  let saved = Sys.getenv_opt name in
  Unix.putenv name v;
  Fun.protect ~finally:(fun () -> Unix.putenv name (Option.value ~default:"" saved)) f

(* Run [f] under a pinned REPRO_DOMAINS. *)
let with_domains v f = with_env "REPRO_DOMAINS" v f

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
