module T = Broker_topo.Topology

(* A generated topology and, once asked for, its MaxSG order. *)
type scene = { s_topo : T.t; mutable s_maxsg : int array option }

type t = {
  scale : float;
  sources : int;
  seed : int;
  mutable rng_counter : int;
  mutable scenes : (float * scene) list;  (* one per scale, built on first use *)
  mutable greedy : int array option;
  mutable free : Broker_core.Connectivity.curve option;
  mutable source_sample : int array option;
  mutable quick_sample : int array option;
}

let create ?(scale = 1.0) ?(sources = 192) ?(seed = 42) () =
  if scale <= 0.0 || scale > 1.0 then invalid_arg "Ctx.create: scale in (0,1]";
  if sources < 1 then invalid_arg "Ctx.create: sources >= 1";
  {
    scale;
    sources;
    seed;
    rng_counter = 0;
    scenes = [];
    greedy = None;
    free = None;
    source_sample = None;
    quick_sample = None;
  }

(* Unset or empty keeps the default; anything else must parse and lie in
   range. *)
let env name ~expected ~parse default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
      match parse s with
      | Some v -> v
      | None ->
          invalid_arg (Printf.sprintf "%s: expected %s, got %S" name expected s))

let from_env () =
  let scale =
    env "REPRO_SCALE" ~expected:"a number in (0, 1]" 1.0 ~parse:(fun s ->
        Option.bind (float_of_string_opt s) (fun x ->
            if x > 0.0 && x <= 1.0 then Some x else None))
  in
  let sources =
    env "REPRO_SOURCES" ~expected:"an integer >= 1" 192 ~parse:(fun s ->
        Option.bind (int_of_string_opt s) (fun k -> if k >= 1 then Some k else None))
  in
  let seed = env "REPRO_SEED" ~expected:"an integer" 42 ~parse:int_of_string_opt in
  create ~scale ~sources ~seed ()

let scale t = t.scale
let sources t = t.sources
let seed t = t.seed

let rng t =
  t.rng_counter <- t.rng_counter + 1;
  Broker_util.Xrandom.create ((t.seed * 1_000_003) + t.rng_counter)

let scene t scale =
  match List.find_opt (fun (s, _) -> Float.equal s scale) t.scenes with
  | Some (_, sc) -> sc
  | None ->
      let params = { (Broker_topo.Internet.scaled scale) with seed = t.seed } in
      let sc = { s_topo = Broker_topo.Internet.generate params; s_maxsg = None } in
      t.scenes <- (scale, sc) :: t.scenes;
      sc

let topo_at t scale = (scene t scale).s_topo

let maxsg_order_at t scale =
  let sc = scene t scale in
  match sc.s_maxsg with
  | Some order -> order
  | None ->
      let order = Broker_core.Maxsg.run_to_saturation sc.s_topo.T.graph in
      sc.s_maxsg <- Some order;
      order

let topo t = topo_at t t.scale
let graph t = (topo t).T.graph
let maxsg_order t = maxsg_order_at t t.scale
let sim_scale t = Float.min t.scale 0.05

let sim_brokers t =
  let order = maxsg_order_at t (sim_scale t) in
  let k = max 8 (int_of_float (1000.0 *. sim_scale t)) in
  Array.sub order 0 (min (Array.length order) k)

let greedy_order t =
  match t.greedy with
  | Some order -> order
  | None ->
      let budget = Array.length (maxsg_order t) in
      let order = Broker_core.Greedy_mcb.celf (graph t) ~k:budget in
      t.greedy <- Some order;
      order

let scale_count t count = max 1 (int_of_float (float_of_int count *. t.scale))

let source_sample t =
  match t.source_sample with
  | Some s -> s
  | None ->
      let g = graph t in
      let n = Broker_graph.Graph.n g in
      let k = min t.sources n in
      let s =
        Broker_util.Sampling.without_replacement
          (Broker_util.Xrandom.create (t.seed + 7777))
          ~n ~k
      in
      t.source_sample <- Some s;
      s

let quick_sample t =
  match t.quick_sample with
  | Some s -> s
  | None ->
      let g = graph t in
      let n = Broker_graph.Graph.n g in
      let k = min 64 n in
      let s =
        Broker_util.Sampling.without_replacement
          (Broker_util.Xrandom.create (t.seed + 8888))
          ~n ~k
      in
      t.quick_sample <- Some s;
      s

let directional_sources t =
  let s = source_sample t in
  Array.sub s 0 (min 96 (Array.length s))

(* Shared fixed-source evaluator: common random numbers across broker
   sets. *)
let eval_curve ?srcs t ~l_max ~is_broker =
  let g = graph t in
  let srcs = match srcs with Some s -> s | None -> source_sample t in
  Broker_core.Connectivity.eval_sources ~l_max g ~is_broker srcs

let curve t ?(l_max = 10) brokers =
  let n = Broker_graph.Graph.n (graph t) in
  eval_curve t ~l_max ~is_broker:(Broker_core.Connectivity.of_brokers ~n brokers)

let saturated t ~brokers =
  (curve t ~l_max:1 brokers).Broker_core.Connectivity.saturated

let quick_saturated t ~brokers =
  let n = Broker_graph.Graph.n (graph t) in
  let is_broker = Broker_core.Connectivity.of_brokers ~n brokers in
  (eval_curve ~srcs:(quick_sample t) t ~l_max:1 ~is_broker)
    .Broker_core.Connectivity.saturated

let free_curve t =
  match t.free with
  | Some c -> c
  | None ->
      let c = eval_curve t ~l_max:10 ~is_broker:Broker_core.Connectivity.unrestricted in
      t.free <- Some c;
      c
