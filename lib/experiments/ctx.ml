module T = Broker_topo.Topology

type t = {
  scale : float;
  sources : int;
  seed : int;
  mutable rng_counter : int;
  mutable topo : T.t option;
  mutable maxsg : int array option;
  mutable sim_topo : T.t option;
  mutable sim_maxsg : int array option;
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
    topo = None;
    maxsg = None;
    sim_topo = None;
    sim_maxsg = None;
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

let params t =
  if t.scale >= 1.0 then { Broker_topo.Internet.default with seed = t.seed }
  else { (Broker_topo.Internet.scaled t.scale) with seed = t.seed }

let topo t =
  match t.topo with
  | Some topo -> topo
  | None ->
      let topo = Broker_topo.Internet.generate (params t) in
      t.topo <- Some topo;
      topo

let graph t = (topo t).T.graph

let maxsg_order t =
  match t.maxsg with
  | Some order -> order
  | None ->
      let order = Broker_core.Maxsg.run_to_saturation (graph t) in
      t.maxsg <- Some order;
      order

(* The simulator experiments cap the topology at scale 0.05. At or below
   the cap that is [params t] itself, so they reuse {!topo} and
   {!maxsg_order}; above it the capped scene is generated once. *)
let sim_scale t = Float.min t.scale 0.05

let sim_topo t =
  if t.scale <= 0.05 then topo t
  else
    match t.sim_topo with
    | Some topo -> topo
    | None ->
        let topo =
          Broker_topo.Internet.generate
            { (Broker_topo.Internet.scaled (sim_scale t)) with seed = t.seed }
        in
        t.sim_topo <- Some topo;
        topo

let sim_maxsg_order t =
  if t.scale <= 0.05 then maxsg_order t
  else
    match t.sim_maxsg with
    | Some order -> order
    | None ->
        let order = Broker_core.Maxsg.run_to_saturation (sim_topo t).T.graph in
        t.sim_maxsg <- Some order;
        order

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
