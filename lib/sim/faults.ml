module G = Broker_graph.Graph
module T = Broker_topo.Topology
module X = Broker_util.Xrandom

type kind = Crash | Recover

type event = { time : float; broker : int; kind : kind }

type scenario =
  | Independent of { mtbf : float; mttr : float }
  | Degree_targeted of { mtbf : float; mttr : float; bias : float }
  | Ixp_outage of { mtbf : float; mttr : float }

let validate ~mtbf ~mttr =
  if Float.is_nan mtbf || mtbf <= 0.0 then
    invalid_arg "Faults.generate: mtbf must be positive";
  if Float.is_nan mttr || mttr <= 0.0 || mttr = infinity then
    invalid_arg "Faults.generate: mttr must be positive and finite"

(* Alternating up/down renewal process clipped to [0, horizon]. Every Crash
   gets a matching Recover (clamped to the horizon), so down intervals are
   always well-formed crash/recover pairs. *)
let renewal rng ~mtbf ~mttr ~horizon ~emit target =
  if mtbf < infinity then begin
    let t = ref 0.0 in
    let continue = ref true in
    while !continue do
      let crash = !t +. X.exponential rng (1.0 /. mtbf) in
      if crash >= horizon then continue := false
      else begin
        let recover = crash +. X.exponential rng (1.0 /. mttr) in
        emit ~crash ~recover:(Float.min recover horizon) target;
        t := recover;
        if recover >= horizon then continue := false
      end
    done
  end

let generate ~rng topo ~brokers ~horizon scenario =
  if Float.is_nan horizon || horizon < 0.0 then
    invalid_arg "Faults.generate: horizon must be >= 0";
  let events = ref [] in
  let n_emitted = ref 0 in
  let push time broker kind =
    events := (!n_emitted, { time; broker; kind }) :: !events;
    incr n_emitted
  in
  let emit1 ~crash ~recover b =
    push crash b Crash;
    push recover b Recover
  in
  (match scenario with
  | Independent { mtbf; mttr } ->
      validate ~mtbf ~mttr;
      (* One split stream per broker, in array order: the draw sequence of
         broker [i] is independent of every other broker's parameters. *)
      Array.iter
        (fun b -> renewal (X.split rng) ~mtbf ~mttr ~horizon ~emit:emit1 b)
        brokers
  | Degree_targeted { mtbf; mttr; bias } ->
      validate ~mtbf ~mttr;
      if Float.is_nan bias || bias < 0.0 then
        invalid_arg "Faults.generate: bias must be >= 0";
      let g = topo.T.graph in
      let deg b = float_of_int (max 1 (G.degree g b)) in
      let mean_deg =
        if Array.length brokers = 0 then 1.0
        else
          Array.fold_left (fun acc b -> acc +. deg b) 0.0 brokers
          /. float_of_int (Array.length brokers)
      in
      Array.iter
        (fun b ->
          (* Hubs fail more often: failure rate scales with (deg/mean)^bias,
             so the broker-averaged rate stays ~1/mtbf. *)
          let mtbf_b = mtbf *. ((mean_deg /. deg b) ** bias) in
          renewal (X.split rng) ~mtbf:mtbf_b ~mttr ~horizon ~emit:emit1 b)
        brokers
  | Ixp_outage { mtbf; mttr } ->
      validate ~mtbf ~mttr;
      let g = topo.T.graph in
      let n = G.n g in
      let is_broker = Array.make n false in
      Array.iter (fun b -> if b >= 0 && b < n then is_broker.(b) <- true) brokers;
      (* A facility outage takes down the IXP node itself (when it is a
         broker) plus every broker member of the fabric, simultaneously. *)
      Array.iter
        (fun x ->
          let members = ref [] in
          if is_broker.(x) then members := x :: !members;
          G.iter_neighbors g x (fun b -> if is_broker.(b) then members := b :: !members);
          let members = List.sort_uniq Int.compare !members in
          if members <> [] then
            let emit_group ~crash ~recover () =
              List.iter
                (fun b ->
                  push crash b Crash;
                  push recover b Recover)
                members
            in
            renewal (X.split rng) ~mtbf ~mttr ~horizon ~emit:emit_group ())
        (T.ixps topo));
  let arr = Array.of_list !events in
  (* Time order with emission-order tie-break: deterministic and stable. *)
  Array.sort
    (fun (i, a) (j, b) ->
      let c = Float.compare a.time b.time in
      if c <> 0 then c else Int.compare i j)
    arr;
  Array.map snd arr

(* Deterministic phased churn: each phase holds a fixed down-set for a
   fixed duration. At every boundary the previous down-set is diffed
   against the next one — recovers are emitted before crashes (both in
   ascending broker order) so the event-queue FIFO tie-break serves the
   returning brokers first. After the last phase everything still down
   recovers, keeping crash/recover pairs matched. *)
let phased phases =
  let events = ref [] in
  let push time broker kind = events := { time; broker; kind } :: !events in
  let t = ref 0.0 in
  let prev = ref [||] in
  List.iter
    (fun (duration, down) ->
      if Float.is_nan duration || duration <= 0.0 then
        invalid_arg "Faults.phased: phase duration must be positive";
      let down = Array.of_list (List.sort_uniq Int.compare (Array.to_list down)) in
      Array.iter
        (fun b ->
          if b < 0 then invalid_arg "Faults.phased: broker id must be >= 0")
        down;
      let mem arr b = Array.exists (fun x -> x = b) arr in
      Array.iter (fun b -> if not (mem down b) then push !t b Recover) !prev;
      Array.iter (fun b -> if not (mem !prev b) then push !t b Crash) down;
      prev := down;
      t := !t +. duration)
    phases;
  Array.iter (fun b -> push !t b Recover) !prev;
  Array.of_list (List.rev !events)

let thin ~rng ~keep events =
  if Float.is_nan keep then invalid_arg "Faults.thin: keep must be a number";
  (* FIFO-match each broker's Crash with its next Recover and decide per
     pair. The uniform draw happens for every pair regardless of [keep], in
     stream order, so two calls seeded identically but with different [keep]
     values produce nested outage sets (the coupling that makes availability
     sweeps sample-wise monotone). *)
  let pending : (int, bool Queue.t) Hashtbl.t = Hashtbl.create 16 in
  let out = ref [] in
  Array.iter
    (fun e ->
      match e.kind with
      | Crash ->
          let u = X.float rng 1.0 in
          let d = u < keep in
          let q =
            match Hashtbl.find_opt pending e.broker with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.replace pending e.broker q;
                q
          in
          Queue.push d q;
          if d then out := e :: !out
      | Recover ->
          let d =
            match Hashtbl.find_opt pending e.broker with
            | Some q when not (Queue.is_empty q) -> Queue.pop q
            | Some _ | None -> false
          in
          if d then out := e :: !out)
    events;
  Array.of_list (List.rev !out)
