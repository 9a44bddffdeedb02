module G = Broker_graph.Graph
module X = Broker_util.Xrandom
module Obs = Broker_obs

(* Event-loop probes: every counter below is driven by the simulated
   structure (event kinds, cache membership, breaker excursions), so all
   are deterministic for a fixed seed and diffable run-to-run. *)
let m_ev_depart = Obs.Metrics.counter "sim.events.depart"
let m_ev_fault = Obs.Metrics.counter "sim.events.fault"
let m_ev_retry = Obs.Metrics.counter "sim.events.retry"
let m_ev_topo = Obs.Metrics.counter "sim.events.topo_update"
let m_topo_applied = Obs.Metrics.counter "sim.topo.applied"
let m_topo_ignored = Obs.Metrics.counter "sim.topo.ignored"
let m_failovers = Obs.Metrics.counter "sim.failovers"
let m_drops = Obs.Metrics.counter "sim.dropped_midflight"
let m_retries_scheduled = Obs.Metrics.counter "sim.retries_scheduled"
let m_breaker_trips = Obs.Metrics.counter "sim.breaker_trips"
let g_queue_depth = Obs.Metrics.gauge "sim.queue.max_depth"
let t_sim = Obs.Trace.scope "simulator.run"

(* brokerstat timelines: windowed series keyed on the simulation clock,
   collected only when [run ?stats_window] asks for them. Counter series
   hold per-window event tallies; latency series additionally sketch
   their samples in Timeseries fixed-point micro-units of sim-time.
   All are deterministic for a fixed seed/scale — the window key is
   sim-time, never wall-clock. *)
let ts_admitted = Obs.Timeseries.series "sim.ts.admitted"
let ts_delivered = Obs.Timeseries.series "sim.ts.delivered"
let ts_rejected = Obs.Timeseries.series "sim.ts.rejected"
let ts_lookups = Obs.Timeseries.series "sim.ts.cache.lookups"
let ts_recomputes = Obs.Timeseries.series "sim.ts.cache.recomputes"
let ts_queue_wait = Obs.Timeseries.series "sim.ts.latency.queue_wait"
let ts_admission = Obs.Timeseries.series "sim.ts.latency.admission"
let ts_failover = Obs.Timeseries.series "sim.ts.latency.failover"
let ts_e2e = Obs.Timeseries.series "sim.ts.latency.e2e"

let timeline_series =
  [ ts_admitted; ts_delivered; ts_rejected; ts_lookups; ts_recomputes;
    ts_queue_wait; ts_admission; ts_failover; ts_e2e ]

let timeline_names = List.map Obs.Timeseries.name timeline_series

type config = {
  capacity_of : int -> float;
  price : float;
  employee_cost : float;
}

let uniform_capacity c =
  { capacity_of = (fun _ -> c); price = 1.0; employee_cost = 0.2 }

let degree_capacity g ~factor =
  {
    capacity_of = (fun v -> factor *. float_of_int (max 1 (G.degree g v)));
    price = 1.0;
    employee_cost = 0.2;
  }

type retry_policy = {
  max_attempts : int;
  base_delay : float;
  multiplier : float;
  jitter : float;
}

let no_retry = { max_attempts = 0; base_delay = 1.0; multiplier = 2.0; jitter = 0.0 }
let default_retry = { max_attempts = 3; base_delay = 1.0; multiplier = 2.0; jitter = 0.5 }

type breaker_policy = { high_water : float; trip_after : float; cooldown : float }

type chaos = {
  faults : Faults.event array;
  failover : bool;
  retry : retry_policy;
  breaker : breaker_policy option;
  chaos_seed : int;
}

let default_chaos faults =
  { faults; failover = true; retry = default_retry; breaker = None; chaos_seed = 97 }

type topo_churn = {
  updates : Topo_stream.event array;  (* origin-time announce/withdraws *)
  propagation : Topo_stream.propagation;
}

type stats = {
  offered : int;
  admitted : int;
  rejected_no_path : int;
  rejected_capacity : int;
  rejected_shed : int;
  admission_rate : float;
  mean_hops : float;
  employee_hop_fraction : float;
  peak_in_flight : int;
  mean_broker_utilization : float;
  revenue : float;
  failed_over : int;
  dropped_midflight : int;
  retried_admitted : int;
  broker_downtime : float;
  revenue_lost : float;
  availability : float;
  topo_applied : int;
  topo_ignored : int;
  cache : Shard_cache.stats;
}

(* An admitted session's live reservation. [path_brokers] (broker
   indices) is replaced on failover; [active] flips off at departure or
   mid-flight drop so a stale departure event is a no-op. *)
type live = {
  s : Workload.session;
  admitted_at : float;  (* admission instant; departs [duration] later *)
  rev_rate : float;  (* net revenue per unit time, for drop refunds *)
  mutable path_brokers : int array;
  mutable active : bool;
}

type ev =
  | Depart of live
  | Fault of Faults.kind * int  (* broker index *)
  | Retry of Workload.session * int  (* next attempt number *)
  | Topo_update of Topo_stream.op  (* delivered announce/withdraw *)

type block_reason = No_path | Capacity | Shed
type reserved = Reserved | Blocked of block_reason

(* What an absent [?chaos] / [?topo] means, literally: no faults, no
   retries, no breaker, chaos seed 0 (so the cache and jitter seeds are
   [0x5A4D lxor 0] / [0x5EED lxor 0]), and an empty update stream. There
   is no separate plain-simulator path. *)
let no_chaos =
  { faults = [||]; failover = false; retry = no_retry; breaker = None; chaos_seed = 0 }

let no_churn =
  { updates = [||]; propagation = Topo_stream.Centralized { delay = 0.0 } }

(* [not (x >= 0.0)] also catches NaN. *)
let check_nonneg what x =
  if not (x >= 0.0) then invalid_arg ("Simulator.run: " ^ what ^ " must be >= 0")

(* Every event time must be finite: a NaN one compares false with every
   other and blocks the event queue behind it, and an infinite one
   stretches the horizon to infinity, where the utilization integral
   reads NaN. *)
let check_time what x =
  if Float.is_nan x then invalid_arg ("Simulator.run: " ^ what ^ " is NaN");
  if Float.abs x = infinity then invalid_arg ("Simulator.run: " ^ what ^ " is infinite")

(* A propagation delay is added to every update's origin time, so it must
   be finite too, and a negative one would deliver an update before it
   happened. *)
let check_delay what x =
  if not (x >= 0.0 && x < infinity) then
    invalid_arg ("Simulator.run: " ^ what ^ " must be finite and >= 0")

let validate ~n ~brokers ~sessions ~chaos ~churn ~stats_window config =
  check_nonneg "price" config.price;
  check_nonneg "employee_cost" config.employee_cost;
  Array.iter
    (fun b ->
      if b < 0 || b >= n then invalid_arg "Simulator.run: broker id out of range";
      check_nonneg "capacity_of" (config.capacity_of b))
    brokers;
  Option.iter
    (fun w -> if not (w > 0.0) then invalid_arg "Simulator.run: stats_window must be > 0")
    stats_window;
  (* A negative delay would schedule a retry before the block that caused
     it, running the utilization integral backwards. *)
  let r = chaos.retry in
  if r.max_attempts < 0 then
    invalid_arg "Simulator.run: retry max_attempts must be >= 0";
  check_nonneg "retry base_delay" r.base_delay;
  check_nonneg "retry multiplier" r.multiplier;
  check_nonneg "retry jitter" r.jitter;
  (* An infinite one would schedule a retry at t = infinity (see
     [check_time]). *)
  List.iter
    (fun (what, x) ->
      if x = infinity then invalid_arg ("Simulator.run: retry " ^ what ^ " must be finite"))
    [ ("base_delay", r.base_delay); ("multiplier", r.multiplier); ("jitter", r.jitter) ];
  Option.iter
    (fun bp ->
      check_nonneg "breaker high_water" bp.high_water;
      check_nonneg "breaker trip_after" bp.trip_after;
      check_nonneg "breaker cooldown" bp.cooldown)
    chaos.breaker;
  Array.iter
    (fun (e : Faults.event) ->
      if e.Faults.broker < 0 || e.Faults.broker >= n then
        invalid_arg "Simulator.run: fault broker id out of range";
      check_time "fault time" e.Faults.time)
    chaos.faults;
  (match churn.propagation with
  | Topo_stream.Centralized { delay } -> check_delay "Centralized delay" delay
  | Topo_stream.Bgp_like { base; per_hop } ->
      check_delay "Bgp_like base" base;
      check_delay "Bgp_like per_hop" per_hop);
  Array.iter
    (fun (e : Topo_stream.event) ->
      let u, v = Topo_stream.op_endpoints e.Topo_stream.op in
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Simulator.run: topo update endpoint out of range";
      check_time "topo update time" e.Topo_stream.time)
    churn.updates;
  Array.iteri
    (fun i (s : Workload.session) ->
      check_time "session arrival" s.Workload.arrival;
      check_time "session duration" s.Workload.duration;
      (* A negative duration departs before it arrives, running the
         utilization integral and the revenue backwards. *)
      check_delay "session duration" s.Workload.duration;
      if i > 0 && not (s.Workload.arrival >= sessions.(i - 1).Workload.arrival) then
        invalid_arg "Simulator.run: sessions not sorted by arrival")
    sessions

(* The run's float sums, in a record of floats alone: OCaml stores its
   fields flat, so writing one allocates nothing. *)
type sums = {
  mutable horizon : float;  (* latest arrival or event served, >= 0 *)
  mutable downtime : float;
  mutable revenue : float;
  mutable revenue_lost : float;
}

(* Everything one run mutates. Handlers below take it explicitly; [run]
   is validate → build the state → one event loop → finalize.

   The brokers are numbered 0 .. nb-1 in ascending vertex id ([bids]),
   and [bidx] maps a vertex to its broker index, -1 for a non-broker. All
   accounting lives in arrays over that index, so a run allocates per
   broker, not per vertex, apart from [bidx] and the [live] bytes. *)
type state = {
  config : config;
  chaos : chaos;
  jitter_rng : X.t;
  tl_on : bool;  (* [?stats_window] given: fill the timelines *)
  bids : int array;
  bidx : int array;
  (* Per vertex, [\001] for a broker that is up: a down broker stops
     being a broker — it neither dominates edges nor carries
     reservations — but keeps forwarding as a plain AS, mirroring
     Broker_core.Resilience. The path search and the broker filter read
     it. *)
  live : Bytes.t;
  is_live : int -> bool;  (* reads [live]; the search's predicate *)
  capacity : float array;  (* [config.capacity_of], read once *)
  (* Outage depth (correlated scenarios can crash an already-down
     broker) and the start of the current outage. *)
  down : int array;
  down_since : float array;
  mutable total_down : int;
  (* Capacity accounting with lazy time-integrated usage; [last_change]
     is [nan] until a broker is first touched. *)
  used : float array;
  area : float array;
  last_change : float array;
  (* Admission circuit breaker: how long a broker's utilization has been
     continuously at or above the high-water mark. Empty without one. *)
  above_since : float array;
  tripped_until : float array;
  (* The sessions riding each broker, newest first. A departure or a
     failover leaves its entries behind; a list is pruned to its active
     riders when it doubles, and a crash takes the whole list. *)
  riders : live list array;
  rider_count : int array;
  prune_at : int array;
  (* Hop-shortest dominated path per distinct pair, cached under the
     current liveness; the policy lives in {!Shard_cache}, the simulator
     only reports liveness transitions to it. [compute] is the cache's
     miss closure, built once: it searches from [q_src] to [q_dst]. *)
  pcache : Shard_cache.t;
  compute : unit -> int array option;
  mutable q_src : int;
  mutable q_dst : int;
  (* The routed topology: a delta overlay over the base CSR, built at the
     first delivered update. Until then [view] is the zero-copy base. *)
  delta : Broker_graph.Delta.t Lazy.t;
  mutable view : Broker_graph.View.t;
  events : ev Event_queue.t;
  (* What the last successful {!reserve} booked. *)
  mutable r_path : int array;
  mutable r_brokers : int array;
  sums : sums;
  (* Tallies behind {!stats}. *)
  mutable offered : int;
  mutable admitted : int;
  mutable retried_admitted : int;
  mutable rejected_no_path : int;
  mutable rejected_capacity : int;
  mutable rejected_shed : int;
  mutable hops_total : int;
  mutable employee_hops_total : int;
  mutable in_flight : int;
  mutable peak_in_flight : int;
  mutable failed_over : int;
  mutable dropped_midflight : int;
  mutable topo_applied : int;
  mutable topo_ignored : int;
}

let[@inline] is_broker_live st v = Bytes.get st.live v <> '\000'

let search st =
  match
    Broker_core.Dominating.find_dominated_path_view st.view ~is_broker:st.is_live st.q_src
      st.q_dst
  with
  | [||] -> None
  | path -> Some path

let init ~(chaos : chaos) ~churn ~cache ~stats_window g ~brokers config =
  let n = G.n g in
  (* Timeline collection is strictly opt-in: with [?stats_window] absent
     not a single series is touched. *)
  Option.iter
    (fun w -> List.iter (Obs.Timeseries.restart ~window:w) timeline_series)
    stats_window;
  let bids = Array.of_list (List.sort_uniq Int.compare (Array.to_list brokers)) in
  let nb = Array.length bids in
  let bidx = Array.make n (-1) in
  Array.iteri (fun i b -> bidx.(b) <- i) bids;
  let live = Bytes.make n '\000' in
  Array.iter (fun b -> Bytes.set live b '\001') bids;
  let breaker_n = if Option.is_none chaos.breaker then 0 else nb in
  let pcache =
    Shard_cache.create ~strategy:cache ~seed:(0x5A4D lxor chaos.chaos_seed) ~n
      ~shards:brokers ()
  in
  let events = Event_queue.create () in
  (* Fault events enter the queue up front: at equal times they precede
     the departures/retries scheduled later (FIFO tie-break), which is the
     pessimistic order — a failure beats a same-instant departure. Events
     for vertices outside the broker set are ignored. *)
  Array.iter
    (fun (e : Faults.event) ->
      let bi = bidx.(e.Faults.broker) in
      if bi >= 0 then Event_queue.add events ~time:e.Faults.time (Fault (e.Faults.kind, bi)))
    chaos.faults;
  (* Topology updates enter at their *delivery* time under the selected
     propagation model — centralized feed or hop-by-hop BGP-like crawl
     towards the nearest broker (hop counts on the pre-update graph).
     Enqueued after the faults, so at equal times a fault is served
     first (same pessimistic tie-break). *)
  Array.iter
    (fun (e : Topo_stream.event) ->
      Event_queue.add events ~time:e.Topo_stream.time (Topo_update e.Topo_stream.op))
    (Topo_stream.schedule g ~brokers churn.propagation churn.updates);
  let rec st =
    {
      config;
      chaos;
      jitter_rng = X.create (0x5EED lxor chaos.chaos_seed);
      tl_on = Option.is_some stats_window;
      bids;
      bidx;
      live;
      is_live = (fun v -> Bytes.get live v <> '\000');
      capacity = Array.map config.capacity_of bids;
      down = Array.make nb 0;
      down_since = Array.make nb 0.0;
      total_down = 0;
      used = Array.make nb 0.0;
      area = Array.make nb 0.0;
      last_change = Array.make nb nan;
      above_since = Array.make breaker_n nan;
      tripped_until = Array.make breaker_n neg_infinity;
      riders = Array.make nb [];
      rider_count = Array.make nb 0;
      prune_at = Array.make nb 16;
      pcache;
      compute = (fun () -> search st);
      q_src = 0;
      q_dst = 0;
      delta = lazy (Broker_graph.Delta.create g);
      view = Broker_graph.View.of_graph g;
      events;
      r_path = [||];
      r_brokers = [||];
      sums = { horizon = 0.0; downtime = 0.0; revenue = 0.0; revenue_lost = 0.0 };
      offered = 0; admitted = 0; rejected_no_path = 0; rejected_capacity = 0;
      rejected_shed = 0; hops_total = 0; employee_hops_total = 0; in_flight = 0;
      peak_in_flight = 0; failed_over = 0; dropped_midflight = 0;
      retried_admitted = 0; topo_applied = 0; topo_ignored = 0;
    }
  in
  st

(* Timeline probes, gated on [?stats_window]: a window tally, and a
   latency sample of [t - since] in sim-time micro-units. *)
let[@inline] tl_add st ts t = if st.tl_on then Obs.Timeseries.add ts ~time:t 1

let tl_latency st ts t ~since =
  if st.tl_on then Obs.Timeseries.observe ts ~time:t (Obs.Timeseries.to_fp (t -. since))

(* A never-touched broker has held nothing, so it has no area to add. *)
let touch st b t =
  let lu = st.last_change.(b) in
  if not (Float.is_nan lu) then st.area.(b) <- st.area.(b) +. (st.used.(b) *. (t -. lu));
  st.last_change.(b) <- t

let update_water st b t =
  match st.chaos.breaker with
  | None -> ()
  | Some bp ->
      let cap = st.capacity.(b) in
      if cap > 0.0 then
        if not (st.used.(b) /. cap >= bp.high_water) then st.above_since.(b) <- nan
        else if Float.is_nan st.above_since.(b) then st.above_since.(b) <- t

let adjust st b t delta =
  touch st b t;
  st.used.(b) <- st.used.(b) +. delta;
  update_water st b t

let shedding st b t =
  match st.chaos.breaker with
  | None -> false
  | Some bp ->
      if t < st.tripped_until.(b) then true
      else if
        (not (Float.is_nan st.above_since.(b)))
        && t -. st.above_since.(b) >= bp.trip_after
      then begin
        Obs.Metrics.incr m_breaker_trips;
        st.tripped_until.(b) <- t +. bp.cooldown;
        (* A fresh sustained excursion is needed to re-trip after cooldown. *)
        st.above_since.(b) <- nan;
        true
      end
      else false

let path_for st t src dst =
  tl_add st ts_lookups t;
  st.q_src <- src;
  st.q_dst <- dst;
  let compute =
    if st.tl_on then (fun () ->
      tl_add st ts_recomputes t;
      st.compute ())
    else st.compute
  in
  Shard_cache.find st.pcache ~compute src dst

(* The broker indices of the live brokers on [path], in path order, in
   an array of exact size. *)
let live_brokers st path =
  let k = ref 0 in
  for i = 0 to Array.length path - 1 do
    if is_broker_live st path.(i) then incr k
  done;
  let out = Array.make !k 0 in
  let j = ref 0 in
  for i = 0 to Array.length path - 1 do
    let v = path.(i) in
    if is_broker_live st v then begin
      out.(!j) <- st.bidx.(v);
      incr j
    end
  done;
  out

(* Whether any of [pbs] sheds: stops at the first that does, since
   tripping a breaker has effects. *)
let sheds st pbs t =
  let any = ref false and i = ref 0 in
  while (not !any) && !i < Array.length pbs do
    if shedding st pbs.(!i) t then any := true;
    incr i
  done;
  !any

let fits st pbs demand =
  let all = ref true and i = ref 0 in
  while !all && !i < Array.length pbs do
    let b = pbs.(!i) in
    if not (st.used.(b) +. demand <= st.capacity.(b) +. 1e-9) then all := false;
    incr i
  done;
  !all

(* The one way capacity is taken, for admission and failover alike:
   dominated path under current liveness → its live brokers → breaker
   (admission only) → capacity → book [demand] on each of them, leaving
   the path and its brokers in [r_path] and [r_brokers]. *)
let reserve st t (s : Workload.session) ~shed =
  match path_for st t s.Workload.src s.Workload.dst with
  | None -> Blocked No_path
  | Some path ->
      let pbs = live_brokers st path in
      let demand = s.Workload.demand in
      if shed && sheds st pbs t then Blocked Shed
      else if not (fits st pbs demand) then Blocked Capacity
      else begin
        for i = 0 to Array.length pbs - 1 do
          adjust st pbs.(i) t demand
        done;
        st.r_path <- path;
        st.r_brokers <- pbs;
        Reserved
      end

(* The one way capacity is given back. *)
let release st l t =
  let pbs = l.path_brokers in
  for i = 0 to Array.length pbs - 1 do
    adjust st pbs.(i) t (-.l.s.Workload.demand)
  done

let rides b l = l.active && Array.exists (Int.equal b) l.path_brokers

(* Put [l] on the rider lists of its brokers, pruning a list that has
   doubled since its last pruning back to the sessions that ride it. *)
let board st l =
  let pbs = l.path_brokers in
  for i = 0 to Array.length pbs - 1 do
    let b = pbs.(i) in
    st.riders.(b) <- l :: st.riders.(b);
    let count = st.rider_count.(b) + 1 in
    if count < st.prune_at.(b) then st.rider_count.(b) <- count
    else begin
      let kept = List.filter (rides b) st.riders.(b) in
      let count = List.length kept in
      st.riders.(b) <- kept;
      st.rider_count.(b) <- count;
      st.prune_at.(b) <- max 16 (2 * count)
    end
  done

(* The in-flight sessions riding [b], in session-id order, and [b]'s list
   emptied. A session that failed over away from [b] and back is listed
   twice. *)
let take_riders st b =
  let riders = List.filter (rides b) st.riders.(b) in
  st.riders.(b) <- [];
  st.rider_count.(b) <- 0;
  List.stable_sort (fun a b -> Int.compare a.s.Workload.id b.s.Workload.id) riders

(* Take a session out of flight: its pending departure becomes a no-op. *)
let retire st l =
  l.active <- false;
  st.in_flight <- st.in_flight - 1

let blocked st (s : Workload.session) t ~attempt ~reason =
  let retryable =
    attempt < st.chaos.retry.max_attempts
    && (match reason with
       (* A structural no-path can never be retried away; one caused by an
          outage can. *)
       | No_path -> st.total_down > 0
       | Capacity | Shed -> true)
  in
  if retryable then begin
    Obs.Metrics.incr m_retries_scheduled;
    let r = st.chaos.retry in
    let jitter = 1.0 +. (r.jitter *. X.float st.jitter_rng 1.0) in
    let delay = r.base_delay *. (r.multiplier ** float_of_int attempt) *. jitter in
    Event_queue.add st.events ~time:(t +. delay) (Retry (s, attempt + 1))
  end
  else begin
    (match reason with
    | No_path -> st.rejected_no_path <- st.rejected_no_path + 1
    | Capacity -> st.rejected_capacity <- st.rejected_capacity + 1
    | Shed -> st.rejected_shed <- st.rejected_shed + 1);
    tl_add st ts_rejected t;
    (* Admission latency covers every finally-decided session — open-loop
       discipline: measured from the intended arrival, through however
       many backoff retries it took to conclude. *)
    tl_latency st ts_admission t ~since:s.Workload.arrival
  end

let admit st (s : Workload.session) t ~attempt =
  match reserve st t s ~shed:true with
  | Blocked reason -> blocked st s t ~attempt ~reason
  | Reserved ->
      let path = st.r_path in
      st.admitted <- st.admitted + 1;
      if attempt > 0 then st.retried_admitted <- st.retried_admitted + 1;
      st.in_flight <- st.in_flight + 1;
      if st.in_flight > st.peak_in_flight then st.peak_in_flight <- st.in_flight;
      st.hops_total <- st.hops_total + Array.length path - 1;
      (* Employees: intermediate non-(live-)broker vertices. *)
      let employees = ref 0 in
      for i = 1 to Array.length path - 2 do
        if not (is_broker_live st path.(i)) then incr employees
      done;
      st.employee_hops_total <- st.employee_hops_total + (2 * !employees);
      let dt = s.Workload.duration *. s.Workload.demand in
      let net =
        (2.0 *. st.config.price *. dt)
        -. (st.config.employee_cost *. float_of_int (2 * !employees) *. dt)
      in
      st.sums.revenue <- st.sums.revenue +. net;
      tl_add st ts_admitted t;
      tl_latency st ts_queue_wait t ~since:s.Workload.arrival;
      tl_latency st ts_admission t ~since:s.Workload.arrival;
      let l =
        {
          s;
          admitted_at = t;
          rev_rate =
            (if s.Workload.duration > 0.0 then net /. s.Workload.duration
             else 0.0);
          path_brokers = st.r_brokers;
          active = true;
        }
      in
      board st l;
      Event_queue.add st.events ~time:(t +. s.Workload.duration) (Depart l)

(* One handler per event kind; [drain] dispatches on the kind. *)

let on_arrive st (s : Workload.session) =
  let t = s.Workload.arrival in
  if t > st.sums.horizon then st.sums.horizon <- t;
  st.offered <- st.offered + 1;
  admit st s t ~attempt:0

let on_retry st s t ~attempt =
  Obs.Metrics.incr m_ev_retry;
  admit st s t ~attempt

let on_depart st l t =
  Obs.Metrics.incr m_ev_depart;
  if l.active then begin
    release st l t;
    retire st l;
    tl_add st ts_delivered t;
    (* End-to-end completion from the intended arrival: queue wait
       (retries) plus the session's service time. *)
    tl_latency st ts_e2e t ~since:l.s.Workload.arrival
  end

(* A session riding a broker that just crashed: release the whole old
   reservation, then try an alternate B-dominated path that avoids every
   down broker. Either way it stops riding the crashed broker. *)
let fail_over st l t =
  release st l t;
  match
    if st.chaos.failover then reserve st t l.s ~shed:false
    else Blocked No_path (* failover off: no alternate is sought *)
  with
  | Reserved ->
      l.path_brokers <- st.r_brokers;
      board st l;
      st.failed_over <- st.failed_over + 1;
      Obs.Metrics.incr m_failovers;
      (* Time-to-failover: how long the session had been in flight when
         the crash forced it onto an alternate path. *)
      tl_latency st ts_failover t ~since:l.admitted_at
  | Blocked _ ->
      (* Killed mid-flight: the unserved remainder of its revenue is
         refunded. *)
      Obs.Metrics.incr m_drops;
      retire st l;
      st.dropped_midflight <- st.dropped_midflight + 1;
      let depart = l.admitted_at +. l.s.Workload.duration in
      let lost = l.rev_rate *. (depart -. t) in
      st.sums.revenue <- st.sums.revenue -. lost;
      st.sums.revenue_lost <- st.sums.revenue_lost +. lost

let on_crash st b t =
  Obs.Metrics.incr m_ev_fault;
  st.down.(b) <- st.down.(b) + 1;
  if st.down.(b) = 1 then begin
    let v = st.bids.(b) in
    Bytes.set st.live v '\000';
    st.total_down <- st.total_down + 1;
    st.down_since.(b) <- t;
    Shard_cache.crash st.pcache v;
    (* In session-id order; a second copy of a session no longer rides
       [b] once the first was served. *)
    List.iter (fun l -> if rides b l then fail_over st l t) (take_riders st b)
  end

let on_recover st b t =
  Obs.Metrics.incr m_ev_fault;
  (* Only the last of overlapping outages brings the broker back. *)
  if st.down.(b) = 1 then begin
    let v = st.bids.(b) in
    Bytes.set st.live v '\001';
    st.total_down <- st.total_down - 1;
    st.sums.downtime <- st.sums.downtime +. (t -. st.down_since.(b));
    Shard_cache.recover st.pcache v
  end;
  st.down.(b) <- max 0 (st.down.(b) - 1)

let on_topo_update st op =
  Obs.Metrics.incr m_ev_topo;
  let d = Lazy.force st.delta in
  let changed =
    match op with
    | Topo_stream.Announce (u, v) -> Broker_graph.Delta.add_edge d u v
    | Topo_stream.Withdraw (u, v) -> Broker_graph.Delta.remove_edge d u v
  in
  if changed then begin
    st.topo_applied <- st.topo_applied + 1;
    Obs.Metrics.incr m_topo_applied;
    st.view <- Broker_graph.Delta.view d;
    (* Any cached path may now be wrong (or newly beatable): everything
       goes. Subsequent lookups recompute against the fresh view. *)
    Shard_cache.invalidate_all st.pcache
  end
  else begin
    st.topo_ignored <- st.topo_ignored + 1;
    Obs.Metrics.incr m_topo_ignored
  end

(* The event loop: serve every queued event due at or before [until] in
   time order (FIFO on ties), stretching the horizon to the last one. *)
let rec drain st ~until =
  let q = st.events in
  if Event_queue.length q > 0 then begin
    let t = Event_queue.min_time q in
    if t <= until then begin
      let ev = Event_queue.take q in
      if t > st.sums.horizon then st.sums.horizon <- t;
      (match ev with
      | Depart l -> on_depart st l t
      | Fault (Faults.Crash, b) -> on_crash st b t
      | Fault (Faults.Recover, b) -> on_recover st b t
      | Retry (s, attempt) -> on_retry st s t ~attempt
      | Topo_update op -> on_topo_update st op);
      drain st ~until
    end
  end

(* Close the downtime and utilization integrals at the horizon. *)
let finalize st ~brokers : stats =
  Obs.Metrics.gauge_max g_queue_depth (Event_queue.max_length st.events);
  Event_queue.clear st.events;
  (* Close the timelines: the trailing still-open windows become
     Perfetto counter samples when the trace ring is armed. *)
  if st.tl_on then List.iter Obs.Timeseries.flush timeline_series;
  let horizon = st.sums.horizon in
  (* Downtime adds up in [brokers] order, each broker once. *)
  Array.iter
    (fun v ->
      let b = st.bidx.(v) in
      if st.down.(b) > 0 then begin
        st.sums.downtime <- st.sums.downtime +. (horizon -. st.down_since.(b));
        st.down.(b) <- 0
      end)
    brokers;
  (* Mean over the brokers that ever carried a reservation, summed in
     increasing vertex id, which is broker index order. *)
  let mean_utilization =
    let sum = ref 0.0 and count = ref 0 in
    Array.iteri
      (fun b lu ->
        if not (Float.is_nan lu) then begin
          touch st b horizon;
          let cap = st.capacity.(b) in
          if cap > 0.0 && horizon > 0.0 then begin
            sum := !sum +. (st.area.(b) /. (cap *. horizon));
            incr count
          end
        end)
      st.last_change;
    if !count = 0 then 0.0 else !sum /. float_of_int !count
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  {
    offered = st.offered;
    admitted = st.admitted;
    rejected_no_path = st.rejected_no_path;
    rejected_capacity = st.rejected_capacity;
    rejected_shed = st.rejected_shed;
    admission_rate = ratio st.admitted st.offered;
    mean_hops = ratio st.hops_total st.admitted;
    employee_hop_fraction = ratio st.employee_hops_total st.hops_total;
    peak_in_flight = st.peak_in_flight;
    mean_broker_utilization = mean_utilization;
    revenue = st.sums.revenue;
    failed_over = st.failed_over;
    dropped_midflight = st.dropped_midflight;
    retried_admitted = st.retried_admitted;
    broker_downtime = st.sums.downtime;
    revenue_lost = st.sums.revenue_lost;
    availability =
      (let n_brokers = float_of_int (Array.length brokers) in
       if n_brokers = 0.0 || horizon <= 0.0 then 1.0
       else Float.max 0.0 (1.0 -. (st.sums.downtime /. (n_brokers *. horizon))));
    topo_applied = st.topo_applied;
    topo_ignored = st.topo_ignored;
    cache = Shard_cache.stats st.pcache;
  }

let run ?(chaos = no_chaos) ?topo:(churn = no_churn) ?(cache = Shard_cache.Flush)
    ?stats_window topo ~brokers ~sessions config =
  let tr0 = Obs.Trace.enter () in
  let g = topo.Broker_topo.Topology.graph in
  validate ~n:(G.n g) ~brokers ~sessions ~chaos ~churn ~stats_window config;
  let st = init ~chaos ~churn ~cache ~stats_window g ~brokers config in
  Array.iter
    (fun (s : Workload.session) ->
      drain st ~until:s.Workload.arrival;
      on_arrive st s)
    sessions;
  (* Everything left (departures, retries, faults, updates) closes the
     utilization and downtime integrals. *)
  drain st ~until:infinity;
  let stats = finalize st ~brokers in
  Obs.Trace.leave t_sim tr0;
  stats

let delivered_rate (s : stats) =
  if s.offered = 0 then 0.0
  else float_of_int (s.admitted - s.dropped_midflight) /. float_of_int s.offered

let stats_equal (a : stats) (b : stats) =
  a.offered = b.offered && a.admitted = b.admitted
  && a.rejected_no_path = b.rejected_no_path
  && a.rejected_capacity = b.rejected_capacity
  && a.rejected_shed = b.rejected_shed
  && Float.equal a.admission_rate b.admission_rate
  && Float.equal a.mean_hops b.mean_hops
  && Float.equal a.employee_hop_fraction b.employee_hop_fraction
  && a.peak_in_flight = b.peak_in_flight
  && Float.equal a.mean_broker_utilization b.mean_broker_utilization
  && Float.equal a.revenue b.revenue
  && a.failed_over = b.failed_over
  && a.dropped_midflight = b.dropped_midflight
  && a.retried_admitted = b.retried_admitted
  && Float.equal a.broker_downtime b.broker_downtime
  && Float.equal a.revenue_lost b.revenue_lost
  && Float.equal a.availability b.availability
  && a.topo_applied = b.topo_applied
  && a.topo_ignored = b.topo_ignored
  && Shard_cache.stats_equal a.cache b.cache
