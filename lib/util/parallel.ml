module Obs = Broker_obs

(* Per-domain utilization and allocation probes around every worker body.
   [parallel.invocations] is deterministic (one per fan-out call); the
   worker/GC tallies depend on scheduling and the domain budget, so they
   are registered volatile and never gate a diff. *)
let m_invocations = Obs.Metrics.counter "parallel.invocations"
let m_workers = Obs.Metrics.counter ~volatile:true "parallel.workers"
let m_worker_ns = Obs.Metrics.counter ~volatile:true "parallel.worker_ns"
let m_minor_words = Obs.Metrics.counter ~volatile:true "parallel.gc.minor_words"
let m_major_words = Obs.Metrics.counter ~volatile:true "parallel.gc.major_words"

let m_minor_gcs =
  Obs.Metrics.counter ~volatile:true "parallel.gc.minor_collections"

let m_major_gcs =
  Obs.Metrics.counter ~volatile:true "parallel.gc.major_collections"

let t_worker = Obs.Trace.scope "parallel.worker"

let instrumented f =
  if not (Obs.Control.enabled ()) then f ()
  else begin
    Obs.Metrics.incr m_workers;
    let ns0 = Obs.Clock.now_ns () in
    let tr0 = Obs.Trace.enter () in
    let x, d = Obs.Profile.measure f in
    Obs.Trace.leave t_worker tr0;
    Obs.Metrics.add m_worker_ns (Obs.Clock.now_ns () - ns0);
    Obs.Metrics.add m_minor_words (int_of_float d.Obs.Profile.minor_words);
    Obs.Metrics.add m_major_words (int_of_float d.Obs.Profile.major_words);
    Obs.Metrics.add m_minor_gcs d.Obs.Profile.minor_collections;
    Obs.Metrics.add m_major_gcs d.Obs.Profile.major_collections;
    x
  end

let domain_count () =
  match Sys.getenv_opt "REPRO_DOMAINS" with
  | None | Some "" -> min 8 (Domain.recommended_domain_count ())
  | Some s -> (
      match int_of_string_opt s with
      | Some d when d >= 1 -> d
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "REPRO_DOMAINS: expected an integer >= 1, got %S" s))

let strided ?domains ~n ~worker ~merge init =
  let domains =
    match domains with Some d -> max 1 d | None -> domain_count ()
  in
  Obs.Metrics.incr m_invocations;
  if n <= 0 then init
  else if domains = 1 || n < 4 then
    merge init (instrumented (fun () -> worker ~start:0 ~step:1))
  else begin
    let k = min domains n in
    let handles =
      List.init k (fun i ->
          Domain.spawn (fun () -> instrumented (fun () -> worker ~start:i ~step:k)))
    in
    (* Join in stride order: the fold order is fixed, so determinism only
       needs the merge to be insensitive to how items were partitioned. *)
    List.fold_left (fun acc h -> merge acc (Domain.join h)) init handles
  end
