type counter = { c_volatile : bool; cell : int Atomic.t }
type gauge = { g_volatile : bool; gcell : int Atomic.t }

(* Histograms are a Sketch at sub_bits 0: the two-level HDR indexing
   degenerates to one cell per power-of-two octave — 63 cells with
   exactly the historical bucket edges (bucket 0 holds <= 0, bucket
   i >= 1 holds [2^(i-1), 2^i)), so snapshots and the hist.* report
   series are byte-identical to the pre-Sketch implementation. *)
let hist_sub_bits = 0

type histogram = Sketch.t

type reg =
  | Rcounter of counter
  | Rgauge of gauge
  | Rhist of histogram

let registry : (string, reg) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let register name make select =
  Mutex.lock lock;
  let r =
    match Hashtbl.find_opt registry name with
    | Some r -> r
    | None ->
        let r = make () in
        Hashtbl.add registry name r;
        r
  in
  Mutex.unlock lock;
  match select r with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf
           "Broker_obs.Metrics: %S already registered with a different kind \
            or volatility"
           name)

let counter ?(volatile = false) name =
  register name
    (fun () -> Rcounter { c_volatile = volatile; cell = Atomic.make 0 })
    (function
      | Rcounter c when c.c_volatile = volatile -> Some c
      | _ -> None)

let gauge ?(volatile = false) name =
  register name
    (fun () -> Rgauge { g_volatile = volatile; gcell = Atomic.make 0 })
    (function
      | Rgauge g when g.g_volatile = volatile -> Some g
      | _ -> None)

let histogram name =
  register name
    (fun () -> Rhist (Sketch.create ~sub_bits:hist_sub_bits ()))
    (function Rhist h -> Some h | _ -> None)

(* --- probe operations: one flag check, then an atomic RMW ------------- *)

let add c n = if Control.enabled () then ignore (Atomic.fetch_and_add c.cell n)
let incr c = add c 1

let rec gauge_max g v =
  if Control.enabled () then begin
    let cur = Atomic.get g.gcell in
    if v > cur && not (Atomic.compare_and_set g.gcell cur v) then gauge_max g v
  end

let observe h v = if Control.enabled () then Sketch.record h v

(* --- snapshots -------------------------------------------------------- *)

type value =
  | Counter of int
  | Gauge_max of int
  | Histogram of int array

type entry = { name : string; volatile : bool; value : value }
type snapshot = entry list

let snapshot () =
  Mutex.lock lock;
  let entries =
    Hashtbl.fold
      (fun name r acc ->
        let volatile, value =
          match r with
          | Rcounter c -> (c.c_volatile, Counter (Atomic.get c.cell))
          | Rgauge g -> (g.g_volatile, Gauge_max (Atomic.get g.gcell))
          | Rhist h -> (false, Histogram (Sketch.counts h))
        in
        { name; volatile; value } :: acc)
      registry []
  in
  Mutex.unlock lock;
  List.sort (fun a b -> String.compare a.name b.name) entries

let deterministic snap = List.filter (fun e -> not e.volatile) snap

let find snap name =
  List.find_opt (fun e -> String.equal e.name name) snap

let reset () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ r ->
      match r with
      | Rcounter c -> Atomic.set c.cell 0
      | Rgauge g -> Atomic.set g.gcell 0
      | Rhist h -> Sketch.reset h)
    registry;
  Mutex.unlock lock
