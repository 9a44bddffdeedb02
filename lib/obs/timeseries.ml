(* Windowed series on the simulation clock. Single-writer by design:
   the simulator event loop is sequential, so window cells are plain
   mutable ints — determinism comes from the sim-time keying, not from
   atomics (the per-window {!Sketch} cells are atomic regardless, so
   merging window sketches stays commutative). *)

type window = {
  mutable w_count : int;
  mutable w_sum : int;
  mutable w_sketch : Sketch.t option;
}

type t = {
  ts_name : string;
  ts_scope : Trace.scope;
  mutable ts_width : float;
  mutable wins : window option array;
  mutable last : int;  (* highest window index touched; -1 when empty *)
  mutable emitted : int;  (* highest window index flushed to Trace *)
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 32
let lock = Mutex.create ()
let default_window = 1.0

let check_window w =
  if Float.is_nan w || w <= 0.0 then
    invalid_arg "Broker_obs.Timeseries: window width must be > 0"

let series ?(window = default_window) name =
  check_window window;
  Mutex.lock lock;
  let t =
    match Hashtbl.find_opt registry name with
    | Some t -> t
    | None ->
        let t =
          {
            ts_name = name;
            ts_scope = Trace.scope name;
            ts_width = window;
            wins = Array.make 16 None;
            last = -1;
            emitted = -1;
          }
        in
        Hashtbl.add registry name t;
        t
  in
  Mutex.unlock lock;
  t

let name t = t.ts_name
let width t = t.ts_width

let restart ?window t =
  (match window with
  | None -> ()
  | Some w ->
      check_window w;
      t.ts_width <- w);
  Array.fill t.wins 0 (Array.length t.wins) None;
  t.last <- -1;
  t.emitted <- -1

let index_of t time =
  if Float.is_nan time || time < 0.0 then
    invalid_arg "Broker_obs.Timeseries: sim-time must be >= 0";
  int_of_float (Float.floor (time /. t.ts_width))

(* Completed windows become Perfetto counter samples ("C" events carry
   the window sum) the moment a later window is first touched; [flush]
   pushes the trailing open window at end of run. The sample timestamp
   is wall-clock (that is what a trace is); the deterministic sim-time
   view lives in [points]. *)
let emit_upto t i =
  if Trace.armed () then
    for j = t.emitted + 1 to i do
      let v =
        if j < Array.length t.wins then
          match t.wins.(j) with Some w -> w.w_sum | None -> 0
        else 0
      in
      Trace.sample t.ts_scope v
    done;
  if i > t.emitted then t.emitted <- i

let window_at t i =
  if i > t.last then begin
    emit_upto t (i - 1);
    t.last <- i
  end;
  if i >= Array.length t.wins then begin
    let cap = ref (Array.length t.wins) in
    while i >= !cap do
      cap := 2 * !cap
    done;
    let bigger = Array.make !cap None in
    Array.blit t.wins 0 bigger 0 (Array.length t.wins);
    t.wins <- bigger
  end;
  match t.wins.(i) with
  | Some w -> w
  | None ->
      let w = { w_count = 0; w_sum = 0; w_sketch = None } in
      t.wins.(i) <- Some w;
      w

let add t ~time v =
  let w = window_at t (index_of t time) in
  w.w_count <- w.w_count + 1;
  w.w_sum <- w.w_sum + v

let observe t ~time v =
  let w = window_at t (index_of t time) in
  w.w_count <- w.w_count + 1;
  w.w_sum <- w.w_sum + v;
  let sk =
    match w.w_sketch with
    | Some sk -> sk
    | None ->
        let sk = Sketch.create () in
        w.w_sketch <- Some sk;
        sk
  in
  Sketch.record sk v

let flush t = if t.last >= 0 then emit_upto t t.last

type point = {
  t_start : float;
  count : int;
  sum : int;
  sketch : Sketch.t option;
}

let points t =
  Array.init (t.last + 1) (fun i ->
      let t_start = float_of_int i *. t.ts_width in
      match t.wins.(i) with
      | Some w ->
          { t_start; count = w.w_count; sum = w.w_sum; sketch = w.w_sketch }
      | None -> { t_start; count = 0; sum = 0; sketch = None })

let values t =
  Array.map (fun p -> (p.t_start, float_of_int p.sum)) (points t)

let all () =
  Mutex.lock lock;
  let ts = Hashtbl.fold (fun _ t acc -> t :: acc) registry [] in
  Mutex.unlock lock;
  List.sort (fun a b -> String.compare a.ts_name b.ts_name) ts

let fixed_point = 1e6

let to_fp x =
  if Float.is_nan x || x <= 0.0 then 0
  else int_of_float (Float.round (x *. fixed_point))

let of_fp v = float_of_int v /. fixed_point
