(* Span + counter-sample recording into one preallocated global ring.

   A recorded event is four ints: a code (2*scope for a completed span,
   2*scope+1 for a counter sample), a start timestamp (ns), a duration
   (ns; for counter samples the sampled value), and the recording
   domain's id. Writers reserve a slot with one [Atomic.fetch_and_add]
   on the cursor — no allocation, no lock — and the ring silently
   overwrites the oldest events once full ({!dropped} reports how
   many). Slots are only read after parallel work has joined. *)

type scope = int

let name_lock = Mutex.create ()
let names : string array ref = ref (Array.make 16 "")
let name_count = ref 0
let ids : (string, int) Hashtbl.t = Hashtbl.create 64

let scope name =
  Mutex.lock name_lock;
  let id =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None ->
        let id = !name_count in
        if id = Array.length !names then begin
          let bigger = Array.make (2 * id) "" in
          Array.blit !names 0 bigger 0 id;
          names := bigger
        end;
        !names.(id) <- name;
        incr name_count;
        Hashtbl.add ids name id;
        id
  in
  Mutex.unlock name_lock;
  id

type ring = {
  codes : int array;
  ts : int array;
  dur : int array;
  tids : int array;
  mask : int;
  cursor : int Atomic.t;
}

let ring : ring option ref = ref None
let armed_flag = ref false
let armed () = !armed_flag
let default_capacity = 1 lsl 16

let arm ?(capacity = default_capacity) () =
  if Control.available then begin
    let cap =
      let c = ref 16 in
      while !c < capacity do
        c := !c * 2
      done;
      !c
    in
    ring :=
      Some
        {
          codes = Array.make cap 0;
          ts = Array.make cap 0;
          dur = Array.make cap 0;
          tids = Array.make cap 0;
          mask = cap - 1;
          cursor = Atomic.make 0;
        };
    armed_flag := true
  end

let disarm () =
  armed_flag := false;
  ring := None

(* The emit path — [record] and its [leave]/[sample] wrappers — is
   checked [@brokercheck.noalloc]: a span end costs one atomic
   reservation and four int stores, so probes stay cheap enough to
   leave armed around parallel kernels. *)
let[@brokercheck.noalloc] record code t0 d =
  match !ring with
  | None -> ()
  | Some r ->
      let i = Atomic.fetch_and_add r.cursor 1 land r.mask in
      r.codes.(i) <- code;
      r.ts.(i) <- t0;
      r.dur.(i) <- d;
      r.tids.(i) <- (Domain.self () :> int)

let enter () = if !armed_flag then Clock.monotonic_ns () else 0

let[@brokercheck.noalloc] leave sc t0 =
  if !armed_flag then record (2 * sc) t0 (Clock.monotonic_ns () - t0)

let leave_named name t0 = if !armed_flag then leave (scope name) t0

let with_span sc f =
  if !armed_flag then begin
    let t0 = Clock.monotonic_ns () in
    Fun.protect ~finally:(fun () -> leave sc t0) f
  end
  else f ()

let[@brokercheck.noalloc] sample sc v =
  if !armed_flag then record ((2 * sc) + 1) (Clock.monotonic_ns ()) v

let recorded () =
  match !ring with
  | None -> 0
  | Some r -> min (Atomic.get r.cursor) (r.mask + 1)

let dropped () =
  match !ring with
  | None -> 0
  | Some r -> max 0 (Atomic.get r.cursor - (r.mask + 1))

(* Silent ring truncation is invisible in the trace itself (the oldest
   events are simply gone), so the wraparound count is also published
   as a metric: it rides every snapshot into `--obs-summary` and the
   metrics artifact. Volatile — how many events fit before wrapping
   depends on wall-clock interleaving and the domain count. *)
let g_dropped = Metrics.gauge ~volatile:true "trace.dropped"
let publish_dropped () = Metrics.gauge_max g_dropped (dropped ())

(* --- Chrome trace-event sink ----------------------------------------- *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_us buf ns =
  (* ts/dur are microseconds in the trace-event format; keep the
     nanosecond precision as three decimals. *)
  Buffer.add_string buf (Printf.sprintf "%.3f" (float_of_int ns /. 1e3))

let to_chrome_json () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\": [";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n ";
    ()
  in
  sep ();
  Buffer.add_string buf
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
     \"args\": {\"name\": \"brokerset\"}}";
  (match !ring with
  | None -> ()
  | Some r ->
      let count = recorded () in
      let t_min = ref max_int in
      for i = 0 to count - 1 do
        if r.ts.(i) < !t_min then t_min := r.ts.(i)
      done;
      let t0 = if count = 0 then 0 else !t_min in
      let idx = Array.init count (fun i -> i) in
      Array.sort
        (fun a b ->
          let c = Int.compare r.tids.(a) r.tids.(b) in
          if c <> 0 then c
          else
            let c = Int.compare r.ts.(a) r.ts.(b) in
            if c <> 0 then c else Int.compare a b)
        idx;
      let last_tid = ref min_int in
      Array.iter
        (fun i ->
          let tid = r.tids.(i) in
          if tid <> !last_tid then begin
            last_tid := tid;
            sep ();
            Buffer.add_string buf
              (Printf.sprintf
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \
                  \"tid\": %d, \"args\": {\"name\": \"domain %d\"}}"
                 tid tid)
          end;
          let code = r.codes.(i) in
          let name = !names.(code lsr 1) in
          sep ();
          if code land 1 = 0 then begin
            Buffer.add_string buf "{\"name\": ";
            add_json_string buf name;
            Buffer.add_string buf
              (Printf.sprintf
                 ", \"cat\": \"obs\", \"ph\": \"X\", \"pid\": 0, \"tid\": %d, \
                  \"ts\": "
                 tid);
            add_us buf (r.ts.(i) - t0);
            Buffer.add_string buf ", \"dur\": ";
            add_us buf r.dur.(i);
            Buffer.add_char buf '}'
          end
          else begin
            Buffer.add_string buf "{\"name\": ";
            add_json_string buf name;
            Buffer.add_string buf
              (Printf.sprintf
                 ", \"cat\": \"obs\", \"ph\": \"C\", \"pid\": 0, \"tid\": %d, \
                  \"ts\": "
                 tid);
            add_us buf (r.ts.(i) - t0);
            Buffer.add_string buf
              (Printf.sprintf ", \"args\": {\"value\": %d}}" r.dur.(i))
          end)
        idx);
  Buffer.add_string buf "],\n \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents buf

let write ~path =
  if (not !armed_flag) || recorded () = 0 then false
  else begin
    publish_dropped ();
    let oc = open_out path in
    output_string oc (to_chrome_json ());
    close_out oc;
    true
  end
