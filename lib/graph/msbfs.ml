module Bitset = Broker_util.Bitset
module Obs = Broker_obs

let lanes = Bitset.bits_per_word

(* Every word array below is indexed by vertex and carries a stamp array
   that says whether its word is meaningful:

     [seen]  — bits of lanes whose BFS has settled the vertex; valid for
               the whole batch iff [seen_stamp.(v) = epoch].
     [front] — bits newly settled at the vertex on the *previous* level
               (the frontier being expanded); valid iff
               [front_stamp.(v) = front_tick].
     [nxt]   — bits being settled at the vertex on the level under
               construction; valid iff [nxt_stamp.(v) = tick].

   [epoch] bumps once per batch and [tick] once per level (monotonically,
   across batches), so no array is ever cleared: a stale word is simply
   unreadable under its stamp. [front]/[nxt] swap wholesale (words and
   stamps together) at the end of each level, [front_tick] following. *)
type workspace = {
  mutable cap : int;  (* arrays below are sized for [cap] vertices *)
  mutable epoch : int;
  mutable tick : int;
  mutable seen : int array;
  mutable seen_stamp : int array;
  mutable front : int array;
  mutable front_stamp : int array;
  mutable front_tick : int;
  mutable nxt : int array;
  mutable nxt_stamp : int array;
  mutable q_cur : int array;  (* vertices with a valid front word *)
  mutable q_next : int array;  (* vertices gaining bits this level *)
  mutable touched : int array;  (* distinct vertices settled this batch *)
  mutable n_touched : int;
  mutable levels : int array;  (* levels.(d) = (lane,vertex) pairs at depth d *)
  mutable max_level : int;
  mutable pairs : int;  (* settled pairs at depth >= 1 *)
  mutable len : int;  (* lanes active in the last run *)
  per_lane : bool;  (* tally [lane_lv] during runs *)
  planes : int array;
      (* bit-sliced level counter: bit [b] of [planes.(j)] is bit [j] of
         lane [b]'s count on the level being tallied *)
  mutable lane_lv : int array;  (* lane_lv.(d * lanes + b), d >= 1 *)
  mutable watch : int array;  (* watched vertices of the last run *)
  mutable wdist : int array;
      (* wdist.(i * lanes + b): depth at which lane [b] first settled
         [watch.(i)], -1 when it did not *)
}

let workspace ?(per_lane = false) () =
  {
    cap = 0;
    epoch = 0;
    tick = 0;
    seen = [||];
    seen_stamp = [||];
    front = [||];
    front_stamp = [||];
    front_tick = 0;
    nxt = [||];
    nxt_stamp = [||];
    q_cur = [||];
    q_next = [||];
    touched = [||];
    n_touched = 0;
    levels = [||];
    max_level = 0;
    pairs = 0;
    len = 0;
    per_lane;
    planes = (if per_lane then Array.make lanes 0 else [||]);
    lane_lv = [||];
    watch = [||];
    wdist = [||];
  }

let ensure ws n =
  if ws.cap < n then begin
    ws.cap <- n;
    ws.seen <- Array.make n 0;
    ws.seen_stamp <- Array.make n 0;
    ws.front <- Array.make n 0;
    ws.front_stamp <- Array.make n 0;
    ws.nxt <- Array.make n 0;
    ws.nxt_stamp <- Array.make n 0;
    ws.q_cur <- Array.make n 0;
    ws.q_next <- Array.make n 0;
    ws.touched <- Array.make n 0;
    ws.levels <- Array.make (n + 1) 0;
    (* Fresh stamps are all 0; restarting both clocks keeps every stamp
       guard false until a vertex is actually written. *)
    ws.epoch <- 0;
    ws.tick <- 0;
    ws.front_tick <- 0
  end

(* Beamer-style switching thresholds: expand bottom-up once the
   frontier's out-arcs exceed 1/alpha of the arcs still incident to
   untouched vertices, fall back top-down when the frontier shrinks
   below n/beta vertices. Both directions settle the same bits at the
   same depths, so every count below is independent of the heuristic. *)
let alpha = 14
let beta = 24

(* Observability (Broker_obs): all counters are commutative int sums over
   deterministically composed batches, so totals are REPRO_DOMAINS-
   independent and diffable. *)
let m_batches = Obs.Metrics.counter "msbfs.batches"
let m_lanes = Obs.Metrics.counter "msbfs.lanes"
let m_sweeps = Obs.Metrics.counter "msbfs.sweeps"
let m_sweeps_td = Obs.Metrics.counter "msbfs.sweeps.top_down"
let m_sweeps_bu = Obs.Metrics.counter "msbfs.sweeps.bottom_up"
let m_active_words = Obs.Metrics.counter "msbfs.active_words"
let m_frontier_bits = Obs.Metrics.counter "msbfs.frontier_bits"
let m_settled_pairs = Obs.Metrics.counter "msbfs.settled_pairs"
let h_frontier_words = Obs.Metrics.histogram "msbfs.frontier_words"
let t_run = Obs.Trace.scope "msbfs.run"
let t_sweep_td = Obs.Trace.scope "msbfs.sweep.top_down"
let t_sweep_bu = Obs.Trace.scope "msbfs.sweep.bottom_up"

(* Room for level [d]'s per-lane counts: doubles [lane_lv], so a run
   reaching a new depth record pays one copy and later runs none. *)
let grow_lane_levels ws d =
  let need = (d + 1) * lanes in
  let lv = Array.make (Int.max need (2 * Array.length ws.lane_lv)) 0 in
  Array.blit ws.lane_lv 0 lv 0 (Array.length ws.lane_lv);
  ws.lane_lv <- lv

(* Add word [x] into the bit-sliced counter [planes] at plane [k]: a
   ripple-carry that stops as soon as no lane carries. [top] is one past
   the highest plane in use; returns it raised past any plane written. *)
let[@brokercheck.noalloc] ripple planes k x top =
  let carry = ref x and j = ref k in
  while !carry <> 0 do
    let p = Array.unsafe_get planes !j in
    Array.unsafe_set planes !j (p lxor !carry);
    carry := p land !carry;
    incr j
  done;
  if !j > top then !j else top

(* Full adder over 63 lanes at once: [sum3] is each lane's sum bit,
   [carry3] its carry. *)
let[@inline] sum3 a b c = a lxor b lxor c
let[@inline] carry3 a b c = (a land b) lor ((a lxor b) land c)

(* Per-lane counts of level [d] by positional popcount. Newly settled
   words go through a Harley-Seal carry-save tree eight at a time (the
   [ones]/[twos]/[fours] accumulators), so only every eighth word
   ripples into [planes]; then each lane's count is read back out of
   the planes. Cost: about one full adder per settled word plus
   [len * planes] per level, against one step per settled (lane,
   vertex) pair for a bit loop. *)
let[@brokercheck.noalloc] tally_lanes ws nx nq next_n d =
  let planes = ws.planes in
  let top = ref 0 and c = ref 0 and i = ref 0 in
  let ones = ref 0 and twos = ref 0 and fours = ref 0 in
  while !i + 8 <= next_n do
    let base = !i in
    let w0 = Array.unsafe_get nx (Array.unsafe_get nq base) in
    let w1 = Array.unsafe_get nx (Array.unsafe_get nq (base + 1)) in
    let w2 = Array.unsafe_get nx (Array.unsafe_get nq (base + 2)) in
    let w3 = Array.unsafe_get nx (Array.unsafe_get nq (base + 3)) in
    let w4 = Array.unsafe_get nx (Array.unsafe_get nq (base + 4)) in
    let w5 = Array.unsafe_get nx (Array.unsafe_get nq (base + 5)) in
    let w6 = Array.unsafe_get nx (Array.unsafe_get nq (base + 6)) in
    let w7 = Array.unsafe_get nx (Array.unsafe_get nq (base + 7)) in
    let twos_a = carry3 !ones w0 w1 in
    ones := sum3 !ones w0 w1;
    let twos_b = carry3 !ones w2 w3 in
    ones := sum3 !ones w2 w3;
    let fours_a = carry3 !twos twos_a twos_b in
    twos := sum3 !twos twos_a twos_b;
    let twos_a = carry3 !ones w4 w5 in
    ones := sum3 !ones w4 w5;
    let twos_b = carry3 !ones w6 w7 in
    ones := sum3 !ones w6 w7;
    let fours_b = carry3 !twos twos_a twos_b in
    twos := sum3 !twos twos_a twos_b;
    let eights = carry3 !fours fours_a fours_b in
    fours := sum3 !fours fours_a fours_b;
    top := ripple planes 3 eights !top;
    i := base + 8
  done;
  while !i < next_n do
    top := ripple planes 0 (Array.unsafe_get nx (Array.unsafe_get nq !i)) !top;
    incr i
  done;
  top := ripple planes 0 !ones !top;
  top := ripple planes 1 !twos !top;
  top := ripple planes 2 !fours !top;
  if (d + 1) * lanes > Array.length ws.lane_lv then grow_lane_levels ws d;
  let lv = ws.lane_lv and base = d * lanes in
  for b = 0 to ws.len - 1 do
    c := 0;
    for k = !top - 1 downto 0 do
      c := (!c lsl 1) lor ((Array.unsafe_get planes k lsr b) land 1)
    done;
    Array.unsafe_set lv (base + b) !c
  done;
  for k = 0 to !top - 1 do
    Array.unsafe_set planes k 0
  done

(* Depth [d] for every lane whose bit is in [w.(v)] at a watched vertex
   [v] whose stamp reads [tick]: the bits a level newly settled (or, at
   [d = 0], the seeded lanes). Called once per level, never per arc; it
   reads the watch list from the workspace. *)
let[@brokercheck.noalloc] record_watch ws w stamp tick d =
  let watch = ws.watch and wdist = ws.wdist in
  let bits = ref 0 in
  for i = 0 to Array.length watch - 1 do
    let v = Array.unsafe_get watch i in
    if Array.unsafe_get stamp v = tick then begin
      bits := Array.unsafe_get w v;
      while !bits <> 0 do
        let low = !bits land - !bits in
        Array.unsafe_set wdist ((i * lanes) + Bitset.popcount (low - 1)) d;
        bits := !bits land (!bits - 1)
      done
    end
  done

(* The sweep is the whole point of the module: one pass over the frontier
   advances up to [lanes] BFS traversals with three word ops per arc
   (AND-NOT against [seen], OR into [seen] and [nxt]); per-level pair
   counts come from one popcount per frontier word instead of any
   per-bit loop. Checked [@brokercheck.noalloc]: all loop scratch is
   hoisted refs, and per-arc work is pure int ops. *)
let[@brokercheck.noalloc] run_view ws vw ?(max_depth = max_int)
    ?(watch = [||]) sources ~lo ~len =
  let n = vw.View.n in
  if len < 1 || len > lanes then invalid_arg "Msbfs: batch size out of range";
  if lo < 0 || len > Array.length sources - lo then
    invalid_arg "Msbfs: source range out of bounds";
  (* Validate the whole batch and watch list before touching any
     workspace state. *)
  for b = 0 to len - 1 do
    let s = Array.unsafe_get sources (lo + b) in
    if s < 0 || s >= n then invalid_arg "Msbfs: source out of range"
  done;
  for i = 0 to Array.length watch - 1 do
    let v = Array.unsafe_get watch i in
    if v < 0 || v >= n then invalid_arg "Msbfs: watched vertex out of range"
  done;
  ensure ws n;
  let nw = Array.length watch * lanes in
  if Array.length ws.wdist < nw then ws.wdist <- Array.make nw (-1)
  else Array.fill ws.wdist 0 nw (-1);
  ws.watch <- watch;
  ws.epoch <- ws.epoch + 1;
  ws.tick <- ws.tick + 1;
  let epoch = ws.epoch in
  (* Base-or-overlay segment select: for base views [ov] is false and
     the loops read the bare CSR. *)
  let off = vw.View.off and adj = vw.View.adj in
  let ov = vw.View.overlaid in
  let dirty = vw.View.dirty and xoff = vw.View.xoff and xadj = vw.View.xadj in
  let seen = ws.seen and seen_stamp = ws.seen_stamp in
  let touched = ws.touched and levels = ws.levels in
  let q_cur = ref ws.q_cur and q_next = ref ws.q_next in
  let front = ref ws.front and front_stamp = ref ws.front_stamp in
  let nxt = ref ws.nxt and nxt_stamp = ref ws.nxt_stamp in
  let mask = if len >= lanes then -1 else (1 lsl len) - 1 in
  ws.n_touched <- 0;
  ws.max_level <- 0;
  ws.pairs <- 0;
  ws.len <- len;
  levels.(0) <- len;
  (* Seed: lane [b] starts at [sources.(lo + b)]. Duplicate sources are
     distinct lanes sharing a vertex, so the frontier queue dedups on the
     front stamp while the words accumulate one bit per lane. *)
  let tick = ref ws.tick in
  let cur_n = ref 0 in
  let scout = ref 0 in
  let edges_rest = ref vw.View.arcs in
  for b = 0 to len - 1 do
    let s = Array.unsafe_get sources (lo + b) in
    let bit = 1 lsl b in
    if Array.unsafe_get seen_stamp s <> epoch then begin
      Array.unsafe_set seen_stamp s epoch;
      Array.unsafe_set seen s bit;
      Array.unsafe_set touched ws.n_touched s;
      ws.n_touched <- ws.n_touched + 1;
      let deg =
        if ov && Array.unsafe_get dirty s then
          Array.unsafe_get xoff (s + 1) - Array.unsafe_get xoff s
        else Array.unsafe_get off (s + 1) - Array.unsafe_get off s
      in
      edges_rest := !edges_rest - deg;
      scout := !scout + deg
    end
    else Array.unsafe_set seen s (Array.unsafe_get seen s lor bit);
    if Array.unsafe_get !front_stamp s <> !tick then begin
      Array.unsafe_set !front_stamp s !tick;
      Array.unsafe_set !front s bit;
      Array.unsafe_set !q_cur !cur_n s;
      cur_n := !cur_n + 1
    end
    else Array.unsafe_set !front s (Array.unsafe_get !front s lor bit)
  done;
  ws.front_tick <- !tick;
  record_watch ws !front !front_stamp !tick 0;
  let bottom_up = ref false in
  let d = ref 0 in
  let tr0 = Obs.Trace.enter () in
  let sweeps_td = ref 0 and sweeps_bu = ref 0 in
  let words_touched = ref 0 and bits_front = ref 0 in
  (* Loop scratch, hoisted: the sweep body allocates nothing per level,
     per frontier word, or per arc. *)
  let next_n = ref 0 and next_scout = ref 0 and pc = ref 0 in
  let probe = ref 0 and acc = ref 0 in
  while !cur_n > 0 && !d < max_depth do
    if !bottom_up then begin
      if !cur_n * beta < n then bottom_up := false
    end
    else if !scout * alpha > !edges_rest then bottom_up := true;
    if Obs.Control.enabled () then begin
      if !bottom_up then incr sweeps_bu else incr sweeps_td;
      words_touched := !words_touched + !cur_n;
      bits_front := !bits_front + levels.(!d);
      Obs.Metrics.observe h_frontier_words !cur_n;
      Obs.Trace.sample (if !bottom_up then t_sweep_bu else t_sweep_td) !cur_n
    end;
    let dn = !d + 1 in
    ws.tick <- ws.tick + 1;
    tick := ws.tick;
    next_n := 0;
    next_scout := 0;
    let fr = !front and fr_stamp = !front_stamp and fr_tick = ws.front_tick in
    let nx = !nxt and nx_stamp = !nxt_stamp in
    let nq = !q_next in
    if !bottom_up then
      (* Bottom-up: every vertex still missing bits ORs its neighbors'
         frontier words until the missing bits are covered. With many
         lanes the early exit fires less often than for one source,
         but on exploding levels the frontier holds almost every vertex
         and one sequential pass still beats expanding it. *)
      for v = 0 to n - 1 do
        let sv =
          if Array.unsafe_get seen_stamp v = epoch then Array.unsafe_get seen v
          else 0
        in
        let miss = mask land lnot sv in
        if miss <> 0 then begin
          let dv = ov && Array.unsafe_get dirty v in
          let a = if dv then xadj else adj in
          let lo =
            if dv then Array.unsafe_get xoff v else Array.unsafe_get off v
          in
          let hi =
            if dv then Array.unsafe_get xoff (v + 1)
            else Array.unsafe_get off (v + 1)
          in
          probe := lo;
          acc := 0;
          while !probe < hi && miss land lnot !acc <> 0 do
            let w = Array.unsafe_get a !probe in
            if Array.unsafe_get fr_stamp w = fr_tick then
              acc := !acc lor Array.unsafe_get fr w;
            incr probe
          done;
          let add = !acc land miss in
          if add <> 0 then begin
            if sv = 0 && Array.unsafe_get seen_stamp v <> epoch then begin
              Array.unsafe_set seen_stamp v epoch;
              Array.unsafe_set seen v add;
              Array.unsafe_set touched ws.n_touched v;
              ws.n_touched <- ws.n_touched + 1;
              edges_rest := !edges_rest - (hi - lo)
            end
            else Array.unsafe_set seen v (sv lor add);
            Array.unsafe_set nx_stamp v !tick;
            Array.unsafe_set nx v add;
            Array.unsafe_set nq !next_n v;
            next_n := !next_n + 1;
            next_scout := !next_scout + (hi - lo)
          end
        end
      done
    else begin
      let q = !q_cur in
      for i = 0 to !cur_n - 1 do
        let u = Array.unsafe_get q i in
        let fu = Array.unsafe_get fr u in
        let du = ov && Array.unsafe_get dirty u in
        let a = if du then xadj else adj in
        let jlo =
          if du then Array.unsafe_get xoff u else Array.unsafe_get off u
        in
        let jhi =
          if du then Array.unsafe_get xoff (u + 1)
          else Array.unsafe_get off (u + 1)
        in
        for j = jlo to jhi - 1 do
          let v = Array.unsafe_get a j in
          let sv =
            if Array.unsafe_get seen_stamp v = epoch then
              Array.unsafe_get seen v
            else 0
          in
          let add = fu land lnot sv in
          if add <> 0 then begin
            let dv = ov && Array.unsafe_get dirty v in
            let deg_v =
              if dv then
                Array.unsafe_get xoff (v + 1) - Array.unsafe_get xoff v
              else Array.unsafe_get off (v + 1) - Array.unsafe_get off v
            in
            if sv = 0 && Array.unsafe_get seen_stamp v <> epoch then begin
              Array.unsafe_set seen_stamp v epoch;
              Array.unsafe_set seen v add;
              Array.unsafe_set touched ws.n_touched v;
              ws.n_touched <- ws.n_touched + 1;
              edges_rest := !edges_rest - deg_v
            end
            else Array.unsafe_set seen v (sv lor add);
            if Array.unsafe_get nx_stamp v <> !tick then begin
              Array.unsafe_set nx_stamp v !tick;
              Array.unsafe_set nx v add;
              Array.unsafe_set nq !next_n v;
              next_n := !next_n + 1;
              next_scout := !next_scout + deg_v
            end
            else Array.unsafe_set nx v (Array.unsafe_get nx v lor add)
          end
        done
      done
    end;
    (* Per-level pair count: one popcount per vertex that gained bits —
       [nx] holds exactly the first-arrival bits of this level. *)
    pc := 0;
    for i = 0 to !next_n - 1 do
      pc := !pc + Bitset.popcount (Array.unsafe_get nx (Array.unsafe_get nq i))
    done;
    if !next_n > 0 then begin
      ws.max_level <- dn;
      levels.(dn) <- !pc;
      ws.pairs <- ws.pairs + !pc;
      if ws.per_lane then tally_lanes ws nx nq !next_n dn;
      record_watch ws nx nx_stamp !tick dn
    end;
    (* Swap frontier and next (words, stamps, queues) for the next level. *)
    let tmpw = !front in
    front := !nxt;
    nxt := tmpw;
    let tmps = !front_stamp in
    front_stamp := !nxt_stamp;
    nxt_stamp := tmps;
    let tmpq = !q_cur in
    q_cur := !q_next;
    q_next := tmpq;
    ws.front_tick <- !tick;
    cur_n := !next_n;
    scout := !next_scout;
    d := dn
  done;
  ws.front <- !front;
  ws.front_stamp <- !front_stamp;
  ws.nxt <- !nxt;
  ws.nxt_stamp <- !nxt_stamp;
  ws.q_cur <- !q_cur;
  ws.q_next <- !q_next;
  if Obs.Control.enabled () then begin
    Obs.Metrics.incr m_batches;
    Obs.Metrics.add m_lanes len;
    Obs.Metrics.add m_sweeps (!sweeps_td + !sweeps_bu);
    Obs.Metrics.add m_sweeps_td !sweeps_td;
    Obs.Metrics.add m_sweeps_bu !sweeps_bu;
    Obs.Metrics.add m_active_words !words_touched;
    Obs.Metrics.add m_frontier_bits !bits_front;
    Obs.Metrics.add m_settled_pairs ws.pairs
  end;
  Obs.Trace.leave t_run tr0

(* Static-graph entry point: the view record is the only setup
   allocation, built once before the sweeps. *)
let[@brokercheck.noalloc] run ws g ?max_depth sources ~lo ~len =
  run_view ws (View.of_graph g) ?max_depth sources ~lo ~len

let batch_lanes ws = ws.len
let max_level ws = ws.max_level
let reached_pairs ws = ws.pairs

let level_pairs ws d =
  if d < 0 || d > ws.max_level then
    invalid_arg "Msbfs.level_pairs: level out of range";
  ws.levels.(d)

let lane_level ws b d =
  if not ws.per_lane then
    invalid_arg "Msbfs.lane_level: workspace does not tally per lane";
  if b < 0 || b >= ws.len then invalid_arg "Msbfs.lane_level: lane out of range";
  if d < 0 || d > ws.max_level then
    invalid_arg "Msbfs.lane_level: level out of range";
  if d = 0 then 1 else ws.lane_lv.((d * lanes) + b)

let[@brokercheck.noalloc] watch_distance ws i b =
  if i < 0 || i >= Array.length ws.watch then
    invalid_arg "Msbfs.watch_distance: watch index out of range";
  if b < 0 || b >= ws.len then
    invalid_arg "Msbfs.watch_distance: lane out of range";
  Array.unsafe_get ws.wdist ((i * lanes) + b)

let settled_bits ws v =
  if v < 0 || v >= ws.cap then
    invalid_arg "Msbfs.settled_bits: vertex out of range";
  if ws.seen_stamp.(v) = ws.epoch then ws.seen.(v) else 0

let lane_counts_into ws ~keep out =
  if Array.length out < ws.len then
    invalid_arg "Msbfs.lane_counts_into: output shorter than the batch";
  Array.fill out 0 ws.len 0;
  let seen = ws.seen and touched = ws.touched in
  for i = 0 to ws.n_touched - 1 do
    let v = Array.unsafe_get touched i in
    if keep v then begin
      (* Lowest-set-bit extraction over the settled word: cost is one
         step per (lane, vertex) pair actually settled. *)
      let w = ref (Array.unsafe_get seen v) in
      while !w <> 0 do
        let low = !w land - !w in
        let b = Bitset.popcount (low - 1) in
        Array.unsafe_set out b (Array.unsafe_get out b + 1);
        w := !w land (!w - 1)
      done
    end
  done
