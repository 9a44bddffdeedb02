(* Two-level HDR-style indexing over non-negative ints: an exact region
   below [sub = 2^sub_bits], then [sub] equal-width sub-cells per
   power-of-two octave. Every cell is an [int Atomic.t]; recording and
   merging are fetch-and-adds, so cell values commute across domains and
   replay bitwise for any REPRO_DOMAINS. *)

type t = { sb : int; cells : int Atomic.t array }

let default_sub_bits = 5
let max_sub_bits = 8

(* The highest octave starts at bit 61 (max_int has 62 significant
   bits), so octaves [sub_bits .. 61] plus the exact region give
   [(63 - sub_bits) * 2^sub_bits] cells — 63 at sub_bits 0, matching
   the historical Metrics histogram exactly. *)
let cell_count sb = (63 - sb) * (1 lsl sb)

let create ?(sub_bits = default_sub_bits) () =
  if sub_bits < 0 || sub_bits > max_sub_bits then
    invalid_arg "Broker_obs.Sketch.create: sub_bits out of range";
  { sb = sub_bits; cells = Array.init (cell_count sub_bits) (fun _ -> Atomic.make 0) }

let cells t = Array.length t.cells

(* Branch-free bit length (position of the highest set bit, plus one):
   smear the top bit downward, then popcount the all-ones suffix. SWAR
   popcount with the same 63-bit-truncated constants as
   Broker_util.Bitset — lib/obs sits below lib/util, so the few lines
   are inlined here rather than imported. *)
let[@inline] bit_length v =
  let v = v lor (v lsr 1) in
  let v = v lor (v lsr 2) in
  let v = v lor (v lsr 4) in
  let v = v lor (v lsr 8) in
  let v = v lor (v lsr 16) in
  let v = v lor (v lsr 32) in
  let x = v - ((v lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let[@inline] index t v =
  let sb = t.sb in
  if v < 0 then 0
  else if v < 1 lsl sb then v
  else begin
    let k = bit_length v - 1 in
    (* Sub-cell within octave k: (v lsr (k - sb)) is in [2^sb, 2^(sb+1)). *)
    ((k - sb + 1) lsl sb) + (v lsr (k - sb)) - (1 lsl sb)
  end

let[@brokercheck.noalloc] record t v =
  ignore (Atomic.fetch_and_add t.cells.(index t v) 1)

let count t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.cells

let lower_bound t i =
  if i < 0 || i >= Array.length t.cells then
    invalid_arg "Broker_obs.Sketch.lower_bound: cell index out of range";
  let sub = 1 lsl t.sb in
  if i < sub then i
  else begin
    let j = i - sub in
    let octave = j lsr t.sb in
    let off = j land (sub - 1) in
    (sub + off) lsl octave
  end

(* Nearest-rank selection: rank r = round (q * (count - 1)) picked in
   cell order, which is value order up to cell granularity — the rank-r
   sample lies in the first cell whose cumulative count exceeds r. *)
let rank_of q total =
  let r = int_of_float (Float.round (q *. float_of_int (total - 1))) in
  if r < 0 then 0 else if r > total - 1 then total - 1 else r

let quantile t q =
  if Float.is_nan q || q < 0.0 || q > 1.0 then
    invalid_arg "Broker_obs.Sketch.quantile: q out of [0, 1]";
  let total = count t in
  if total = 0 then 0
  else begin
    let r = rank_of q total in
    let cum = ref 0 in
    let i = ref 0 in
    let found = ref 0 in
    let continue = ref true in
    while !continue do
      cum := !cum + Atomic.get t.cells.(!i);
      if !cum > r then begin
        found := !i;
        continue := false
      end
      else begin
        incr i;
        if !i >= Array.length t.cells then begin
          found := Array.length t.cells - 1;
          continue := false
        end
      end
    done;
    lower_bound t !found
  end

let merge ~into src =
  if into.sb <> src.sb then
    invalid_arg "Broker_obs.Sketch.merge: sub_bits mismatch";
  Array.iteri
    (fun i c ->
      let v = Atomic.get c in
      if v <> 0 then ignore (Atomic.fetch_and_add into.cells.(i) v))
    src.cells

let counts t = Array.map Atomic.get t.cells
let reset t = Array.iter (fun c -> Atomic.set c 0) t.cells
