module Obs = Broker_obs

(* Cache-outcome probes. The two invalidation counters used to live in
   Simulator; they moved here with the cache itself. All are driven by
   deterministic cache structure, so they diff cleanly run-to-run. *)
let m_invalidated = Obs.Metrics.counter "sim.cache.invalidated_keys"
let m_degraded_flushed = Obs.Metrics.counter "sim.cache.degraded_flushed"
let m_hits = Obs.Metrics.counter "sim.cache.hits"
let m_served_degraded = Obs.Metrics.counter "sim.cache.served_degraded"
let m_repaired = Obs.Metrics.counter "sim.cache.repaired_lazily"
let m_recomputed = Obs.Metrics.counter "sim.cache.recomputed"

type strategy = Flush | Modulo | Ring of { vnodes : int }

let default_vnodes = 64

let strategy_name = function
  | Flush -> "flush"
  | Modulo -> "modulo"
  | Ring _ -> "ring"

type stats = {
  lookups : int;
  hits : int;
  served_degraded : int;
  repaired_lazily : int;
  recomputed : int;
  evicted : int;
  flushed : int;
}

let stats_equal a b =
  a.lookups = b.lookups && a.hits = b.hits
  && a.served_degraded = b.served_degraded
  && a.repaired_lazily = b.repaired_lazily
  && a.recomputed = b.recomputed
  && a.evicted = b.evicted
  && a.flushed = b.flushed

(* Seeded splitmix64 finalizer — the deterministic stand-in for
   [Hashtbl.hash] (banned in lib code, brokercheck R9): owners must be
   identical across runs, processes and REPRO_DOMAINS settings. Inlined,
   so the [Int64] intermediates stay unboxed. *)
let[@inline] mix64 state =
  let z = Int64.add state 0x9E3779B97F4A7C15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Two ints -> nonnegative 62-bit hash under a seed. *)
let[@inline] hash2 ~seed a b =
  let h = mix64 (Int64.add (Int64.of_int seed) (Int64.of_int a)) in
  let h = mix64 (Int64.logxor h (Int64.of_int b)) in
  Int64.to_int (Int64.logand h 0x3FFF_FFFF_FFFF_FFFFL)

(* Salt so ring-point placement and key placement draw from unrelated
   streams even though they share the user seed. *)
let ring_salt = 0x52696E67 (* "Ring" *)

(* One owner slot's entries, keyed by the int [src * n + dst]: open
   addressing with linear probing over a power-of-two table that is never
   more than half full, [-1] marking an empty slot. A cached path and its
   degraded flag (computed under an outage; hits are validated against
   current liveness instead of trusted blindly) sit at the key's index in
   the parallel arrays. Deletion shifts the rest of the probe run back
   over the hole, so there are no tombstones and nothing is rebuilt. *)
type table = {
  mutable keys : int array;
  mutable paths : int array option array;
  mutable degraded : Bytes.t;
  mutable count : int;
}

let table_create cap =
  { keys = Array.make cap (-1); paths = Array.make cap None; degraded = Bytes.make cap '\000'; count = 0 }

let[@inline] home mask key =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask

(* The index holding [key], or the empty index where it belongs. *)
let[@brokercheck.noalloc] probe keys key =
  let mask = Array.length keys - 1 in
  let i = ref (home mask key) in
  while keys.(!i) >= 0 && keys.(!i) <> key do
    i := (!i + 1) land mask
  done;
  !i

let[@inline] is_degraded tbl i = Bytes.get tbl.degraded i <> '\000'

let set tbl i key path degraded =
  tbl.keys.(i) <- key;
  tbl.paths.(i) <- path;
  Bytes.set tbl.degraded i (if degraded then '\001' else '\000')

let grow tbl =
  let keys = tbl.keys and paths = tbl.paths and degraded = tbl.degraded in
  let cap = 2 * Array.length keys in
  tbl.keys <- Array.make cap (-1);
  tbl.paths <- Array.make cap None;
  tbl.degraded <- Bytes.make cap '\000';
  Array.iteri
    (fun i key ->
      if key >= 0 then
        set tbl (probe tbl.keys key) key paths.(i) (Bytes.get degraded i <> '\000'))
    keys

(* Store at [i], the result of [probe] for [key]. *)
let store tbl i key path degraded =
  if tbl.keys.(i) >= 0 then set tbl i key path degraded
  else begin
    tbl.count <- tbl.count + 1;
    if 2 * tbl.count <= Array.length tbl.keys then set tbl i key path degraded
    else begin
      grow tbl;
      set tbl (probe tbl.keys key) key path degraded
    end
  end

(* Backward-shift deletion of the entry at [i]: walk the probe run after
   the hole and move back every entry whose home does not lie cyclically
   in (hole, j], since its probe from home to [j] crossed the hole. *)
let[@brokercheck.noalloc] remove_at tbl i =
  let keys = tbl.keys in
  let mask = Array.length keys - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while keys.(!j) >= 0 do
    let h = home mask keys.(!j) in
    let stays = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
    if not stays then begin
      keys.(!hole) <- keys.(!j);
      tbl.paths.(!hole) <- tbl.paths.(!j);
      Bytes.set tbl.degraded !hole (Bytes.get tbl.degraded !j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!hole) <- -1;
  tbl.paths.(!hole) <- None;
  Bytes.set tbl.degraded !hole '\000';
  tbl.count <- tbl.count - 1

(* Drop the entries [doomed key path degraded] picks, in one pass, and
   return how many went. After a deletion the same index is examined
   again, because a later entry may have shifted into it. An entry that
   shifts past the scan position from the wrapped end was already kept,
   and [doomed] does not change during the pass, so each entry is
   counted at most once. *)
let drop tbl doomed =
  let count = ref 0 and i = ref 0 in
  while !i < Array.length tbl.keys do
    let key = tbl.keys.(!i) in
    if key >= 0 && doomed key tbl.paths.(!i) (is_degraded tbl !i) then begin
      remove_at tbl !i;
      incr count
    end
    else incr i
  done;
  !count

let clear tbl =
  if tbl.count > 0 then begin
    Array.fill tbl.keys 0 (Array.length tbl.keys) (-1);
    Array.fill tbl.paths 0 (Array.length tbl.paths) None;
    Bytes.fill tbl.degraded 0 (Bytes.length tbl.degraded) '\000';
    tbl.count <- 0
  end

let table_iter tbl f =
  Array.iteri (fun i key -> if key >= 0 then f key tbl.paths.(i) (is_degraded tbl i)) tbl.keys

(* One body for every strategy: a table per owner slot. [Modulo] and
   [Ring] give each shard its own slot and place keys by static
   [h mod n_live] or by consistent hashing over [vnodes]-replicated shard
   points; [Flush] keeps one table at slot 0 that no crash takes down.
   The strategies differ only in [owner_slot] and in what [crash] and
   [recover] drop. *)
type t = {
  strategy : strategy;
  n : int;
  is_shard : Bytes.t;  (* per vertex: static broker membership *)
  live : Bytes.t;  (* per vertex: a shard that is up *)
  mutable n_down : int;
  seed : int;
  tables : table array;  (* indexed by owner slot *)
  shard_ids : int array;  (* sorted distinct shard vertex ids *)
  mutable live_slots : int array;  (* sorted live shard slots *)
  ring_pos : int array;  (* ring point positions, ascending; [Ring] only *)
  ring_slot : int array;  (* shard slot owning ring point i *)
  (* [ring_first.(k)]: the first ring index whose position, shifted right
     by [ring_shift], is at least [k]. A successor search starts there. *)
  ring_first : int array;
  ring_shift : int;
  mutable s_lookups : int;
  mutable s_hits : int;
  mutable s_served_degraded : int;
  mutable s_repaired : int;
  mutable s_recomputed : int;
  mutable s_evicted : int;
  mutable s_flushed : int;
}

let stats t =
  {
    lookups = t.s_lookups;
    hits = t.s_hits;
    served_degraded = t.s_served_degraded;
    repaired_lazily = t.s_repaired;
    recomputed = t.s_recomputed;
    evicted = t.s_evicted;
    flushed = t.s_flushed;
  }

(* Ring points sorted by position with a deterministic (slot, replica)
   tie-break; ties across distinct shards are astronomically unlikely but
   must not depend on the sort's internals. *)
let ring_points ~seed ~vnodes shard_ids =
  let points =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun slot v ->
              Array.init vnodes (fun r ->
                  (hash2 ~seed:(seed lxor ring_salt) v r, slot, r)))
            shard_ids))
  in
  Array.sort
    (fun (p1, s1, r1) (p2, s2, r2) ->
      let c = Int.compare p1 p2 in
      if c <> 0 then c
      else
        let c = Int.compare s1 s2 in
        if c <> 0 then c else Int.compare r1 r2)
    points;
  (Array.map (fun (p, _, _) -> p) points, Array.map (fun (_, s, _) -> s) points)

(* Bucket index over the top bits of the 62-bit ring positions: at least
   as many buckets as points, so a successor search scans about one. *)
let ring_buckets pos =
  let len = Array.length pos in
  let bits = ref 1 in
  while 1 lsl !bits < len do
    incr bits
  done;
  let shift = 62 - !bits in
  let first = Array.make ((1 lsl !bits) + 1) len in
  for i = len - 1 downto 0 do
    first.(pos.(i) lsr shift) <- i
  done;
  for k = (1 lsl !bits) - 1 downto 0 do
    first.(k) <- min first.(k) first.(k + 1)
  done;
  (first, shift)

let create ?(strategy = Flush) ?(seed = 0) ~n ~shards () =
  (match strategy with
  | Ring { vnodes } when vnodes < 1 ->
      invalid_arg "Shard_cache.create: vnodes must be >= 1"
  | Flush | Modulo | Ring _ -> ());
  Array.iter
    (fun b ->
      if b < 0 || b >= n then
        invalid_arg "Shard_cache.create: shard id out of range")
    shards;
  let shard_ids = List.sort_uniq Int.compare (Array.to_list shards) in
  let shard_ids = Array.of_list shard_ids in
  let nshards = Array.length shard_ids in
  let is_shard = Bytes.make n '\000' in
  Array.iter (fun b -> Bytes.set is_shard b '\001') shard_ids;
  let tables =
    match strategy with
    | Flush -> [| table_create 1024 |]
    | Modulo | Ring _ -> Array.init nshards (fun _ -> table_create 64)
  in
  let ring_pos, ring_slot =
    match strategy with
    | Ring { vnodes } -> ring_points ~seed ~vnodes shard_ids
    | Flush | Modulo -> ([||], [||])
  in
  let ring_first, ring_shift = ring_buckets ring_pos in
  {
    strategy;
    n;
    is_shard;
    live = Bytes.copy is_shard;
    n_down = 0;
    seed;
    tables;
    shard_ids;
    live_slots = Array.init nshards Fun.id;
    ring_pos;
    ring_slot;
    ring_first;
    ring_shift;
    s_lookups = 0;
    s_hits = 0;
    s_served_degraded = 0;
    s_repaired = 0;
    s_recomputed = 0;
    s_evicted = 0;
    s_flushed = 0;
  }

let size t = Array.fold_left (fun acc tbl -> acc + tbl.count) 0 t.tables

let[@inline] is_live t v = Bytes.get t.live v <> '\000'
let[@inline] is_down t v = Bytes.get t.is_shard v <> '\000' && not (is_live t v)

(* Every hop of a dominated path needs a live broker endpoint; a down
   broker keeps forwarding as a plain AS but stops dominating. *)
let[@brokercheck.noalloc] path_valid t p =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length p - 1 do
    if not (is_live t p.(!i) || is_live t p.(!i + 1)) then ok := false;
    incr i
  done;
  !ok

let[@brokercheck.noalloc] rides_down t p =
  let rides = ref false and i = ref 0 in
  while (not !rides) && !i < Array.length p do
    if is_down t p.(!i) then rides := true;
    incr i
  done;
  !rides

(* Smallest ring index with position >= h, wrapping past the top. Every
   index before [ring_first.(h lsr ring_shift)] holds a position below
   the bucket's floor, itself at most [h]. *)
let[@brokercheck.noalloc] ring_successor t h =
  let pos = t.ring_pos in
  let len = Array.length pos in
  let i = ref t.ring_first.(h lsr t.ring_shift) in
  while !i < len && pos.(!i) < h do
    incr i
  done;
  if !i = len then 0 else !i

(* The slot whose table holds the pair, -1 when no live shard can. *)
let owner_slot t src dst =
  match t.strategy with
  | Flush -> 0
  | Modulo ->
      let len = Array.length t.live_slots in
      if len = 0 then -1 else t.live_slots.(hash2 ~seed:t.seed src dst mod len)
  | Ring _ ->
      let len = Array.length t.ring_pos in
      if len = 0 || Array.length t.live_slots = 0 then -1
      else begin
        let start = ring_successor t (hash2 ~seed:t.seed src dst) in
        let slot = ref (-1) in
        let i = ref 0 in
        while !slot < 0 && !i < len do
          let cand = t.ring_slot.((start + !i) mod len) in
          if is_live t t.shard_ids.(cand) then slot := cand;
          incr i
        done;
        !slot
      end

let owner t src dst =
  match t.strategy with
  | Flush -> None
  | Modulo | Ring _ ->
      let slot = owner_slot t src dst in
      if slot < 0 then None else Some t.shard_ids.(slot)

let hit t =
  t.s_hits <- t.s_hits + 1;
  Obs.Metrics.incr m_hits

let served_degraded t =
  t.s_served_degraded <- t.s_served_degraded + 1;
  Obs.Metrics.incr m_served_degraded

let recomputed t =
  t.s_recomputed <- t.s_recomputed + 1;
  Obs.Metrics.incr m_recomputed

(* Compute the pair's path and store it at [i], [probe]'s index for
   [key]: [compute] never touches the cache, so [i] still is. *)
let recompute t ~compute tbl i key =
  let p = compute () in
  recomputed t;
  store tbl i key p (t.n_down > 0);
  p

let find t ~compute src dst =
  t.s_lookups <- t.s_lookups + 1;
  let slot = owner_slot t src dst in
  if slot < 0 then begin
    (* No live shard to hold the entry: compute, serve, don't cache. *)
    recomputed t;
    compute ()
  end
  else begin
    let tbl = t.tables.(slot) in
    let key = (src * t.n) + dst in
    let i = probe tbl.keys key in
    if tbl.keys.(i) < 0 then recompute t ~compute tbl i key
    else
      match tbl.paths.(i) with
      | Some p when not (path_valid t p) ->
          (* Stale hit: the cached path lost a dominating broker. Lazy
             repair — recompute under current liveness, which fails over
             onto a live dominated path when one exists. *)
          let p' = compute () in
          (match p' with
          | Some _ ->
              t.s_repaired <- t.s_repaired + 1;
              Obs.Metrics.incr m_repaired
          | None -> recomputed t);
          set tbl i key p' (t.n_down > 0);
          p'
      | _ when is_degraded tbl i && t.n_down = 0 ->
          (* Computed under an outage that has fully cleared: recompute once
             so the cache converges back to the optimum. *)
          recompute t ~compute tbl i key
      | path ->
          let rides = match path with Some p -> rides_down t p | None -> false in
          if is_degraded tbl i || rides then served_degraded t else hit t;
          path
  end

let evict t count =
  t.s_evicted <- t.s_evicted + count;
  Obs.Metrics.add m_invalidated count

(* After a membership change each shard sheds the keys it no longer owns
   (they would be unreachable garbage, and under sustained churn they
   would accumulate without bound). This is where the assignment
   functions separate: any change to the live count reassigns ~(n−1)/n
   of [Modulo]'s keys, so both of its transitions compact and cost it
   almost the whole cache. Removing a ring shard never moves a key
   between two live shards — a key's owner is the first live shard on
   its ring walk, and only the dead shard's own keys walk past it — so
   a [Ring] crash has nothing to shed and skips the pass; only the
   recovery handback compacts, shedding the ~1/n of the keys the
   returning shard owns again. *)
let compact t =
  Array.iteri
    (fun slot tbl ->
      evict t (drop tbl (fun key _ _ -> owner_slot t (key / t.n) (key mod t.n) <> slot)))
    t.tables

(* A topology change can reroute any pair, so every cached path is
   suspect: drop everything, regardless of strategy. *)
let invalidate_all t =
  let count = size t in
  if count > 0 then begin
    evict t count;
    Array.iter clear t.tables
  end

let compute_live_slots t =
  List.filter
    (fun slot -> is_live t t.shard_ids.(slot))
    (List.init (Array.length t.shard_ids) Fun.id)

(* Flip shard [b]'s liveness and rebuild the live view from the flags. *)
let set_down t b down =
  Bytes.set t.live b (if down then '\000' else '\001');
  t.n_down <- (t.n_down + if down then 1 else -1);
  t.live_slots <- Array.of_list (compute_live_slots t)

let slot_of t b =
  let rec go slot = if t.shard_ids.(slot) = b then slot else go (slot + 1) in
  go 0

let is_shard t b = b >= 0 && b < t.n && Bytes.get t.is_shard b <> '\000'

let crash t b =
  if is_shard t b && is_live t b then begin
    set_down t b true;
    match t.strategy with
    | Flush ->
        (* Evict exactly the entries whose path rides [b]. Liveness
           changed only at [b], so every survivor is still valid and
           [find] never repairs one. *)
        evict t
          (drop t.tables.(0) (fun _ path _ ->
               match path with
               | Some p -> Array.exists (Int.equal b) p
               | None -> false))
    | Modulo | Ring _ -> (
        (* The shard's own entries died with the broker; everything else
           survives and is validated lazily on hit. *)
        let tbl = t.tables.(slot_of t b) in
        evict t tbl.count;
        clear tbl;
        match t.strategy with
        | Modulo -> compact t
        | Flush | Ring _ -> ())
  end

let recover t b =
  if is_shard t b && not (is_live t b) then begin
    set_down t b false;
    match t.strategy with
    | Flush ->
        (* Every recovery drops every entry computed under an outage: it
           may be suboptimal or spuriously [None]. So no degraded entry
           outlives the last outage, and [find]'s refresh never fires. *)
        let count = drop t.tables.(0) (fun _ _ degraded -> degraded) in
        t.s_flushed <- t.s_flushed + count;
        Obs.Metrics.add m_degraded_flushed count
    | Modulo | Ring _ -> compact t
  end

let invariant_ok t =
  let slot_down slot =
    match t.strategy with
    | Flush -> false
    | Modulo | Ring _ -> not (is_live t t.shard_ids.(slot))
  in
  (* Each table holds only keys it currently owns; for [Flush] also the
     two facts that keep its repair and refresh branches dead: every path
     is valid, and nothing is degraded while nothing is down. Each table
     also holds [count] keys, each found by [probe] where it sits. *)
  let entry_ok slot key path degraded =
    owner_slot t (key / t.n) (key mod t.n) = slot
    &&
    match t.strategy with
    | Flush ->
        (t.n_down > 0 || not degraded)
        && Option.fold ~none:true ~some:(path_valid t) path
    | Modulo | Ring _ -> true
  in
  let tables_ok = ref true in
  Array.iteri
    (fun slot tbl ->
      if slot_down slot && tbl.count > 0 then tables_ok := false;
      let seen = ref 0 in
      Array.iteri
        (fun i key ->
          if key >= 0 then begin
            incr seen;
            if probe tbl.keys key <> i then tables_ok := false
          end
          else if Option.is_some tbl.paths.(i) || is_degraded tbl i then tables_ok := false)
        tbl.keys;
      if !seen <> tbl.count || 2 * tbl.count > Array.length tbl.keys then tables_ok := false;
      table_iter tbl (fun key path degraded ->
          if not (entry_ok slot key path degraded) then tables_ok := false))
    t.tables;
  let live = compute_live_slots t in
  let ring_ok = ref true in
  for i = 0 to Array.length t.ring_pos - 2 do
    if t.ring_pos.(i) > t.ring_pos.(i + 1) then ring_ok := false
  done;
  let n_down = ref 0 in
  Array.iter (fun b -> if not (is_live t b) then incr n_down) t.shard_ids;
  !tables_ok
  && t.n_down = !n_down
  && t.n_down = Array.length t.shard_ids - List.length live
  && List.equal Int.equal (Array.to_list t.live_slots) live
  && !ring_ok
