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
   identical across runs, processes and REPRO_DOMAINS settings. *)
let mix64 state =
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
let hash2 ~seed a b =
  let h = mix64 (Int64.add (Int64.of_int seed) (Int64.of_int a)) in
  let h = mix64 (Int64.logxor h (Int64.of_int b)) in
  Int64.to_int (Int64.logand h 0x3FFF_FFFF_FFFF_FFFFL)

(* Salt so ring-point placement and key placement draw from unrelated
   streams even though they share the user seed. *)
let ring_salt = 0x52696E67 (* "Ring" *)

type key = int * int

(* A cached path remembers whether it was computed under an outage;
   hits are validated against current liveness instead of trusted
   blindly. *)
type entry = { path : int array option; degraded : bool }

(* One body for every strategy: a table per owner slot. [Modulo] and
   [Ring] give each shard its own slot and place keys by static
   [h mod n_live] or by consistent hashing over [vnodes]-replicated shard
   points; [Flush] keeps one table at slot 0 that no crash takes down.
   The strategies differ only in [owner_slot] and in what [crash] and
   [recover] drop. *)
type t = {
  strategy : strategy;
  n : int;
  is_shard : bool array;  (* static broker membership *)
  down : bool array;
  mutable n_down : int;
  seed : int;
  tables : (key, entry) Hashtbl.t array;  (* indexed by owner slot *)
  shard_ids : int array;  (* sorted distinct shard vertex ids *)
  mutable live : int array;  (* sorted live shard slots *)
  ring_pos : int array;  (* ring point positions, ascending; [Ring] only *)
  ring_slot : int array;  (* shard slot owning ring point i *)
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
  let is_shard = Array.make n false in
  Array.iter (fun b -> is_shard.(b) <- true) shard_ids;
  let tables =
    match strategy with
    | Flush -> [| Hashtbl.create 1024 |]
    | Modulo | Ring _ -> Array.init nshards (fun _ -> Hashtbl.create 64)
  in
  let ring_pos, ring_slot =
    match strategy with
    | Ring { vnodes } -> ring_points ~seed ~vnodes shard_ids
    | Flush | Modulo -> ([||], [||])
  in
  {
    strategy;
    n;
    is_shard;
    down = Array.make n false;
    n_down = 0;
    seed;
    tables;
    shard_ids;
    live = Array.init nshards Fun.id;
    ring_pos;
    ring_slot;
    s_lookups = 0;
    s_hits = 0;
    s_served_degraded = 0;
    s_repaired = 0;
    s_recomputed = 0;
    s_evicted = 0;
    s_flushed = 0;
  }

let size t = Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl) 0 t.tables

(* Every hop of a dominated path needs a live broker endpoint; a down
   broker keeps forwarding as a plain AS but stops dominating. *)
let path_valid t p =
  let live v = t.is_shard.(v) && not t.down.(v) in
  let ok = ref true in
  for i = 0 to Array.length p - 2 do
    if not (live p.(i) || live p.(i + 1)) then ok := false
  done;
  !ok

let rides_down t p = Array.exists (fun v -> t.is_shard.(v) && t.down.(v)) p

(* Smallest ring index with position >= h, wrapping past the top. *)
let ring_successor t h =
  let pos = t.ring_pos in
  let len = Array.length pos in
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if pos.(mid) >= h then hi := mid else lo := mid + 1
  done;
  if !lo = len then 0 else !lo

(* The slot whose table holds the pair, -1 when no live shard can. *)
let owner_slot t src dst =
  match t.strategy with
  | Flush -> 0
  | Modulo ->
      let len = Array.length t.live in
      if len = 0 then -1 else t.live.(hash2 ~seed:t.seed src dst mod len)
  | Ring _ ->
      let len = Array.length t.ring_pos in
      if len = 0 || Array.length t.live = 0 then -1
      else begin
        let start = ring_successor t (hash2 ~seed:t.seed src dst) in
        let slot = ref (-1) in
        let i = ref 0 in
        while !slot < 0 && !i < len do
          let cand = t.ring_slot.((start + !i) mod len) in
          if not t.down.(t.shard_ids.(cand)) then slot := cand;
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
    let key = (src, dst) in
    let store p =
      Hashtbl.replace tbl key { path = p; degraded = t.n_down > 0 };
      p
    in
    let recompute () =
      let p = compute () in
      recomputed t;
      store p
    in
    match Hashtbl.find_opt tbl key with
    | None -> recompute ()
    | Some { path = Some p; _ } when not (path_valid t p) ->
        (* Stale hit: the cached path lost a dominating broker. Lazy
           repair — recompute under current liveness, which fails over
           onto a live dominated path when one exists. *)
        let p' = compute () in
        (match p' with
        | Some _ ->
            t.s_repaired <- t.s_repaired + 1;
            Obs.Metrics.incr m_repaired
        | None -> recomputed t);
        store p'
    | Some e when e.degraded && t.n_down = 0 ->
        (* Computed under an outage that has fully cleared: recompute once
           so the cache converges back to the optimum. *)
        recompute ()
    | Some e ->
        let rides = match e.path with Some p -> rides_down t p | None -> false in
        if e.degraded || rides then served_degraded t else hit t;
        e.path
  end

let evict t count =
  t.s_evicted <- t.s_evicted + count;
  Obs.Metrics.add m_invalidated count

(* Drop the entries of [tbl] that [doomed] picks, in one pass; returns
   how many went. *)
let drop tbl doomed =
  let count = ref 0 in
  Hashtbl.filter_map_inplace
    (fun key e ->
      if doomed key e then begin
        incr count;
        None
      end
      else Some e)
    tbl;
  !count

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
      evict t (drop tbl (fun (src, dst) _ -> owner_slot t src dst <> slot)))
    t.tables

(* A topology change can reroute any pair, so every cached path is
   suspect: drop everything, regardless of strategy. *)
let invalidate_all t =
  let count = size t in
  if count > 0 then begin
    evict t count;
    Array.iter Hashtbl.reset t.tables
  end

let live_slots t =
  List.filter
    (fun slot -> not t.down.(t.shard_ids.(slot)))
    (List.init (Array.length t.shard_ids) Fun.id)

(* Flip shard [b]'s liveness and rebuild the live view from the flags. *)
let set_down t b down =
  t.down.(b) <- down;
  t.n_down <- (t.n_down + if down then 1 else -1);
  t.live <- Array.of_list (live_slots t)

let slot_of t b =
  let rec go slot = if t.shard_ids.(slot) = b then slot else go (slot + 1) in
  go 0

let crash t b =
  if b >= 0 && b < t.n && t.is_shard.(b) && not t.down.(b) then begin
    set_down t b true;
    match t.strategy with
    | Flush ->
        (* Evict exactly the entries whose path rides [b]. Liveness
           changed only at [b], so every survivor is still valid and
           [find] never repairs one. *)
        evict t
          (drop t.tables.(0) (fun _ e ->
               match e.path with
               | Some p -> Array.exists (Int.equal b) p
               | None -> false))
    | Modulo | Ring _ -> (
        (* The shard's own entries died with the broker; everything else
           survives and is validated lazily on hit. *)
        let tbl = t.tables.(slot_of t b) in
        evict t (Hashtbl.length tbl);
        Hashtbl.reset tbl;
        match t.strategy with
        | Modulo -> compact t
        | Flush | Ring _ -> ())
  end

let recover t b =
  if b >= 0 && b < t.n && t.is_shard.(b) && t.down.(b) then begin
    set_down t b false;
    match t.strategy with
    | Flush ->
        (* Every recovery drops every entry computed under an outage: it
           may be suboptimal or spuriously [None]. So no degraded entry
           outlives the last outage, and [find]'s refresh never fires. *)
        let count = drop t.tables.(0) (fun _ e -> e.degraded) in
        t.s_flushed <- t.s_flushed + count;
        Obs.Metrics.add m_degraded_flushed count
    | Modulo | Ring _ -> compact t
  end

let invariant_ok t =
  let slot_down slot =
    match t.strategy with
    | Flush -> false
    | Modulo | Ring _ -> t.down.(t.shard_ids.(slot))
  in
  (* Each table holds only keys it currently owns; for [Flush] also the
     two facts that keep its repair and refresh branches dead: every path
     is valid, and nothing is degraded while nothing is down. *)
  let entry_ok slot (src, dst) e =
    owner_slot t src dst = slot
    &&
    match t.strategy with
    | Flush ->
        (t.n_down > 0 || not e.degraded)
        && Option.fold ~none:true ~some:(path_valid t) e.path
    | Modulo | Ring _ -> true
  in
  let tables_ok = ref true in
  Array.iteri
    (fun slot tbl ->
      if slot_down slot && Hashtbl.length tbl > 0 then tables_ok := false;
      Hashtbl.iter
        (fun key e -> if not (entry_ok slot key e) then tables_ok := false)
        tbl)
    t.tables;
  let live = live_slots t in
  let ring_ok = ref true in
  for i = 0 to Array.length t.ring_pos - 2 do
    if t.ring_pos.(i) > t.ring_pos.(i + 1) then ring_ok := false
  done;
  !tables_ok
  && t.n_down = Array.length t.shard_ids - List.length live
  && List.equal Int.equal (Array.to_list t.live) live
  && !ring_ok
