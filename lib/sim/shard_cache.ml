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

let strategy_of_string ?(vnodes = default_vnodes) s =
  match String.lowercase_ascii s with
  | "flush" -> Ok Flush
  | "modulo" -> Ok Modulo
  | "ring" ->
      if vnodes < 1 then Error "ring cache strategy needs vnodes >= 1"
      else Ok (Ring { vnodes })
  | _ ->
      Error
        ("unknown cache strategy '" ^ s
       ^ "' (expected flush, modulo or ring)")

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

(* Legacy flush-on-crash cache: one global store, a per-broker reverse
   index of the keys whose cached path rides that broker, and the set of
   keys computed while any broker was down. The reverse index holds key
   *sets* (not lists): evicting a key also purges it from the other
   brokers' sets, so the index can no longer accumulate stale entries
   across re-cache cycles. *)
type flush_state = {
  store : (key, int array option) Hashtbl.t;
  rev : (int, (key, unit) Hashtbl.t) Hashtbl.t;
  degraded : (key, unit) Hashtbl.t;
}

(* Sharded cache: one table per shard slot. Entries remember whether they
   were computed under an outage; hits are validated against current
   liveness instead of trusted blindly. Keys are placed by [Modulo]
   (static [h mod n_live]) or [Ring] (consistent hashing over
   [vnodes]-replicated shard points). *)
type sharded_state = {
  tables : (key, entry) Hashtbl.t array;  (* indexed by shard slot *)
  shard_ids : int array;  (* sorted distinct shard vertex ids *)
  mutable live : int array;  (* sorted live slots, for [Modulo] *)
  ring_pos : int array;  (* ring point positions, ascending; [Ring] only *)
  ring_slot : int array;  (* slot owning ring point i *)
}

and entry = { path : int array option; degraded : bool }

type body = Flush_body of flush_state | Sharded_body of sharded_state

type t = {
  strategy : strategy;
  n : int;
  is_shard : bool array;  (* static broker membership *)
  down : bool array;
  mutable n_down : int;
  mutable live_count : int;
  seed : int;
  body : body;
  mutable s_lookups : int;
  mutable s_hits : int;
  mutable s_served_degraded : int;
  mutable s_repaired : int;
  mutable s_recomputed : int;
  mutable s_evicted : int;
  mutable s_flushed : int;
}

let strategy t = t.strategy
let live_shards t = t.live_count

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
  let body =
    match strategy with
    | Flush ->
        Flush_body
          {
            store = Hashtbl.create 1024;
            rev = Hashtbl.create 64;
            degraded = Hashtbl.create 64;
          }
    | Modulo | Ring _ ->
        let tables = Array.init nshards (fun _ -> Hashtbl.create 64) in
        let live = Array.init nshards (fun slot -> slot) in
        let ring_pos, ring_slot =
          match strategy with
          | Ring { vnodes } ->
              let npoints = nshards * vnodes in
              (* Sort ring points by position with a deterministic
                 (slot, replica) tie-break; ties across distinct shards
                 are astronomically unlikely but must not depend on the
                 sort's internals. *)
              let points = Array.make npoints (0, 0, 0) in
              let i = ref 0 in
              Array.iteri
                (fun slot v ->
                  for r = 0 to vnodes - 1 do
                    let pos = hash2 ~seed:(seed lxor ring_salt) v r in
                    points.(!i) <- (pos, slot, r);
                    incr i
                  done)
                shard_ids;
              Array.sort
                (fun (p1, s1, r1) (p2, s2, r2) ->
                  let c = Int.compare p1 p2 in
                  if c <> 0 then c
                  else
                    let c = Int.compare s1 s2 in
                    if c <> 0 then c else Int.compare r1 r2)
                points;
              ( Array.map (fun (p, _, _) -> p) points,
                Array.map (fun (_, s, _) -> s) points )
          | Flush | Modulo -> ([||], [||])
        in
        Sharded_body { tables; shard_ids; live; ring_pos; ring_slot }
  in
  {
    strategy;
    n;
    is_shard;
    down = Array.make n false;
    n_down = 0;
    live_count = nshards;
    seed;
    body;
    s_lookups = 0;
    s_hits = 0;
    s_served_degraded = 0;
    s_repaired = 0;
    s_recomputed = 0;
    s_evicted = 0;
    s_flushed = 0;
  }

let size t =
  match t.body with
  | Flush_body fs -> Hashtbl.length fs.store
  | Sharded_body sh ->
      Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl) 0 sh.tables

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

(* --- Flush body ------------------------------------------------------- *)

let rev_set fs b =
  match Hashtbl.find_opt fs.rev b with
  | Some set -> set
  | None ->
      let set = Hashtbl.create 16 in
      Hashtbl.replace fs.rev b set;
      set

let register_flush t fs key path =
  (* Static broker membership, as the historical simulator cache used:
     a down broker on the path still indexes the key. *)
  Array.iter
    (fun v -> if t.is_shard.(v) then Hashtbl.replace (rev_set fs v) key ())
    path

(* Drop [key] everywhere: store, degraded set, and — via its cached
   path — every broker's reverse-index set (the staleness fix). *)
let purge_flush fs key =
  (match Hashtbl.find_opt fs.store key with
  | Some (Some path) ->
      Array.iter
        (fun v ->
          match Hashtbl.find_opt fs.rev v with
          | Some set -> Hashtbl.remove set key
          | None -> ())
        path
  | Some None | None -> ());
  Hashtbl.remove fs.degraded key;
  Hashtbl.remove fs.store key

let find_flush t fs ~compute src dst =
  let key = (src, dst) in
  match Hashtbl.find_opt fs.store key with
  | Some p ->
      (* Flush never validates a hit — it trusts eviction to have removed
         anything broken. Classify the hit for the stats only. *)
      (match p with
      | Some path when Hashtbl.mem fs.degraded key || rides_down t path ->
          t.s_served_degraded <- t.s_served_degraded + 1;
          Obs.Metrics.incr m_served_degraded
      | Some _ ->
          t.s_hits <- t.s_hits + 1;
          Obs.Metrics.incr m_hits
      | None ->
          if Hashtbl.mem fs.degraded key then begin
            t.s_served_degraded <- t.s_served_degraded + 1;
            Obs.Metrics.incr m_served_degraded
          end
          else begin
            t.s_hits <- t.s_hits + 1;
            Obs.Metrics.incr m_hits
          end);
      p
  | None ->
      let p = compute () in
      Hashtbl.replace fs.store key p;
      (match p with Some path -> register_flush t fs key path | None -> ());
      if t.n_down > 0 then Hashtbl.replace fs.degraded key ();
      t.s_recomputed <- t.s_recomputed + 1;
      Obs.Metrics.incr m_recomputed;
      p

let crash_flush t fs b =
  match Hashtbl.find_opt fs.rev b with
  | Some set ->
      let count = Hashtbl.length set in
      if Obs.Control.enabled () then Obs.Metrics.add m_invalidated count;
      t.s_evicted <- t.s_evicted + count;
      (* Snapshot: purge mutates the sets we are iterating over. *)
      let keys = Hashtbl.fold (fun key () acc -> key :: acc) set [] in
      List.iter (purge_flush fs) keys;
      Hashtbl.remove fs.rev b
  | None -> ()

(* Fires on every full per-broker recovery, exactly as the historical
   simulator's [flush_degraded] did: keys computed under any outage may
   be suboptimal or spuriously None, so they are recomputed on demand. *)
let recover_flush t (fs : flush_state) =
  let count = Hashtbl.length fs.degraded in
  if Obs.Control.enabled () then Obs.Metrics.add m_degraded_flushed count;
  t.s_flushed <- t.s_flushed + count;
  let keys = Hashtbl.fold (fun key () acc -> key :: acc) fs.degraded [] in
  List.iter (purge_flush fs) keys;
  Hashtbl.reset fs.degraded

(* --- Sharded bodies --------------------------------------------------- *)

let rebuild_live t sh =
  let out = Array.make t.live_count 0 in
  let j = ref 0 in
  Array.iteri
    (fun slot v ->
      if not t.down.(v) then begin
        out.(!j) <- slot;
        incr j
      end)
    sh.shard_ids;
  sh.live <- out

(* Smallest ring index with position >= h, wrapping past the top. *)
let ring_successor sh h =
  let pos = sh.ring_pos in
  let len = Array.length pos in
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if pos.(mid) >= h then hi := mid else lo := mid + 1
  done;
  if !lo = len then 0 else !lo

let owner_slot t sh src dst =
  let h = hash2 ~seed:t.seed src dst in
  match t.strategy with
  | Flush -> -1
  | Modulo ->
      let len = Array.length sh.live in
      if len = 0 then -1 else sh.live.(h mod len)
  | Ring _ ->
      let len = Array.length sh.ring_pos in
      if t.live_count = 0 || len = 0 then -1
      else begin
        let start = ring_successor sh h in
        let slot = ref (-1) in
        let i = ref 0 in
        while !slot < 0 && !i < len do
          let cand = sh.ring_slot.((start + !i) mod len) in
          if not t.down.(sh.shard_ids.(cand)) then slot := cand;
          incr i
        done;
        !slot
      end

let owner t src dst =
  match t.body with
  | Flush_body _ -> None
  | Sharded_body sh ->
      let slot = owner_slot t sh src dst in
      if slot < 0 then None else Some sh.shard_ids.(slot)

(* After a membership change each shard sheds the keys it no longer owns
   (they would be unreachable garbage, and under sustained churn they
   would accumulate without bound). This is where the assignment
   functions separate: removing a ring shard never moves a key between
   two live shards, so [Ring] sheds nothing on a crash and ~1/n of the
   keys on the recovery handback, while any change to the live count
   reassigns ~(n−1)/n of [Modulo]'s keys — both transitions cost it
   almost the whole cache. *)
let compact t sh =
  Array.iteri
    (fun slot v ->
      if not t.down.(v) then begin
        let tbl = sh.tables.(slot) in
        let doomed =
          Hashtbl.fold
            (fun ((src, dst) as key) _ acc ->
              if owner_slot t sh src dst <> slot then key :: acc else acc)
            tbl []
        in
        (match doomed with
        | [] -> ()
        | _ ->
            let count = List.length doomed in
            if Obs.Control.enabled () then Obs.Metrics.add m_invalidated count;
            t.s_evicted <- t.s_evicted + count;
            List.iter (Hashtbl.remove tbl) doomed)
      end)
    sh.shard_ids

let store_sharded t tbl key p =
  Hashtbl.replace tbl key { path = p; degraded = t.n_down > 0 }

let find_sharded t sh ~compute src dst =
  let slot = owner_slot t sh src dst in
  if slot < 0 then begin
    (* No live shard to hold the entry: compute, serve, don't cache. *)
    t.s_recomputed <- t.s_recomputed + 1;
    Obs.Metrics.incr m_recomputed;
    compute ()
  end
  else begin
    let tbl = sh.tables.(slot) in
    let key = (src, dst) in
    match Hashtbl.find_opt tbl key with
    | None ->
        let p = compute () in
        store_sharded t tbl key p;
        t.s_recomputed <- t.s_recomputed + 1;
        Obs.Metrics.incr m_recomputed;
        p
    | Some e -> (
        let refresh () =
          (* Entry computed under an outage that has fully cleared:
             recompute once so the cache converges back to the optimum
             (the lazy analogue of Flush's recovery flush). *)
          let p = compute () in
          store_sharded t tbl key p;
          t.s_recomputed <- t.s_recomputed + 1;
          Obs.Metrics.incr m_recomputed;
          p
        in
        match e.path with
        | None ->
            if e.degraded && t.n_down = 0 then refresh ()
            else if e.degraded then begin
              t.s_served_degraded <- t.s_served_degraded + 1;
              Obs.Metrics.incr m_served_degraded;
              None
            end
            else begin
              t.s_hits <- t.s_hits + 1;
              Obs.Metrics.incr m_hits;
              None
            end
        | Some p ->
            if path_valid t p then begin
              if e.degraded && t.n_down = 0 then refresh ()
              else if e.degraded || rides_down t p then begin
                t.s_served_degraded <- t.s_served_degraded + 1;
                Obs.Metrics.incr m_served_degraded;
                Some p
              end
              else begin
                t.s_hits <- t.s_hits + 1;
                Obs.Metrics.incr m_hits;
                Some p
              end
            end
            else begin
              (* Stale hit: the cached path lost a dominating broker.
                 Lazy repair — recompute under current liveness, which
                 fails over onto a live dominated path when one exists. *)
              let p' = compute () in
              (match p' with
              | Some _ ->
                  t.s_repaired <- t.s_repaired + 1;
                  Obs.Metrics.incr m_repaired
              | None ->
                  t.s_recomputed <- t.s_recomputed + 1;
                  Obs.Metrics.incr m_recomputed);
              store_sharded t tbl key p';
              p'
            end)
  end

let crash_sharded t sh b =
  (* The shard's own entries died with the broker; everything else
     survives and is validated lazily on hit. *)
  let slot = ref (-1) in
  Array.iteri (fun i v -> if v = b then slot := i) sh.shard_ids;
  (match !slot with
  | -1 -> ()
  | s ->
      let count = Hashtbl.length sh.tables.(s) in
      if Obs.Control.enabled () then Obs.Metrics.add m_invalidated count;
      t.s_evicted <- t.s_evicted + count;
      Hashtbl.reset sh.tables.(s));
  rebuild_live t sh;
  compact t sh

(* --- Shared front ------------------------------------------------------ *)

let find t ~compute src dst =
  t.s_lookups <- t.s_lookups + 1;
  match t.body with
  | Flush_body fs -> find_flush t fs ~compute src dst
  | Sharded_body sh -> find_sharded t sh ~compute src dst

(* A topology change can reroute any pair, so every cached path is
   suspect: drop everything, regardless of strategy. *)
let invalidate_all t =
  let count = size t in
  if count > 0 then begin
    t.s_evicted <- t.s_evicted + count;
    if Obs.Control.enabled () then Obs.Metrics.add m_invalidated count;
    match t.body with
    | Flush_body fs ->
        Hashtbl.reset fs.store;
        Hashtbl.reset fs.rev;
        Hashtbl.reset fs.degraded
    | Sharded_body sh -> Array.iter Hashtbl.reset sh.tables
  end

let crash t b =
  if b >= 0 && b < t.n && t.is_shard.(b) && not t.down.(b) then begin
    t.down.(b) <- true;
    t.n_down <- t.n_down + 1;
    t.live_count <- t.live_count - 1;
    match t.body with
    | Flush_body fs -> crash_flush t fs b
    | Sharded_body sh -> crash_sharded t sh b
  end

let recover t b =
  if b >= 0 && b < t.n && t.is_shard.(b) && t.down.(b) then begin
    t.down.(b) <- false;
    t.n_down <- t.n_down - 1;
    t.live_count <- t.live_count + 1;
    match t.body with
    | Flush_body fs -> recover_flush t fs
    | Sharded_body sh ->
        rebuild_live t sh;
        compact t sh
  end

let invariant_ok t =
  match t.body with
  | Flush_body fs ->
      let rev_ok = ref true in
      Hashtbl.iter
        (fun b set ->
          Hashtbl.iter
            (fun key () ->
              match Hashtbl.find_opt fs.store key with
              | Some (Some path) ->
                  if not (Array.exists (fun v -> v = b) path) then
                    rev_ok := false
              | Some None | None -> rev_ok := false)
            set)
        fs.rev;
      let degraded_ok = ref true in
      Hashtbl.iter
        (fun key () ->
          if not (Hashtbl.mem fs.store key) then degraded_ok := false)
        fs.degraded;
      !rev_ok && !degraded_ok
  | Sharded_body sh ->
      let down_empty = ref true in
      Array.iteri
        (fun slot v ->
          if t.down.(v) && Hashtbl.length sh.tables.(slot) > 0 then
            down_empty := false)
        sh.shard_ids;
      (* Compaction on every transition keeps each shard holding exactly
         keys it currently owns. *)
      let owned = ref true in
      Array.iteri
        (fun slot _ ->
          Hashtbl.iter
            (fun (src, dst) _ ->
              if owner_slot t sh src dst <> slot then owned := false)
            sh.tables.(slot))
        sh.shard_ids;
      let live_expected =
        Array.to_list sh.shard_ids
        |> List.filter (fun v -> not t.down.(v))
        |> List.length
      in
      let live_ok =
        t.live_count = live_expected
        &&
        match t.strategy with
        | Modulo ->
            Array.length sh.live = live_expected
            && Array.for_all
                 (fun slot -> not t.down.(sh.shard_ids.(slot)))
                 sh.live
        | Flush | Ring _ -> true
      in
      let ring_ok =
        let ok = ref true in
        for i = 0 to Array.length sh.ring_pos - 2 do
          if sh.ring_pos.(i) > sh.ring_pos.(i + 1) then ok := false
        done;
        !ok
      in
      !down_empty && !owned && live_ok && ring_ok
