(* Unit + property tests for Broker_util: Xrandom, Bitset, Heap,
   Union_find, Stats, Sampling, Optimize, Table. *)

open Helpers
module R = Broker_util.Xrandom
module Bitset = Broker_util.Bitset
module Heap = Broker_util.Heap
module Uf = Broker_util.Union_find
module Stats = Broker_util.Stats
module Sampling = Broker_util.Sampling
module Opt = Broker_util.Optimize
module Table = Broker_util.Table

(* ---------- Xrandom ---------- *)

let test_xrandom_deterministic () =
  let a = R.create 1 and b = R.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (R.bits64 a) (R.bits64 b)
  done

let test_xrandom_different_seeds () =
  let a = R.create 1 and b = R.create 2 in
  check_bool "different streams" false (R.bits64 a = R.bits64 b)

let test_xrandom_int_bounds () =
  let r = rng () in
  for _ = 1 to 10_000 do
    let v = R.int r 7 in
    check_bool "in [0,7)" true (v >= 0 && v < 7)
  done

let test_xrandom_float_mean () =
  let r = rng () in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. R.float r 1.0
  done;
  check_float_eps 0.02 "uniform mean" 0.5 (!acc /. float_of_int n)

let test_xrandom_bernoulli () =
  let r = rng () in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if R.bernoulli r 0.3 then incr hits
  done;
  check_float_eps 0.03 "p=0.3" 0.3 (float_of_int !hits /. 10_000.0)

let test_xrandom_shuffle_permutes () =
  let r = rng () in
  let a = Array.init 50 (fun i -> i) in
  R.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_xrandom_permutation () =
  let r = rng () in
  let p = R.permutation r 30 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 30 (fun i -> i)) sorted

let test_xrandom_invalid_args () =
  let r = rng () in
  Alcotest.check_raises "int 0" (Invalid_argument "Xrandom.int: bound must be positive")
    (fun () -> ignore (R.int r 0))

let test_xrandom_exponential_positive () =
  let r = rng () in
  for _ = 1 to 1_000 do
    check_bool "positive" true (R.exponential r 2.0 >= 0.0)
  done

let test_xrandom_pareto_min () =
  let r = rng () in
  for _ = 1 to 1_000 do
    check_bool ">= x_min" true (R.pareto r ~alpha:1.5 ~x_min:2.0 >= 2.0)
  done

let test_xrandom_geometric () =
  let r = rng () in
  for _ = 1 to 1_000 do
    check_bool "non-negative" true (R.geometric r 0.5 >= 0)
  done;
  check_int "p=1 -> 0" 0 (R.geometric r 1.0)

(* The first outputs of one stream per seed, pinned: three raw words,
   [int] on power-of-two, odd and near-2^61 bounds (the last rejects
   about half its draws) and three floats in hex. *)
let test_xrandom_pinned () =
  let outputs seed =
    let r = R.create seed in
    List.init 3 (fun _ -> Int64.to_string (R.bits64 r))
    @ List.map (fun b -> string_of_int (R.int r b)) [ 7; 1 lsl 20; 1_000_003; (1 lsl 61) + 1; max_int ]
    @ List.init 3 (fun _ -> Printf.sprintf "%h" (R.float r 1.0))
  in
  Alcotest.(check (list string)) "seed 1"
    [ "-2450604114301859295"; "-8269493420433231408"; "-1243818904632809775"; "6"; "576924";
      "955533"; "327638229622539321"; "1757902983245101607"; "0x1.67e55eda1f8e2p-1";
      "0x1.0a76ab2c8e6c9p-1"; "0x1.25f12eac10548p-1" ]
    (outputs 1);
  Alcotest.(check (list string)) "seed 42"
    [ "5928998142081247042"; "-5328343041887926323"; "-2254796632595466246"; "6"; "726937";
      "263172"; "1340514569795920473"; "3694072553334223277"; "0x1.5780b2e0c2ecp-4";
      "0x1.84136619b444ep-2"; "0x1.5c2ea66473c93p-1" ]
    (outputs 42)

let xrandom_qcheck =
  qcheck
    (QCheck.Test.make ~count:500 ~name:"Xrandom.int in range"
       QCheck.(pair (int_range 1 1000) small_nat)
       (fun (bound, seed) ->
         let r = R.create seed in
         let v = R.int r bound in
         v >= 0 && v < bound))

(* ---------- Bitset ---------- *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  check_int "empty" 0 (Bitset.cardinal s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 99;
  check_bool "mem 0" true (Bitset.mem s 0);
  check_bool "mem 63" true (Bitset.mem s 63);
  check_bool "mem 99" true (Bitset.mem s 99);
  check_bool "not mem 50" false (Bitset.mem s 50);
  check_int "cardinal" 3 (Bitset.cardinal s);
  Bitset.remove s 63;
  check_bool "removed" false (Bitset.mem s 63);
  check_int "cardinal after remove" 2 (Bitset.cardinal s)

let bitset_of_list n l =
  let s = Bitset.create n in
  List.iter (Bitset.add s) l;
  s

let members s =
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) s;
  List.rev !acc

let test_bitset_iter_order () =
  let s = bitset_of_list 200 [ 150; 3; 77; 3 ] in
  Alcotest.(check (list int)) "sorted members" [ 3; 77; 150 ] (members s);
  (* Members on both sides of the 63-bit word boundaries. *)
  let s = bitset_of_list 200 [ 126; 63; 0; 62; 199 ] in
  Alcotest.(check (list int)) "across words" [ 0; 62; 63; 126; 199 ] (members s);
  check_int "cardinal across words" 5 (Bitset.cardinal s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Bitset: index out of bounds") (fun () -> Bitset.add s 10)

let bitset_qcheck =
  qcheck
    (QCheck.Test.make ~count:200 ~name:"Bitset matches list-set semantics"
       QCheck.(small_list (int_range 0 255))
       (fun items ->
         let s = bitset_of_list 256 items in
         let reference = List.sort_uniq compare items in
         members s = reference
         && Bitset.cardinal s = List.length reference))

(* One add/test per bit position: the branch-free SWAR popcount against
   the obvious shift-and-mask loop, over full-width patterns. *)
let naive_popcount x =
  let c = ref 0 in
  for b = 0 to Bitset.bits_per_word - 1 do
    if (x lsr b) land 1 = 1 then incr c
  done;
  !c

let test_popcount_edges () =
  check_int "popcount 0" 0 (Bitset.popcount 0);
  check_int "popcount 1" 1 (Bitset.popcount 1);
  check_int "popcount -1 (all 63 bits)" 63 (Bitset.popcount (-1));
  check_int "popcount max_int" 62 (Bitset.popcount max_int);
  check_int "popcount min_int" 1 (Bitset.popcount min_int);
  check_int "popcount top bit" 1 (Bitset.popcount (1 lsl 62));
  check_int "alternating 0101" (naive_popcount 0x1555555555555555)
    (Bitset.popcount 0x1555555555555555)

let popcount_qcheck =
  qcheck
    (QCheck.Test.make ~count:500 ~name:"SWAR popcount = naive bit loop"
       QCheck.(triple int int int)
       (fun (a, b, c) ->
         (* Mix the generator's ints into denser full-width patterns. *)
         let xs = [ a; b; c; a lxor b; a lor (b lsl 13); a land c; lnot b ] in
         List.for_all (fun x -> Bitset.popcount x = naive_popcount x) xs))

(* ---------- Heap ---------- *)

let pop h = Option.get (Heap.pop h)

let test_heap_sorts_min () =
  let h = Heap.create Heap.Min in
  List.iter (fun (p, v) -> Heap.push h ~priority:p v)
    [ (3.0, 3); (1.0, 1); (2.0, 2); (0.5, 0) ];
  let order = List.init 4 (fun _ -> snd (pop h)) in
  Alcotest.(check (list int)) "ascending" [ 0; 1; 2; 3 ] order

let test_heap_sorts_max () =
  let h = Heap.create Heap.Max in
  List.iter (fun v -> Heap.push h ~priority:(float_of_int v) v) [ 5; 1; 9; 3 ];
  let order = List.init 4 (fun _ -> snd (pop h)) in
  Alcotest.(check (list int)) "descending" [ 9; 5; 3; 1 ] order

let test_heap_empty () =
  let h = Heap.create Heap.Min in
  check_bool "pop empty" true (Heap.pop h = None)

let test_heap_grow () =
  let h = Heap.create ~initial_capacity:1 Heap.Min in
  for i = 99 downto 0 do
    Heap.push h ~priority:(float_of_int i) i
  done;
  for i = 0 to 99 do
    check_int "ordered" i (snd (pop h))
  done;
  check_bool "drained" true (Heap.pop h = None)

let heap_qcheck =
  qcheck
    (QCheck.Test.make ~count:200 ~name:"Heap sort = List.sort"
       QCheck.(small_list (float_range (-1000.0) 1000.0))
       (fun floats ->
         let h = Heap.create Heap.Min in
         List.iteri (fun i p -> Heap.push h ~priority:p i) floats;
         let popped = List.init (List.length floats) (fun _ -> fst (pop h)) in
         popped = List.sort compare floats))

(* ---------- Union_find ---------- *)

let test_uf_basic () =
  let uf = Uf.create 10 in
  check_bool "singleton" true (Uf.find uf 3 = 3);
  check_bool "union" true (Uf.union uf 0 1);
  check_bool "redundant union" false (Uf.union uf 0 1);
  check_bool "same" true (Uf.find uf 0 = Uf.find uf 1);
  check_bool "not same" false (Uf.find uf 0 = Uf.find uf 2);
  check_bool "transitive union" true (Uf.union uf 2 1);
  check_bool "transitive" true (Uf.find uf 0 = Uf.find uf 2)

(* ---------- Stats ---------- *)

let test_stats_moments () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" 1.25 (Stats.variance xs);
  check_float "stddev" (sqrt 1.25) (Stats.stddev xs)

let test_stats_quantiles () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "median" 2.5 (Stats.median xs);
  check_float "q0" 1.0 (Stats.quantile xs 0.0);
  check_float "q1" 4.0 (Stats.quantile xs 1.0)

let test_stats_pearson () =
  let xs = [| 1.0; 2.0; 3.0 |] in
  check_float "perfect" 1.0 (Stats.pearson xs [| 2.0; 4.0; 6.0 |]);
  check_float "anti" (-1.0) (Stats.pearson xs [| 3.0; 2.0; 1.0 |]);
  check_float "constant" 0.0 (Stats.pearson xs [| 5.0; 5.0; 5.0 |])

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0 |] in
  check_int "n" 3 s.Stats.n;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 3.0 s.Stats.max

let stats_qcheck_quantile =
  qcheck
    (QCheck.Test.make ~count:200 ~name:"quantile within [min,max]"
       QCheck.(pair (list_of_size Gen.(int_range 1 50) (float_range (-100.) 100.)) (float_range 0.0 1.0))
       (fun (l, q) ->
         let xs = Array.of_list l in
         let v = Stats.quantile xs q in
         let lo = Array.fold_left min xs.(0) xs and hi = Array.fold_left max xs.(0) xs in
         v >= lo -. 1e-9 && v <= hi +. 1e-9))

(* ---------- Sampling ---------- *)

let test_sampling_without_replacement () =
  let r = rng () in
  let s = Sampling.without_replacement r ~n:100 ~k:30 in
  check_int "k items" 30 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "sorted output" sorted s;
  let distinct = List.sort_uniq compare (Array.to_list s) in
  check_int "distinct" 30 (List.length distinct);
  Array.iter (fun v -> check_bool "range" true (v >= 0 && v < 100)) s

let test_sampling_full () =
  let r = rng () in
  let s = Sampling.without_replacement r ~n:10 ~k:10 in
  Alcotest.(check (array int)) "all items" (Array.init 10 (fun i -> i)) s

let test_sampling_alias () =
  let r = rng () in
  let draw = Sampling.weighted_alias [| 1.0; 0.0; 3.0 |] in
  let hits = Array.make 3 0 in
  for _ = 1 to 4_000 do
    let i = draw r in
    hits.(i) <- hits.(i) + 1
  done;
  check_int "zero weight never drawn" 0 hits.(1);
  check_bool "heavy dominates" true (hits.(2) > 2 * hits.(0))

(* ---------- Optimize ---------- *)

let test_golden_section () =
  let x, fx = Opt.golden_section_max (fun x -> -.((x -. 2.0) ** 2.0)) ~lo:0.0 ~hi:5.0 in
  check_float_eps 1e-6 "argmax" 2.0 x;
  check_float_eps 1e-9 "max" 0.0 fx

let test_grid_then_golden_bimodal () =
  (* Two peaks at 1 and 4; the higher is at 4. Plain golden section from
     the full bracket can land on the wrong one; the grid localizes. *)
  let f x = Float.max (1.0 -. ((x -. 1.0) ** 2.0)) (1.5 -. ((x -. 4.0) ** 2.0)) in
  let x, _ = Opt.grid_then_golden ~steps:64 f ~lo:0.0 ~hi:5.0 in
  check_float_eps 0.05 "higher peak" 4.0 x

(* ---------- Table ---------- *)

let test_table_render () =
  let t = Table.create ~headers:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  check_bool "has header" true
    (String.length out > 0
    && String.sub out 0 4 = "name");
  (* Numeric column right-aligned: " 1" before "22". *)
  check_bool "contains rows" true
    (String.length out > 0)

let test_table_arity () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only one" ])

(* --- Parallel stride boundary coverage ------------------------------- *)

module Parallel = Broker_util.Parallel

(* The fan-out reads the domain budget from REPRO_DOMAINS when no
   explicit ?domains is passed; exercising it through the env var
   covers the same path the experiments use.

   Each worker lists the indices it visited (worker-local accumulator);
   the deterministic merge concatenates in stride order. Sorting
   the union and comparing against [0 .. n-1] catches both missed and
   doubly-visited indices. *)
let strided_visits n =
  Parallel.strided ~n
    ~worker:(fun ~start ~step ->
      let acc = ref [] in
      let i = ref start in
      while !i < n do
        acc := !i :: !acc;
        i := !i + step
      done;
      List.rev !acc)
    ~merge:( @ ) []

let exact_cover n visits =
  List.sort Int.compare visits = List.init n (fun i -> i)

let test_parallel_boundaries () =
  (* Exhaustive sweep of the adversarial corner pairs: n = 0, n below the
     sequential-fallback threshold (n < 4), n < domains, n = domains,
     and n just past a multiple of the domain count. *)
  List.iter
    (fun domains ->
      with_domains (string_of_int domains) (fun () ->
          List.iter
            (fun n ->
              Alcotest.(check bool)
                (Printf.sprintf "strided exact cover (n=%d domains=%d)" n
                   domains)
                true
                (exact_cover n (strided_visits n)))
            [ 0; 1; 2; 3; 4; 5; 7; 8; 9; 12; 13 ]))
    [ 1; 3; 4 ]

let parallel_qcheck =
  qcheck
    (QCheck.Test.make ~count:60
       ~name:"Parallel.strided visits every index exactly once"
       QCheck.(pair (int_range 0 97) (oneofl [ 1; 3; 4 ]))
       (fun (n, domains) ->
         with_domains (string_of_int domains) (fun () ->
             exact_cover n (strided_visits n))))

let test_domains_env_default () =
  with_domains "" (fun () ->
      check_int "empty REPRO_DOMAINS is the default"
        (min 8 (Domain.recommended_domain_count ()))
        (Parallel.domain_count ()));
  with_domains "3" (fun () -> check_int "REPRO_DOMAINS=3" 3 (Parallel.domain_count ()))

let domains_rejected v () =
  with_domains v (fun () ->
      Alcotest.check_raises ("REPRO_DOMAINS=" ^ v)
        (Invalid_argument
           (Printf.sprintf "REPRO_DOMAINS: expected an integer >= 1, got %S" v))
        (fun () -> ignore (Parallel.domain_count ())))

let suite =
  [
    ( "util.xrandom",
      [
        Alcotest.test_case "deterministic" `Quick test_xrandom_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_xrandom_different_seeds;
        Alcotest.test_case "int bounds" `Quick test_xrandom_int_bounds;
        Alcotest.test_case "float mean" `Quick test_xrandom_float_mean;
        Alcotest.test_case "bernoulli rate" `Quick test_xrandom_bernoulli;
        Alcotest.test_case "shuffle permutes" `Quick test_xrandom_shuffle_permutes;
        Alcotest.test_case "permutation" `Quick test_xrandom_permutation;
        Alcotest.test_case "invalid args" `Quick test_xrandom_invalid_args;
        Alcotest.test_case "exponential" `Quick test_xrandom_exponential_positive;
        Alcotest.test_case "pareto min" `Quick test_xrandom_pareto_min;
        Alcotest.test_case "geometric" `Quick test_xrandom_geometric;
        Alcotest.test_case "pinned outputs" `Quick test_xrandom_pinned;
        xrandom_qcheck;
      ] );
    ( "util.bitset",
      [
        Alcotest.test_case "basic ops" `Quick test_bitset_basic;
        Alcotest.test_case "iter order" `Quick test_bitset_iter_order;
        Alcotest.test_case "bounds check" `Quick test_bitset_bounds;
        bitset_qcheck;
        Alcotest.test_case "popcount edge patterns" `Quick test_popcount_edges;
        popcount_qcheck;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "min order" `Quick test_heap_sorts_min;
        Alcotest.test_case "max order" `Quick test_heap_sorts_max;
        Alcotest.test_case "empty" `Quick test_heap_empty;
        Alcotest.test_case "grow" `Quick test_heap_grow;
        heap_qcheck;
      ] );
    ( "util.union_find",
      [
        Alcotest.test_case "basic" `Quick test_uf_basic;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "moments" `Quick test_stats_moments;
        Alcotest.test_case "quantiles" `Quick test_stats_quantiles;
        Alcotest.test_case "pearson" `Quick test_stats_pearson;
        Alcotest.test_case "summary" `Quick test_stats_summary;
        stats_qcheck_quantile;
      ] );
    ( "util.sampling",
      [
        Alcotest.test_case "without replacement" `Quick test_sampling_without_replacement;
        Alcotest.test_case "k = n" `Quick test_sampling_full;
        Alcotest.test_case "alias method" `Quick test_sampling_alias;
      ] );
    ( "util.optimize",
      [
        Alcotest.test_case "golden section" `Quick test_golden_section;
        Alcotest.test_case "bimodal grid+golden" `Quick test_grid_then_golden_bimodal;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "arity" `Quick test_table_arity;
      ] );
    ( "util.parallel",
      [
        Alcotest.test_case "stride boundaries" `Quick
          test_parallel_boundaries;
        parallel_qcheck;
        Alcotest.test_case "REPRO_DOMAINS unset or empty" `Quick
          test_domains_env_default;
        Alcotest.test_case "REPRO_DOMAINS not an integer" `Quick
          (domains_rejected "abc");
        Alcotest.test_case "REPRO_DOMAINS out of range" `Quick
          (domains_rejected "0");
      ] );
  ]
