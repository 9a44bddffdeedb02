(* Drives the brokercheck executable (tools/check) over the compiled
   fixture library in tools/check/fixtures/. Each identifier rule R1-R10
   has one violating and one clean fixture; the C1/C2 bad fixtures seed
   one violation per rule construct (a data race per shared-state class
   for C1, an allocation per construct class for C2). Violating fixtures
   must fail with [file:line:col: [rule]] diagnostics; clean and
   suppressed ones must pass silently. Final cases check the real
   artifacts, pinning "the repo as shipped checks clean".

   The checker reads .cmt files, so every target here is a build
   artifact (under .brokercheck_fixtures.objs/byte/), not a source
   file; [--source-root ..] lets it find the sources the diagnostics
   (and suppression comments) refer to. *)

let exe = "../tools/check/brokercheck.exe"

let fixture name =
  "../tools/check/fixtures/.brokercheck_fixtures.objs/byte/brokercheck_fixtures__"
  ^ String.capitalize_ascii name ^ ".cmt"

type result = { code : int; output : string }

let run_check args =
  let cmd =
    Filename.quote_command exe ("--source-root" :: ".." :: args) ^ " 2>&1"
  in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> { code; output = Buffer.contents buf }
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
      Alcotest.fail "brokercheck killed by signal"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec probe i =
    i + nn <= nh && (String.sub haystack i nn = needle || probe (i + 1))
  in
  nn = 0 || probe 0

let check_contains output needle =
  Alcotest.(check bool)
    (Printf.sprintf "output mentions %S" needle)
    true (contains output needle)

let check_absent output needle =
  Alcotest.(check bool)
    (Printf.sprintf "output does not mention %S" needle)
    false (contains output needle)

(* A violating fixture must exit 1 and name every expected
   file:line / rule pair; a clean one must exit 0 with no output. *)
let check_bad ~rule ~file ~lines r =
  Alcotest.(check int) (file ^ " exits 1") 1 r.code;
  check_contains r.output ("[" ^ rule ^ "]");
  List.iter
    (fun line -> check_contains r.output (Printf.sprintf "%s:%d:" file line))
    lines

let check_clean ~file r =
  Alcotest.(check int) (file ^ " exits 0") 0 r.code;
  Alcotest.(check string) (file ^ " is silent") "" r.output

(* Identifier-rule fixtures stand for library code: [--lib]. *)
let test_rule ~rule ~bad ~bad_lines ~good () =
  check_bad ~rule ~file:(bad ^ ".ml") ~lines:bad_lines
    (run_check [ "--lib"; fixture bad ]);
  check_clean ~file:(good ^ ".ml") (run_check [ "--lib"; fixture good ])

(* Outside library code: the [flagged] lines still fire, the
   library-only [silent] ones do not. *)
let check_scope ~file ~flagged ~silent =
  let r = run_check [ fixture file ] in
  Alcotest.(check int) (file ^ " exits 1 outside lib") 1 r.code;
  List.iter
    (fun line -> check_contains r.output (Printf.sprintf "%s.ml:%d:" file line))
    flagged;
  List.iter
    (fun line -> check_absent r.output (Printf.sprintf "%s.ml:%d:" file line))
    silent

let r1 =
  test_rule ~rule:"no-poly-compare" ~bad:"r1_bad" ~bad_lines:[ 4; 7 ]
    ~good:"r1_good"

(* The sort-comparator half of R1 applies everywhere; bare compare (line
   7's lambda) is library-only. *)
let r1_outside_lib () = check_scope ~file:"r1_bad" ~flagged:[ 4 ] ~silent:[ 7 ]

let r2 =
  test_rule ~rule:"determinism" ~bad:"r2_bad" ~bad_lines:[ 4; 5; 6 ]
    ~good:"r2_good"

(* Random.self_init is banned everywhere, plain draws only in lib. *)
let r2_self_init_outside_lib () =
  check_scope ~file:"r2_bad" ~flagged:[ 4 ] ~silent:[ 5; 6 ]

let r3 = test_rule ~rule:"mli-complete" ~bad:"r3_bad" ~bad_lines:[ 1 ] ~good:"r3_good"

let r4 =
  test_rule ~rule:"domain-confinement" ~bad:"r4_bad" ~bad_lines:[ 13 ]
    ~good:"r4_good"

let r5 =
  test_rule ~rule:"no-stdout-in-lib" ~bad:"r5_bad" ~bad_lines:[ 5; 6; 8 ]
    ~good:"r5_good"

let r6 =
  test_rule ~rule:"no-list-nth" ~bad:"r6_bad" ~bad_lines:[ 7; 15 ]
    ~good:"r6_good"

let r7 () =
  check_bad ~rule:"report-pure" ~file:"r7_bad.ml" ~lines:[ 16; 17; 18 ]
    (run_check [ "--experiments"; fixture "r7_bad" ]);
  check_clean ~file:"r7_good.ml"
    (run_check [ "--lib"; "--experiments"; fixture "r7_good" ])

(* R7 only binds experiment modules: the same unit checks clean outside
   --experiments (and outside lib/experiments/). *)
let r7_scope () = check_clean ~file:"r7_bad.ml" (run_check [ fixture "r7_bad" ])

let r8 =
  test_rule ~rule:"clock-discipline" ~bad:"r8_bad" ~bad_lines:[ 4; 5 ]
    ~good:"r8_good"

(* R8 binds everywhere the checker looks; the overlapping R2 arm for
   Unix.gettimeofday is library-only. *)
let r8_scope () =
  let r = run_check [ fixture "r8_bad" ] in
  Alcotest.(check int) "ad-hoc clocks flagged outside lib" 1 r.code;
  check_contains r.output "[clock-discipline]";
  check_absent r.output "[determinism]"

let r9 =
  test_rule ~rule:"no-unsafe-obj" ~bad:"r9_bad" ~bad_lines:[ 3; 4; 5; 6; 7 ]
    ~good:"r9_good"

(* The Obj half binds everywhere; the polymorphic-hash half is
   library-only (tests/bench may hash ad hoc). *)
let r9_scope () = check_scope ~file:"r9_bad" ~flagged:[ 3; 4 ] ~silent:[ 5; 6; 7 ]

(* R10's bad fixture exports a value nothing references; the good one
   exports one value that r10_user.ml references and one test hook that
   carries [@@brokercheck.test_only]. Findings point into the .mli. *)
let r10 () =
  check_bad ~rule:"export-has-user" ~file:"r10_bad.mli" ~lines:[ 3 ]
    (run_check [ "--lib"; fixture "r10_bad" ]);
  check_clean ~file:"r10_good.mli"
    (run_check [ "--lib"; fixture "r10_good"; fixture "r10_user" ])

(* A user counts only if the scan reaches it: without r10_user.ml the
   good fixture's [used] is flagged, and the attributed hook never is. *)
let r10_scope () =
  let r = run_check [ "--lib"; fixture "r10_good" ] in
  Alcotest.(check int) "r10_good alone exits 1" 1 r.code;
  check_contains r.output "R10_good.used";
  check_absent r.output "R10_good.oracle";
  let src = "../tools/check/fixtures/r10_good.mli" in
  let contents = In_channel.with_open_bin src In_channel.input_all in
  Alcotest.(check bool)
    "r10_good.mli uses [@@brokercheck.test_only]" true
    (contains contents "[@@brokercheck.test_only]")

(* A test hook another scanned unit references is stale: r10_user.ml
   uses r10_stale's [hook], so the attribute must go. Without the user
   in the scan the hook is an ordinary test hook and checks clean. *)
let r10_stale () =
  let r = run_check [ "--lib"; fixture "r10_stale"; fixture "r10_user" ] in
  check_bad ~rule:"export-has-user" ~file:"r10_stale.mli" ~lines:[ 3 ] r;
  check_contains r.output "R10_stale.hook";
  check_contains r.output "drop the attribute";
  check_clean ~file:"r10_stale.mli" (run_check [ "--lib"; fixture "r10_stale" ])

let c1 () =
  (* One diagnostic per shared-state class: global ref (both in the
     worker closure and in the reachable [bump]), global array, global
     mutable field, and a captured ref shared across workers. *)
  check_bad ~rule:"domain-safety" ~file:"c1_bad.ml"
    ~lines:[ 20; 28; 29; 30; 31 ]
    (run_check [ fixture "c1_bad" ]);
  check_clean ~file:"c1_good.ml" (run_check [ fixture "c1_good" ])

let c1_owned () =
  (* The clean fixture's strided fill writes a shared array from workers
     and passes only because of [@brokercheck.owned]; pin that the good
     file exercises the escape hatch rather than avoiding the pattern. *)
  let src = "../tools/check/fixtures/c1_good.ml" in
  let contents = In_channel.with_open_bin src In_channel.input_all in
  Alcotest.(check bool)
    "c1_good.ml uses [@brokercheck.owned]" true
    (contains contents "[@brokercheck.owned]")

let c2 () =
  (* One diagnostic per allocating construct: tuple-in-loop, ::-in-loop,
     boxed float in loop, closure construction, partial application. *)
  check_bad ~rule:"noalloc" ~file:"c2_bad.ml" ~lines:[ 7; 15; 22; 27; 30 ]
    (run_check [ fixture "c2_bad" ]);
  check_clean ~file:"c2_good.ml" (run_check [ fixture "c2_good" ])

let c2_construct_classes () =
  let r = run_check [ fixture "c2_bad" ] in
  List.iter (check_contains r.output)
    [
      "tuple allocation";
      "constructor ::";
      "boxed float";
      "closure construction";
      "partial application";
    ]

let suppression () =
  check_clean ~file:"r1_suppressed.ml"
    (run_check [ "--lib"; fixture "r1_suppressed" ]);
  check_clean ~file:"c1_suppressed.ml" (run_check [ fixture "c1_suppressed" ]);
  check_clean ~file:"r10_suppressed.mli"
    (run_check [ "--lib"; fixture "r10_suppressed" ])

let whole_directory () =
  (* Directory mode scans every .cmt under the path (including the
     dot-directories dune hides artifacts in) and aggregates every bad
     fixture and none of the clean ones. R7 stays silent: --lib alone
     does not make a unit an experiment module. *)
  let r = run_check [ "--lib"; "../tools/check/fixtures" ] in
  Alcotest.(check int) "fixtures dir exits 1" 1 r.code;
  List.iter
    (fun f -> check_contains r.output (f ^ ".ml:"))
    [ "r1_bad"; "r2_bad"; "r3_bad"; "r4_bad"; "r5_bad"; "r6_bad"; "r8_bad";
      "r9_bad"; "c1_bad"; "c2_bad" ];
  check_contains r.output "r10_bad.mli:";
  check_contains r.output "r10_stale.mli:";
  List.iter
    (fun f -> check_absent r.output (f ^ ".ml"))
    [ "r1_good"; "r2_good"; "r3_good"; "r4_good"; "r5_good"; "r6_good";
      "r7_good"; "r7_bad"; "r8_good"; "r9_good"; "r10_good"; "r10_user";
      "r1_suppressed"; "c1_good"; "c1_suppressed"; "c2_good";
      "r10_suppressed" ]

let repo_lib_clean () =
  (* The repo as shipped checks clean under every rule, over the same
     five trees as [dune build @check]: R10 counts users of lib/'s
     exports in all of them, and their artifacts are dependencies of
     this suite. *)
  let r =
    run_check [ "../lib"; "../bin"; "../bench"; "../e2ebench"; "../examples" ]
  in
  Alcotest.(check string) "repo check output" "" r.output;
  Alcotest.(check int) "repo checks clean" 0 r.code

let repo_lib_lints_clean () =
  (* The identifier rules R1-R9 one by one over lib/: a finding names
     the rule that fired, apart from the C1/C2 analyses. *)
  let r = run_check [ "../lib" ] in
  Alcotest.(check bool) "lib/ scanned" true (r.code <> 2);
  List.iter
    (fun rule -> check_absent r.output ("[" ^ rule ^ "]"))
    [ "no-poly-compare"; "determinism"; "mli-complete"; "domain-confinement";
      "no-stdout-in-lib"; "no-list-nth"; "report-pure"; "clock-discipline";
      "no-unsafe-obj" ]

let repo_lib_annotated () =
  (* The acceptance bar is >= 4 kernels carrying [@brokercheck.noalloc];
     count the annotations in the library sources the suite already
     depends on. *)
  let rec walk acc dir =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then
          if String.length entry > 0 && entry.[0] = '.' then acc
          else walk acc path
        else if Filename.check_suffix path ".ml" then (
          let contents = In_channel.with_open_bin path In_channel.input_all in
          let rec count i acc =
            match String.index_from_opt contents i '[' with
            | None -> acc
            | Some j ->
                let probe = "[@brokercheck.noalloc]" in
                let n = String.length probe in
                if
                  j + n <= String.length contents
                  && String.sub contents j n = probe
                then count (j + n) (acc + 1)
                else count (j + 1) acc
          in
          count 0 acc)
        else acc)
      acc (Sys.readdir dir)
  in
  let n = walk 0 "../lib" in
  Alcotest.(check bool)
    (Printf.sprintf "lib/ carries >= 4 noalloc kernels (found %d)" n)
    true (n >= 4)

let missing_path () =
  let r = run_check [ "../tools/check/fixtures/enoent.cmt" ] in
  Alcotest.(check int) "missing path exits 2" 2 r.code

let () =
  Alcotest.run "brokercheck"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 no-poly-compare" `Quick r1;
          Alcotest.test_case "R1 scope outside lib" `Quick r1_outside_lib;
          Alcotest.test_case "R2 determinism" `Quick r2;
          Alcotest.test_case "R2 scope outside lib" `Quick
            r2_self_init_outside_lib;
          Alcotest.test_case "R3 mli-complete" `Quick r3;
          Alcotest.test_case "R4 domain-confinement" `Quick r4;
          Alcotest.test_case "R5 no-stdout-in-lib" `Quick r5;
          Alcotest.test_case "R6 no-list-nth" `Quick r6;
          Alcotest.test_case "R7 report-pure" `Quick r7;
          Alcotest.test_case "R7 scope" `Quick r7_scope;
          Alcotest.test_case "R8 clock-discipline" `Quick r8;
          Alcotest.test_case "R8 scope" `Quick r8_scope;
          Alcotest.test_case "R9 no-unsafe-obj" `Quick r9;
          Alcotest.test_case "R9 scope" `Quick r9_scope;
          Alcotest.test_case "R10 export-has-user" `Quick r10;
          Alcotest.test_case "R10 scope" `Quick r10_scope;
          Alcotest.test_case "R10 stale test hook" `Quick r10_stale;
          Alcotest.test_case "C1 domain-safety" `Quick c1;
          Alcotest.test_case "C1 owned escape hatch" `Quick c1_owned;
          Alcotest.test_case "C2 noalloc" `Quick c2;
          Alcotest.test_case "C2 construct classes" `Quick
            c2_construct_classes;
        ] );
      ( "driver",
        [
          Alcotest.test_case "suppression comment" `Quick suppression;
          Alcotest.test_case "directory mode" `Quick whole_directory;
          Alcotest.test_case "repo lib/ checks clean" `Quick repo_lib_clean;
          Alcotest.test_case "repo lib/ lints clean" `Quick
            repo_lib_lints_clean;
          Alcotest.test_case "repo lib/ annotation floor" `Quick
            repo_lib_annotated;
          Alcotest.test_case "missing path" `Quick missing_path;
        ] );
    ]
