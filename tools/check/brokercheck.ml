(* brokercheck — static analysis for the broker-set repo.

   One compiler-libs pass over the typed trees the ordinary dune build
   already produces: every [.cmt] under the scanned directories is loaded
   ([Cmt_format]) and walked with [Tast_iterator], so every identifier is
   resolved to its defining path and every expression carries its
   inferred type. Resolution is what keeps the rules honest: a local
   [let compare = Int.compare] is not [Stdlib.compare], a module's own
   [Random] is not the stdlib one, and [let open Random in int 6] is
   still a [Stdlib.Random] draw.

   Identifier rules. They encode the invariants HACKING.md argues for:
   the paper's headline connectivity numbers are only reproducible if
   every algorithm is deterministic and every sort comparator is
   well-defined. "Library code" is any unit whose source is under lib/.

   - R1 [no-poly-compare]: the polymorphic [compare] (or [=], [<], ...)
     must not be passed to [Array.sort]/[List.sort] anywhere, and bare
     [Stdlib.compare] must not appear at all in library code.
   - R2 [determinism]: no [Random.self_init] anywhere; no [Stdlib.Random]
     or [Unix.gettimeofday] in library code outside
     [lib/util/xrandom.ml]. All stochastic code draws from the seeded
     [Xrandom] streams.
   - R3 [mli-complete]: every library module has an interface (a [.cmti]
     next to its [.cmt]).
   - R4 [domain-confinement]: [Domain.spawn] only inside
     [lib/util/parallel.ml], whose chunk-merge discipline (and
     [REPRO_DOMAINS] override) keeps results schedule-independent.
   - R5 [no-stdout-in-lib]: [print_*]/[Printf.printf]/[Format.printf]/
     [Fmt.pr]/[exit] are banned in library code.
   - R6 [no-list-nth]: [List.nth] and [( @ )] inside [for]/[while] loop
     bodies are almost always accidentally quadratic.
   - R7 [report-pure]: experiment modules (lib/experiments/) must not
     print through the retired [Ctx] output helpers ([Ctx.printf],
     [Ctx.table], ...); they build a [Broker_report.Report.t].
   - R8 [clock-discipline]: [Unix.gettimeofday] and [Sys.time] are banned
     everywhere except [lib/obs/] and [bench/]; time through
     [Broker_obs.Clock].
   - R9 [no-unsafe-obj]: [Obj.magic]/[Obj.repr]/[Obj.obj] are banned
     everywhere; in library code so are [Hashtbl.hash]/[hash_param]/
     [seeded_hash]/[randomize] and [Hashtbl.create ~random].
   - R10 [export-has-user]: every [val] in a library unit's [.mli] is
     referenced from another scanned unit (by default lib/, bin/,
     bench/, e2ebench/ and examples/). A hook only tests reach — an
     oracle or an inspection function over code the library does run —
     carries [[@@brokercheck.test_only]] on its [val] instead; tests are
     not scanned, so they count as no user. A [test_only] val that
     another scanned unit does reference is reported too, so the
     attribute goes once the hook gains a real caller.

   Whole-program rules:

   C1 [domain-safety]
     Compute the set of code reachable from the closures handed to the
     parallel fan-out points ([Parallel.strided], [Domain.spawn]) and,
     inside that set, flag writes to shared non-[Atomic] mutable state:
       - module-level [ref]s (and [incr]/[decr] on them),
       - mutable record fields of module-level values,
       - [Array.set]/[unsafe_set]/[fill]/[blit] (and [Bytes], [Hashtbl],
         [Queue], [Stack], [Buffer] mutators) whose target is
         module-level,
       - inside the worker closure itself, the same writes to values
         *captured* from the enclosing scope (shared across every
         worker spawned at that site).
     Values created inside the worker body are worker-local and free to
     mutate; writes through function parameters are the call site's
     responsibility (the spawning closure is where locality is checked).
     The strided-disjoint-writes idiom — every worker writes a distinct
     index of one shared array — is blessed by annotating the binding
     [@brokercheck.owned].

   C2 [noalloc]
     For functions annotated [let[@brokercheck.noalloc] f ... = ...],
     reject allocating constructs in the typed body:
       - anywhere: closure construction and partial application (both
         allocate a closure block, and usually signal an accidental
         capture on a hot path);
       - inside [for]/[while] loops: tuples, records (including
         [ref]), non-constant constructors ([::] included), variant
         arguments, array literals, [lazy], boxed-float-returning
         applications, and a table of allocating stdlib calls
         ([Array.make], [@], [^], [List.map], ...).
     O(1) setup allocation before the loops (a handful of refs, a
     result record) is deliberately tolerated: the discipline protects
     the per-iteration path, which is what the zero-alloc workspaces in
     lib/graph/msbfs.ml exist for.

   Findings are reported as [file:line:col: [rule] message]; a finding
   is suppressible with a comment containing
   [brokercheck: allow <rule>] on the offending line. Exit codes: 0
   clean, 1 findings, 2 usage/read error. *)

module Sset = Set.Make (String)

module Rule = struct
  type t =
    | No_poly_compare
    | Determinism
    | Mli_complete
    | Domain_confinement
    | No_stdout_in_lib
    | No_list_nth
    | Report_pure
    | Clock_discipline
    | No_unsafe_obj
    | Export_has_user
    | Domain_safety
    | Noalloc

  let name = function
    | No_poly_compare -> "no-poly-compare"
    | Determinism -> "determinism"
    | Mli_complete -> "mli-complete"
    | Domain_confinement -> "domain-confinement"
    | No_stdout_in_lib -> "no-stdout-in-lib"
    | No_list_nth -> "no-list-nth"
    | Report_pure -> "report-pure"
    | Clock_discipline -> "clock-discipline"
    | No_unsafe_obj -> "no-unsafe-obj"
    | Export_has_user -> "export-has-user"
    | Domain_safety -> "domain-safety"
    | Noalloc -> "noalloc"
end

type violation = {
  file : string;
  line : int;
  col : int;
  rule : Rule.t;
  msg : string;
}

let violations : violation list ref = ref []

let report ~file ~line ~col rule msg =
  if line >= 1 then violations := { file; line; col; rule; msg } :: !violations

let report_loc (loc : Location.t) rule msg =
  let p = loc.loc_start in
  report ~file:p.pos_fname ~line:p.pos_lnum ~col:(p.pos_cnum - p.pos_bol) rule
    msg

(* ------------------------------------------------------------------ *)
(* Suppression comments                                                *)
(* ------------------------------------------------------------------ *)

let source_root = ref "."
let source_lines : (string, string array) Hashtbl.t = Hashtbl.create 64

let load_lines file =
  match Hashtbl.find_opt source_lines file with
  | Some lines -> lines
  | None ->
      let path = Filename.concat !source_root file in
      let lines =
        match In_channel.with_open_bin path In_channel.input_all with
        | contents -> Array.of_list (String.split_on_char '\n' contents)
        | exception Sys_error _ -> [||]
      in
      Hashtbl.replace source_lines file lines;
      lines

(* Character-by-character probe: no [String.sub] garbage per candidate
   offset (this runs once per source line scanned for a suppression). *)
let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec eq i j = j >= nn || (haystack.[i + j] = needle.[j] && eq i (j + 1)) in
  let rec probe i = i + nn <= nh && (eq i 0 || probe (i + 1)) in
  nn = 0 || probe 0

let suppressed (v : violation) =
  let lines = load_lines v.file in
  v.line >= 1
  && v.line <= Array.length lines
  && contains_substring lines.(v.line - 1)
       ("brokercheck: allow " ^ Rule.name v.rule)

(* ------------------------------------------------------------------ *)
(* Path normalization                                                  *)
(* ------------------------------------------------------------------ *)

(* Dune wraps libraries: the unit implementing [Msbfs] is compiled as
   [Broker_graph__Msbfs] and cross-library references resolve through
   the wrapper ([Broker_graph.Msbfs.run]). Normalize both spellings to the
   same dotted name by rewriting every component to its segment after
   the last ["__"] (dropping pure-prefix components like
   [Broker_graph__]), then matching definitions against reference
   *suffixes* of length >= 2. The over-approximation when two libraries
   share a module name (graph/metrics.ml vs obs/metrics.ml) only ever
   widens the reachable set. *)
let norm_component s =
  let n = String.length s in
  let rec last_sep i found =
    if i >= n - 1 then found
    else if s.[i] = '_' && s.[i + 1] = '_' then last_sep (i + 2) (i + 2)
    else last_sep (i + 1) found
  in
  match last_sep 0 (-1) with
  | -1 -> s
  | i when i >= n -> ""
  | i -> String.sub s i (n - i)

let rec path_components = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_components p @ [ s ]
  | _ -> []

let norm_path p =
  List.filter_map
    (fun c ->
      let c' = norm_component c in
      if c' = "" then None else Some c')
    (path_components p)

let dotted = String.concat "."

(* All dotted suffixes of length >= 2, e.g. [A.B.f] -> ["A.B.f"; "B.f"]. *)
let suffixes2 comps =
  let rec go acc = function
    | [] | [ _ ] -> acc
    | _ :: tl as l -> go (dotted l :: acc) tl
  in
  go [] comps

(* ------------------------------------------------------------------ *)
(* Per-unit model                                                      *)
(* ------------------------------------------------------------------ *)

(* Which identifier rules bind a unit, from its source path. *)
type scope = {
  in_lib : bool;  (** library-code rules apply *)
  in_experiments : bool;  (** experiment-module rules (R7) apply *)
  rng_exempt : bool;  (** this unit IS the sanctioned RNG module *)
  spawn_exempt : bool;  (** this unit IS the sanctioned parallel runner *)
  clock_exempt : bool;  (** lib/obs/ or bench/: ad-hoc clocks allowed *)
}

(* [--lib]/[--experiments]: treat every scanned unit as library code or
   as an experiment module (fixture mode). *)
let force_lib = ref false
let force_experiments = ref false

let under dir file =
  String.starts_with ~prefix:dir file || contains_substring file ("/" ^ dir)

let scope_of file =
  {
    in_lib = !force_lib || under "lib/" file;
    in_experiments = !force_experiments || under "lib/experiments/" file;
    rng_exempt = String.ends_with ~suffix:"lib/util/xrandom.ml" file;
    spawn_exempt = String.ends_with ~suffix:"lib/util/parallel.ml" file;
    clock_exempt = under "lib/obs/" file || under "bench/" file;
  }

type unit_info = {
  u_mod : string;  (** normalized unit module name, e.g. ["Msbfs"] *)
  u_scope : scope;
  u_globals : Sset.t ref;
      (** unique keys of structure-level value idents (any module depth) *)
  u_structure : Typedtree.structure;
}

type def = {
  d_name : string;  (** full dotted name, e.g. ["Msbfs.run"] *)
  d_unit : unit_info;
  d_body : Typedtree.expression;
}

(* Idents are stamped per unit; qualify with the unit name so keys are
   unique across the whole scan. *)
let ident_key u id = u.u_mod ^ "#" ^ Ident.unique_name id

let units : unit_info list ref = ref []
let defs_by_suffix : (string, def list) Hashtbl.t = Hashtbl.create 512
let noalloc_defs : (string * unit_info * Typedtree.value_binding) list ref =
  ref []

(* [@brokercheck.owned] bindings: local ones by ident key, module-level
   ones additionally by every dotted suffix of their full name. *)
let owned_idents : (string, unit) Hashtbl.t = Hashtbl.create 16
let owned_names : (string, unit) Hashtbl.t = Hashtbl.create 16

(* Locally let-bound functions, for resolving [~worker:f] roots. *)
let local_fns : (string, Typedtree.expression) Hashtbl.t = Hashtbl.create 256

type root =
  | Closure of unit_info * Typedtree.expression
      (** walked with capture tracking: writes to captured state flagged *)
  | Named of def  (** reachable function: module-level writes flagged *)

let roots : root list ref = ref []

let has_attr name (attrs : Parsetree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs

let vb_has_attr name (vb : Typedtree.value_binding) =
  has_attr name vb.vb_attributes || has_attr name vb.vb_expr.exp_attributes

let is_function_expr (e : Typedtree.expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

(* A [Tast_iterator] calling [visit ~in_loop e] on every expression.
   [in_loop] holds inside [for]/[while] bodies and [while] conditions
   (they re-run every iteration), not in [for] bounds (evaluated once). *)
let loop_iterator visit =
  let depth = ref 0 in
  let super = Tast_iterator.default_iterator in
  let looped (it : Tast_iterator.iterator) e =
    incr depth;
    it.expr it e;
    decr depth
  in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    visit ~in_loop:(!depth > 0) e;
    match e.exp_desc with
    | Texp_for (_, _, lo, hi, _, body) ->
        it.expr it lo;
        it.expr it hi;
        looped it body
    | Texp_while (cond, body) ->
        looped it cond;
        looped it body
    | _ -> super.expr it e
  in
  { super with expr }

(* ------------------------------------------------------------------ *)
(* R1-R9 identifier rules                                              *)
(* ------------------------------------------------------------------ *)

let sort_functions =
  [
    "Stdlib.Array.sort"; "Stdlib.Array.stable_sort"; "Stdlib.Array.fast_sort";
    "Stdlib.List.sort"; "Stdlib.List.stable_sort"; "Stdlib.List.fast_sort";
    "Stdlib.List.sort_uniq";
  ]

let poly_comparators =
  [
    "Stdlib.compare"; "Stdlib.="; "Stdlib.<"; "Stdlib.>"; "Stdlib.<=";
    "Stdlib.>="; "Stdlib.<>";
  ]

let stdout_printers =
  [
    "Stdlib.print_string"; "Stdlib.print_endline"; "Stdlib.print_newline";
    "Stdlib.print_char"; "Stdlib.print_bytes"; "Stdlib.print_int";
    "Stdlib.print_float"; "Stdlib.exit"; "Stdlib.Printf.printf"; "Fmt.pr";
    "Stdlib.Format.printf";
  ]

(* The retired [Ctx] output surface: any path ending in [Ctx.<one of
   these>] is a text-backend bypass in an experiment module. *)
let ends_in_ctx_output comps =
  match List.rev comps with
  | ("printf" | "table" | "section" | "out" | "set_out" | "flush_out")
    :: "Ctx" :: _ ->
      true
  | _ -> false

(* [Hashtbl.create]'s [?random]: an omitted argument is elaborated to
   [None] and [~random:false] to [Some false]; anything else may
   randomize. *)
let randomizes ((lbl : Asttypes.arg_label), (arg : Typedtree.expression option))
    =
  match (lbl, Option.map (fun (e : Typedtree.expression) -> e.exp_desc) arg) with
  | ( Optional "random",
      ( None
      | Some (Texp_construct (_, { cstr_name = "None"; _ }, []))
      | Some
          (Texp_construct
            ( _,
              { cstr_name = "Some"; _ },
              [ { exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, []); _ } ]
            )) ) ) ->
      false
  | Optional "random", Some _ -> true
  | _ -> false

(* A resolved name as users spell it: [Stdlib.] is implicit. *)
let spelled name =
  if String.starts_with ~prefix:"Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

let check_ident s ~in_loop comps loc =
  let flag = report_loc loc in
  let name = dotted comps in
  let shown = spelled name in
  match name with
  | "Stdlib.compare" when s.in_lib ->
      flag No_poly_compare
        "bare polymorphic compare in library code; use Int.compare, \
         Float.compare, String.compare or an explicit comparator"
  | "Stdlib.Random.self_init" ->
      flag Determinism
        "Random.self_init makes runs irreproducible; seed Xrandom.create \
         explicitly"
  | _
    when s.in_lib && (not s.rng_exempt)
         && String.starts_with ~prefix:"Stdlib.Random." name ->
      flag Determinism
        "Stdlib.Random in library code; draw from Broker_util.Xrandom streams"
  | "Unix.gettimeofday" ->
      if s.in_lib then
        flag Determinism
          "wall-clock in library code breaks reproducibility; thread an \
           explicit seed or clock";
      if not s.clock_exempt then
        flag Clock_discipline
          "Unix.gettimeofday outside lib/obs/ and bench/; time through \
           Broker_obs.Clock so probes stay behind the observability switch"
  | "Stdlib.Sys.time" when not s.clock_exempt ->
      flag Clock_discipline
        "Sys.time outside lib/obs/ and bench/; use Broker_obs.Clock.time \
         (monotonic, observability-gated sinks)"
  | "Stdlib.Domain.spawn" when not s.spawn_exempt ->
      flag Domain_confinement
        "Domain.spawn outside lib/util/parallel.ml; use Parallel.strided"
  | _ when s.in_experiments && ends_in_ctx_output comps ->
      flag Report_pure
        (Printf.sprintf
           "%s in an experiment module; build a Broker_report.Report.t and \
            let the harness pick a backend"
           shown)
  | _
    when s.in_lib
         && (List.mem name stdout_printers
            || String.starts_with ~prefix:"Stdlib.Format.print_" name) ->
      flag No_stdout_in_lib
        (Printf.sprintf
           "%s in library code; print via Fmt on an explicit formatter (or \
            Logs)"
           shown)
  | "Stdlib.Obj.magic" | "Stdlib.Obj.repr" | "Stdlib.Obj.obj" ->
      flag No_unsafe_obj
        (Printf.sprintf
           "%s defeats the type system (and the typed rules of this \
            checker); restructure with a variant or GADT"
           shown)
  | "Stdlib.Hashtbl.hash" | "Stdlib.Hashtbl.hash_param"
  | "Stdlib.Hashtbl.seeded_hash"
    when s.in_lib ->
      flag No_unsafe_obj
        (Printf.sprintf
           "%s is the polymorphic structural hash; like polymorphic compare \
            it silently changes meaning as types grow — key on an explicit \
            int/string instead"
           shown)
  | "Stdlib.Hashtbl.randomize" when s.in_lib ->
      flag No_unsafe_obj
        "Hashtbl.randomize makes iteration order vary across runs; library \
         containers must stay deterministic"
  | "Stdlib.List.nth" when in_loop ->
      flag No_list_nth
        "List.nth inside a loop body is quadratic; index an array instead"
  | "Stdlib.@" when in_loop ->
      flag No_list_nth
        "list append inside a loop body is quadratic; accumulate and reverse \
         once"
  | _ -> ()

let check_apply s f args (loc : Location.t) =
  if List.mem f sort_functions then
    List.iter
      (fun (_, (arg : Typedtree.expression option)) ->
        match arg with
        | Some { exp_desc = Texp_ident (p, _, _); exp_loc; _ }
          when List.mem (dotted (norm_path p)) poly_comparators ->
            report_loc exp_loc No_poly_compare
              (Printf.sprintf
                 "polymorphic comparator passed to %s; use a monomorphic \
                  comparator (Int.compare, Float.compare, ...)"
                 (spelled f))
        | _ -> ())
      args
  else if s.in_lib && f = "Stdlib.Hashtbl.create" && List.exists randomizes args
  then
    report_loc loc No_unsafe_obj
      "Hashtbl.create ~random makes iteration order vary across runs; \
       library containers must stay deterministic (the non-randomized \
       default is fine)"

(* ------------------------------------------------------------------ *)
(* R10 export-has-user                                                 *)
(* ------------------------------------------------------------------ *)

(* An export is keyed by where its [val] starts in the .mli. Every
   [Texp_ident] carries the value description it resolved to; for a
   value of another unit that description, location included, comes
   from the unit's interface, however the reference is spelled (through
   the library wrapper, an alias or an [open]). A unit's references to
   its own values resolve to its .ml bindings, so they never count. *)
let loc_key (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.pos_fname loc.loc_start.pos_cnum

let exports : (string * Typedtree.value_description) list ref = ref []
let test_hooks : (string * Typedtree.value_description) list ref = ref []
let referenced : (string, unit) Hashtbl.t = Hashtbl.create 4096

(* The [val]s of a library unit's interface, read from the [.cmti]
   beside its [.cmt]; a unit without one is R3's finding, not R10's.
   Those marked [[@@brokercheck.test_only]] are kept apart: they need
   no user, and must not have one. *)
let collect_exports ~cmt ~modname =
  let cmti = Filename.remove_extension cmt ^ ".cmti" in
  if Sys.file_exists cmti then
    match (Cmt_format.read_cmt cmti).cmt_annots with
    | Interface sg ->
        List.iter
          (fun (item : Typedtree.signature_item) ->
            match item.sig_desc with
            | Tsig_value vd ->
                let into =
                  if has_attr "brokercheck.test_only" vd.val_attributes then
                    test_hooks
                  else exports
                in
                into := (modname ^ "." ^ vd.val_name.txt, vd) :: !into
            | _ -> ())
          sg.sig_items
    | _ -> ()

let check_exports () =
  let used (vd : Typedtree.value_description) =
    Hashtbl.mem referenced (loc_key vd.val_val.val_loc)
  in
  List.iter
    (fun (name, (vd : Typedtree.value_description)) ->
      if not (used vd) then
        report_loc vd.val_loc Export_has_user
          (Printf.sprintf
             "%s is exported but no other scanned unit uses it; delete it, \
              drop it from the .mli, or mark a test hook \
              [@@brokercheck.test_only]"
             name))
    !exports;
  List.iter
    (fun (name, (vd : Typedtree.value_description)) ->
      if used vd then
        report_loc vd.val_loc Export_has_user
          (Printf.sprintf
             "%s is marked [@@brokercheck.test_only] but another scanned \
              unit uses it; drop the attribute"
             name))
    !test_hooks

let rules_walk u =
  let it =
    loop_iterator (fun ~in_loop (e : Typedtree.expression) ->
        match e.exp_desc with
        | Texp_ident (p, _, vd) ->
            Hashtbl.replace referenced (loc_key vd.val_loc) ();
            check_ident u.u_scope ~in_loop (norm_path p) e.exp_loc
        | Texp_apply ({ exp_desc = Texp_ident (f, _, _); _ }, args) ->
            check_apply u.u_scope (dotted (norm_path f)) args e.exp_loc
        | _ -> ())
  in
  it.structure it u.u_structure

(* ------------------------------------------------------------------ *)
(* Pass A: collect definitions, globals, owned bindings, local fns     *)
(* ------------------------------------------------------------------ *)

let collect_unit (u : unit_info) =
  (* Structure-level values (module prefix tracked by hand so nested
     modules contribute qualified names). Functor bodies are skipped:
     their idents are not module-level state of this unit. *)
  let rec walk_structure prefix (str : Typedtree.structure) =
    List.iter (walk_item prefix) str.str_items
  and walk_item prefix (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let ids = Typedtree.pat_bound_idents vb.vb_pat in
            List.iter
              (fun id -> u.u_globals := Sset.add (ident_key u id) !(u.u_globals))
              ids;
            match ids with
            | [ id ] ->
                let full = prefix @ [ Ident.name id ] in
                let name = dotted full in
                if vb_has_attr "brokercheck.owned" vb then
                  List.iter
                    (fun s -> Hashtbl.replace owned_names s ())
                    (suffixes2 full);
                if vb_has_attr "brokercheck.noalloc" vb then
                  noalloc_defs := (name, u, vb) :: !noalloc_defs;
                if is_function_expr vb.vb_expr then begin
                  let d = { d_name = name; d_unit = u; d_body = vb.vb_expr } in
                  List.iter
                    (fun s ->
                      let prev =
                        Option.value ~default:[]
                          (Hashtbl.find_opt defs_by_suffix s)
                      in
                      Hashtbl.replace defs_by_suffix s (d :: prev))
                    (suffixes2 full)
                end
            | _ -> ())
          vbs
    | Tstr_module mb -> walk_module prefix mb
    | Tstr_recmodule mbs -> List.iter (walk_module prefix) mbs
    | Tstr_include inc -> walk_module_expr prefix inc.incl_mod
    | _ -> ()
  and walk_module prefix (mb : Typedtree.module_binding) =
    let sub =
      match mb.mb_id with
      | Some id -> prefix @ [ Ident.name id ]
      | None -> prefix
    in
    walk_module_expr sub mb.mb_expr
  and walk_module_expr prefix (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> walk_structure prefix str
    | Tmod_constraint (me, _, _, _) -> walk_module_expr prefix me
    | _ -> ()
  in
  walk_structure [ u.u_mod ] u.u_structure;
  (* Every value binding anywhere: local function bodies (for resolving
     ident roots) and locally-owned bindings. *)
  let super = Tast_iterator.default_iterator in
  let value_binding it (vb : Typedtree.value_binding) =
    (match Typedtree.pat_bound_idents vb.vb_pat with
    | [ id ] ->
        if is_function_expr vb.vb_expr then
          Hashtbl.replace local_fns (ident_key u id) vb.vb_expr;
        if vb_has_attr "brokercheck.owned" vb then
          Hashtbl.replace owned_idents (ident_key u id) ()
    | ids ->
        if vb_has_attr "brokercheck.owned" vb then
          List.iter
            (fun id -> Hashtbl.replace owned_idents (ident_key u id) ())
            ids);
    super.value_binding it vb
  in
  let it = { super with value_binding } in
  it.structure it u.u_structure

(* ------------------------------------------------------------------ *)
(* Pass B: spawn sites and reference collection                        *)
(* ------------------------------------------------------------------ *)

let spawn_targets =
  [ "Parallel.strided"; "Domain.spawn" ]

(* Candidate dotted names a resolved path can be referred to by: its
   normalized spelling, and — for bare toplevel idents — the
   unit-qualified form ([strided] inside parallel.ml is
   [Parallel.strided]). *)
let candidate_names u p =
  let comps = norm_path p in
  let qualified =
    match p with
    | Path.Pident id when Sset.mem (ident_key u id) !(u.u_globals) ->
        [ [ u.u_mod; Ident.name id ] ]
    | _ -> []
  in
  comps :: qualified

let is_spawn_path u p =
  List.exists
    (fun comps ->
      List.exists (fun s -> List.mem s spawn_targets) (suffixes2 comps))
    (candidate_names u p)

let rec type_is_arrow ty =
  match Types.get_desc ty with
  | Tarrow _ -> true
  | Tpoly (t, _) -> type_is_arrow t
  | _ -> false

let resolve_defs comps =
  (* Longest suffix wins; all defs registered under it are taken. *)
  let rec go = function
    | [] | [ _ ] -> []
    | l -> (
        match Hashtbl.find_opt defs_by_suffix (dotted l) with
        | Some ds -> ds
        | None -> go (List.tl l))
  in
  go comps

let reference_targets u (e : Typedtree.expression) =
  (* Every resolved ident mentioned in [e], as candidate component lists
     for the reachability worklist. *)
  let acc = ref [] in
  let super = Tast_iterator.default_iterator in
  let expr it (ex : Typedtree.expression) =
    (match ex.exp_desc with
    | Texp_ident (p, _, _) -> acc := candidate_names u p @ !acc
    | _ -> ());
    super.expr it ex
  in
  let it = { super with expr } in
  it.expr it e;
  !acc

let collect_roots (u : unit_info) =
  let super = Tast_iterator.default_iterator in
  let add_root (arg : Typedtree.expression) =
    match arg.exp_desc with
    | Texp_function _ -> roots := Closure (u, arg) :: !roots
    | Texp_ident (Path.Pident id, _, _)
      when Hashtbl.mem local_fns (ident_key u id) ->
        roots := Closure (u, Hashtbl.find local_fns (ident_key u id)) :: !roots
    | Texp_ident (p, _, _) ->
        List.iter
          (fun d -> roots := Named d :: !roots)
          (List.concat_map resolve_defs (candidate_names u p))
    | _ -> ()
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when is_spawn_path u p ->
        List.iter
          (fun ((lbl : Asttypes.arg_label), arg) ->
            match (lbl, arg) with
            | Asttypes.Labelled "worker", Some a -> add_root a
            | Asttypes.Nolabel, Some (a : Typedtree.expression)
              when is_function_expr a || type_is_arrow a.exp_type ->
                add_root a
            | _ -> ())
          args
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.structure it u.u_structure

(* ------------------------------------------------------------------ *)
(* C1 domain-safety walk                                               *)
(* ------------------------------------------------------------------ *)

(* Mutators of shared state, by fully-resolved path: the typedtree has
   already resolved [incr] to [Stdlib.incr], so a user-defined [incr]
   (e.g. Metrics.incr, which is Atomic-backed) never collides. The int
   is the index of the argument that names the mutated container. *)
let mutators =
  [
    ("Stdlib.:=", 0, "ref assignment");
    ("Stdlib.incr", 0, "Stdlib.incr");
    ("Stdlib.decr", 0, "Stdlib.decr");
    ("Stdlib.Array.set", 0, "Array.set");
    ("Stdlib.Array.unsafe_set", 0, "Array.unsafe_set");
    ("Stdlib.Array.fill", 0, "Array.fill");
    ("Stdlib.Array.blit", 2, "Array.blit (destination)");
    ("Stdlib.Bytes.set", 0, "Bytes.set");
    ("Stdlib.Bytes.unsafe_set", 0, "Bytes.unsafe_set");
    ("Stdlib.Bytes.fill", 0, "Bytes.fill");
    ("Stdlib.Bytes.blit", 2, "Bytes.blit (destination)");
    ("Stdlib.Hashtbl.add", 0, "Hashtbl.add");
    ("Stdlib.Hashtbl.replace", 0, "Hashtbl.replace");
    ("Stdlib.Hashtbl.remove", 0, "Hashtbl.remove");
    ("Stdlib.Hashtbl.reset", 0, "Hashtbl.reset");
    ("Stdlib.Hashtbl.clear", 0, "Hashtbl.clear");
    ("Stdlib.Queue.add", 0, "Queue.add");
    ("Stdlib.Queue.push", 0, "Queue.push");
    ("Stdlib.Queue.pop", 0, "Queue.pop");
    ("Stdlib.Queue.take", 0, "Queue.take");
    ("Stdlib.Queue.clear", 0, "Queue.clear");
    ("Stdlib.Stack.push", 1, "Stack.push");
    ("Stdlib.Stack.pop", 0, "Stack.pop");
    ("Stdlib.Stack.clear", 0, "Stack.clear");
    ("Stdlib.Buffer.add_string", 0, "Buffer.add_string");
    ("Stdlib.Buffer.add_char", 0, "Buffer.add_char");
    ("Stdlib.Buffer.add_buffer", 0, "Buffer.add_buffer");
    ("Stdlib.Buffer.clear", 0, "Buffer.clear");
    ("Stdlib.Buffer.reset", 0, "Buffer.reset");
  ]

(* A unit-local redefinition of e.g. [:=] resolves to a different path,
   so matching the fully-resolved [Stdlib.*] name never shadow-fires. *)
let mutator_of p =
  let name = dotted (norm_path p) in
  List.find_opt (fun (m, _, _) -> m = name) mutators
  |> Option.map (fun (_, i, what) -> (i, what))

(* Syntactic owner of a write target: [x], [x.f], [x.f.(i)] all resolve
   to [x]; anything without a stable head (function results, match
   scrutinee temporaries) resolves to [None] and is given the benefit of
   the doubt — the analysis is a reviewed gate, not a proof. *)
let rec head_path (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some p
  | Texp_field (e, _, _) -> head_path e
  | Texp_open (_, e) -> head_path e
  | _ -> None

type locality = Local | Global of string | Captured of string

let classify ~u ~locals p =
  match p with
  | Path.Pdot _ -> Global (dotted (norm_path p))
  | Path.Pident id ->
      let key = ident_key u id in
      if Sset.mem key !locals then Local
      else if Sset.mem (ident_key u id) !(u.u_globals) then
        Global (dotted [ u.u_mod; Ident.name id ])
      else Captured (Ident.name id)
  | _ -> Local

let owned ~u p =
  match p with
  | Path.Pident id -> Hashtbl.mem owned_idents (ident_key u id)
  | Path.Pdot _ ->
      List.exists
        (fun s -> Hashtbl.mem owned_names s)
        (suffixes2 (norm_path p))
  | _ -> false

let check_write ~u ~locals ~in_closure (target : Typedtree.expression)
    (loc : Location.t) what =
  match head_path target with
  | None -> ()
  | Some p ->
      if not (owned ~u p) then begin
        match classify ~u ~locals p with
        | Local -> ()
        | Global name ->
            report_loc loc Rule.Domain_safety
              (Printf.sprintf
                 "%s on module-level mutable state '%s' reachable from a \
                  parallel worker; use an Atomic.t cell, confine the write \
                  to one domain, or mark the binding [@brokercheck.owned] \
                  if writes are provably disjoint"
                 what name)
        | Captured name when in_closure ->
            report_loc loc Rule.Domain_safety
              (Printf.sprintf
                 "%s on '%s', captured by a parallel worker closure and \
                  shared across workers; allocate it inside the worker, \
                  use Atomic, or mark the binding [@brokercheck.owned] if \
                  writes are provably disjoint"
                 what name)
        | Captured _ -> ()
      end

(* Walk one root/reachable body. [in_closure] distinguishes a worker
   closure (captures are shared across workers: flagged) from a named
   reachable function (its frame is per-call, hence per-worker: only
   module-level state is shared). *)
let c1_walk ~u ~in_closure (e : Typedtree.expression) =
  let locals = ref Sset.empty in
  let add_ident id = locals := Sset.add (ident_key u id) !locals in
  let super = Tast_iterator.default_iterator in
  let pat (type k) it (p : k Typedtree.general_pattern) =
    List.iter add_ident (Typedtree.pat_bound_idents p);
    super.pat it p
  in
  let expr it (ex : Typedtree.expression) =
    (match ex.exp_desc with
    | Texp_function { param; _ } -> add_ident param
    | Texp_for (id, _, _, _, _, _) -> add_ident id
    | Texp_let (_, vbs, _) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            List.iter add_ident (Typedtree.pat_bound_idents vb.vb_pat))
          vbs
    | Texp_setfield (target, lid, ld, _) ->
        ignore lid;
        check_write ~u ~locals ~in_closure target ex.exp_loc
          (Printf.sprintf "write to mutable field '%s'" ld.lbl_name)
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        match mutator_of p with
        | None -> ()
        | Some (idx, what) -> (
            match List.nth_opt args idx with
            | Some (_, Some target) ->
                check_write ~u ~locals ~in_closure target ex.exp_loc what
            | _ -> ()))
    | _ -> ());
    super.expr it ex
  in
  let it = { super with expr; pat } in
  it.expr it e

(* ------------------------------------------------------------------ *)
(* C2 noalloc walk                                                     *)
(* ------------------------------------------------------------------ *)

let allocating_calls =
  [
    "Stdlib.ref"; "Stdlib.@"; "Stdlib.^"; "Stdlib.^^";
    "Stdlib.Array.make"; "Stdlib.Array.create_float"; "Stdlib.Array.init";
    "Stdlib.Array.copy"; "Stdlib.Array.append"; "Stdlib.Array.sub";
    "Stdlib.Array.concat"; "Stdlib.Array.of_list"; "Stdlib.Array.to_list";
    "Stdlib.Array.make_matrix"; "Stdlib.Array.map"; "Stdlib.Array.mapi";
    "Stdlib.List.init"; "Stdlib.List.map"; "Stdlib.List.mapi";
    "Stdlib.List.rev"; "Stdlib.List.rev_append"; "Stdlib.List.append";
    "Stdlib.List.concat"; "Stdlib.List.concat_map"; "Stdlib.List.flatten";
    "Stdlib.List.filter"; "Stdlib.List.filter_map"; "Stdlib.List.cons";
    "Stdlib.List.sort"; "Stdlib.List.stable_sort"; "Stdlib.List.sort_uniq";
    "Stdlib.List.merge";
    "Stdlib.Bytes.create"; "Stdlib.Bytes.make"; "Stdlib.Bytes.copy";
    "Stdlib.Bytes.sub"; "Stdlib.Bytes.cat"; "Stdlib.Bytes.of_string";
    "Stdlib.Bytes.to_string";
    "Stdlib.String.make"; "Stdlib.String.init"; "Stdlib.String.sub";
    "Stdlib.String.concat"; "Stdlib.String.cat"; "Stdlib.String.map";
    "Stdlib.Printf.sprintf"; "Stdlib.Format.asprintf";
    "Stdlib.Buffer.create"; "Stdlib.Buffer.contents";
    "Stdlib.Seq.map"; "Stdlib.Seq.filter";
  ]

let is_float_type ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

(* The curried parameter chain of an annotated binding: descend through
   single-case [Texp_function] layers (each is a declared parameter, not
   an allocation) and the lets the type checker inserts for optional-
   argument defaults; anything else starts the real body. *)
let param_chain (e : Typedtree.expression) =
  let marked = ref [] in
  let rec go (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function { cases = [ { c_rhs; _ } ]; _ } ->
        marked := e :: !marked;
        go c_rhs
    | Texp_function _ -> marked := e :: !marked
    | Texp_let (_, _, body) -> go body
    | _ -> ()
  in
  go e;
  !marked

let c2_walk ~fname (vb : Typedtree.value_binding) =
  let params = param_chain vb.vb_expr in
  let flag loc what =
    report_loc loc Rule.Noalloc
      (Printf.sprintf "[@brokercheck.noalloc] %s: %s" fname what)
  in
  let it =
    loop_iterator (fun ~in_loop (e : Typedtree.expression) ->
        match e.exp_desc with
        | Texp_function _ when not (List.memq e params) ->
            flag e.exp_loc
              "closure construction allocates (and captures); lift the \
               function out of the kernel or inline it"
        | Texp_apply _ when type_is_arrow e.exp_type ->
            flag e.exp_loc
              "partial application allocates a closure; apply all arguments \
               or eta-expand at definition site"
        | _ when not in_loop -> ()
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
          when List.mem (dotted (norm_path p)) allocating_calls ->
            flag e.exp_loc
              (Printf.sprintf "allocating call %s inside a loop"
                 (dotted (norm_path p)))
        | Texp_apply _ when is_float_type e.exp_type ->
            flag e.exp_loc
              "boxed float produced inside a loop; keep the hot path in \
               integers or hoist the float math out of the loop"
        | Texp_tuple _ -> flag e.exp_loc "tuple allocation inside a loop"
        | Texp_record _ -> flag e.exp_loc "record allocation inside a loop"
        | Texp_construct (_, cd, _ :: _) ->
            flag e.exp_loc
              (Printf.sprintf
                 "constructor %s with arguments allocates inside a loop"
                 cd.cstr_name)
        | Texp_variant (_, Some _) ->
            flag e.exp_loc "variant argument allocates inside a loop"
        | Texp_array (_ :: _) ->
            flag e.exp_loc "array literal allocates inside a loop"
        | Texp_lazy _ -> flag e.exp_loc "lazy block allocates inside a loop"
        | _ -> ())
  in
  it.expr it vb.vb_expr

(* ------------------------------------------------------------------ *)
(* cmt discovery and loading                                           *)
(* ------------------------------------------------------------------ *)

(* Dot-directories are included: dune keeps compiled artifacts under
   [.<lib>.objs/byte/] and [.<exe>.eobjs/byte/]. *)
let rec collect_cmt acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left (fun acc e -> collect_cmt acc (Filename.concat path e)) acc
  else if String.ends_with ~suffix:".cmt" path then path :: acc
  else acc

(* Only units compiled from a [.ml] source, each once: dune's generated
   wrapper modules ([*.ml-gen]) hold nothing but aliases, and a native
   compile may leave a second [.cmt] of the same source. R3 is decided
   here, against the source tree. *)
let loaded_sources = Hashtbl.create 256

let load_unit file =
  match Cmt_format.read_cmt file with
  | {
      cmt_annots = Implementation str;
      cmt_sourcefile = Some src;
      cmt_modname;
      _;
    }
    when String.ends_with ~suffix:".ml" src
         && not (Hashtbl.mem loaded_sources src) ->
      Hashtbl.replace loaded_sources src ();
      let scope = scope_of src in
      let u_mod = norm_component cmt_modname in
      if
        scope.in_lib
        && not (Sys.file_exists (Filename.concat !source_root src ^ "i"))
      then
        report ~file:src ~line:1 ~col:0 Mli_complete
          (Printf.sprintf "library module %s has no interface file %si"
             (Filename.basename src) (Filename.basename src));
      if scope.in_lib then collect_exports ~cmt:file ~modname:u_mod;
      Some
        {
          u_mod;
          u_scope = scope;
          u_globals = ref Sset.empty;
          u_structure = str;
        }
  | _ -> None
  | exception exn ->
      Printf.eprintf "brokercheck: cannot read %s (%s)\n" file
        (Printexc.to_string exn);
      exit 2

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let usage =
  "brokercheck [--lib] [--experiments] [--source-root DIR] [path ...]\n\
   Check the .cmt files under the given files/directories (default: lib bin \
   bench e2ebench examples).\n\
  \  --lib              treat every scanned unit as library code (fixture \
   mode)\n\
  \  --experiments      treat every scanned unit as an experiment module \
   (fixture mode)\n\
  \  --source-root DIR  prefix for source paths when reading suppression\n\
  \                     comments (default: .)\n\
   Exit codes: 0 clean, 1 findings, 2 usage or read error."

let usage_error msg =
  prerr_endline ("brokercheck: " ^ msg);
  prerr_endline usage;
  exit 2

let () =
  let rec parse paths = function
    | [] -> List.rev paths
    | "--source-root" :: dir :: rest ->
        source_root := dir;
        parse paths rest
    | [ "--source-root" ] -> usage_error "--source-root needs an argument"
    | "--lib" :: rest ->
        force_lib := true;
        parse paths rest
    | "--experiments" :: rest ->
        force_experiments := true;
        parse paths rest
    | ("--help" | "-help") :: _ ->
        print_endline usage;
        exit 0
    | arg :: _ when String.starts_with ~prefix:"-" arg ->
        usage_error ("unknown option " ^ arg)
    | arg :: rest -> parse (arg :: paths) rest
  in
  let paths =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> [ "lib"; "bin"; "bench"; "e2ebench"; "examples" ]
    | ps -> ps
  in
  let files =
    List.concat_map
      (fun p ->
        if not (Sys.file_exists p) then begin
          prerr_endline ("brokercheck: no such file or directory: " ^ p);
          exit 2
        end;
        List.rev (collect_cmt [] p))
      paths
  in
  if files = [] then begin
    prerr_endline
      "brokercheck: no .cmt files found (build first: the @check alias \
       depends on the compiled libraries and executables)";
    exit 2
  end;
  units := List.filter_map load_unit files;
  List.iter rules_walk !units;
  List.iter collect_unit !units;
  List.iter collect_roots !units;
  (* Reachability: walk roots, then the transitive closure of referenced
     definitions, flagging C1 writes as we go. *)
  let seen_defs : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let seen_closures : (Typedtree.expression * unit_info) list ref = ref [] in
  let queue = Queue.create () in
  List.iter (fun r -> Queue.add r queue) !roots;
  while not (Queue.is_empty queue) do
    match Queue.pop queue with
    | Closure (u, e) ->
        if
          not
            (List.exists
               (fun (e', u') -> e' == e && u' == u)
               !seen_closures)
        then begin
          seen_closures := (e, u) :: !seen_closures;
          c1_walk ~u ~in_closure:true e;
          List.iter
            (fun comps ->
              List.iter (fun d -> Queue.add (Named d) queue) (resolve_defs comps))
            (reference_targets u e)
        end
    | Named d ->
        if not (Hashtbl.mem seen_defs d.d_name) then begin
          Hashtbl.replace seen_defs d.d_name ();
          c1_walk ~u:d.d_unit ~in_closure:false d.d_body;
          List.iter
            (fun comps ->
              List.iter (fun d' -> Queue.add (Named d') queue) (resolve_defs comps))
            (reference_targets d.d_unit d.d_body)
        end
  done;
  (* C2 on every annotated binding. *)
  List.iter (fun (name, _, vb) -> c2_walk ~fname:name vb) !noalloc_defs;
  check_exports ();
  (* Sort, dedup per (file, line, rule) — several nodes can hit one rule
     on one line, e.g. a sort call and the bare ident inside it — then
     drop suppressed findings: one cached line lookup per survivor. *)
  let sorted =
    List.sort_uniq
      (fun (a : violation) (b : violation) ->
        let c = String.compare a.file b.file in
        if c <> 0 then c
        else
          let c = Int.compare a.line b.line in
          if c <> 0 then c
          else
            let c = String.compare (Rule.name a.rule) (Rule.name b.rule) in
            if c <> 0 then c else Int.compare a.col b.col)
      !violations
  in
  let deduped =
    List.fold_left
      (fun acc (v : violation) ->
        match acc with
        | prev :: _
          when prev.file = v.file && prev.line = v.line && prev.rule = v.rule
          ->
            acc
        | _ -> v :: acc)
      [] sorted
    |> List.rev
  in
  let live = List.filter (fun v -> not (suppressed v)) deduped in
  List.iter
    (fun v ->
      Printf.printf "%s:%d:%d: [%s] %s\n" v.file v.line v.col
        (Rule.name v.rule) v.msg)
    live;
  match live with
  | [] -> ()
  | vs ->
      Printf.eprintf "brokercheck: %d finding(s) in %d file(s)\n"
        (List.length vs)
        (List.length
           (List.sort_uniq String.compare
              (List.map (fun (v : violation) -> v.file) vs)));
      exit 1
