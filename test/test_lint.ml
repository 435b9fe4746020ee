(* evolvelint's own tests: each rule family must fire on a violating
   fixture (with a file:line diagnostic) and stay silent on the clean
   tree. Fixtures are parsed from strings — the checks are pure. *)

module L = Lintcore.Lint

let check = Alcotest.check
let empty = L.Allowlist.empty
let has_rule rule diags = List.exists (fun (d : L.diag) -> d.L.rule = rule) diags

let count_rule rule diags =
  List.length (List.filter (fun (d : L.diag) -> d.L.rule = rule) diags)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

(* --- layering ------------------------------------------------------- *)

let test_layering_upward_edge () =
  let dune_src =
    "(library\n (name routing)\n (libraries netcore topology simcore fmt))\n"
  in
  let diags = L.check_layering ~dune_files:[ ("lib/routing/dune", dune_src) ] in
  check Alcotest.int "one violation" 1 (count_rule "layering" diags);
  let d = List.find (fun (d : L.diag) -> d.L.rule = "layering") diags in
  check Alcotest.string "file" "lib/routing/dune" d.L.file;
  check Alcotest.int "line of the offending dep" 3 d.L.line

let test_layering_sideways_edge () =
  (* anycast and vnbone are ordered: vnbone may use anycast, never the
     reverse *)
  let dune_src = "(library (name anycast) (libraries vnbone))" in
  let diags = L.check_layering ~dune_files:[ ("lib/anycast/dune", dune_src) ] in
  check Alcotest.bool "sideways/upward dep flagged" true
    (has_rule "layering" diags)

let test_layering_clean () =
  let dune_src =
    "(library\n (name routing)\n (libraries netcore topology fmt))\n"
  in
  check Alcotest.int "no violation" 0
    (List.length (L.check_layering ~dune_files:[ ("lib/routing/dune", dune_src) ]))

let test_layering_unknown_library () =
  let dune_src = "(library (name mystery) (libraries fmt))" in
  let diags = L.check_layering ~dune_files:[ ("lib/mystery/dune", dune_src) ] in
  check Alcotest.bool "unknown lib/ library flagged" true
    (has_rule "layering" diags)

(* --- determinism ---------------------------------------------------- *)

let det ?(allow = empty) ?(path = "lib/core/fixture.ml") src =
  L.check_determinism ~allow ~path src

let test_random_direct () =
  let diags = det "let f () = Random.int 3\n" in
  check Alcotest.int "flagged" 1 (count_rule "random-direct" diags);
  let d = List.hd diags in
  check Alcotest.int "line" 1 d.L.line

let test_random_allowed_in_rng () =
  let diags = det ~path:"lib/topology/rng.ml" "let f () = Random.int 3\n" in
  check Alcotest.int "rng.ml may use Random" 0
    (count_rule "random-direct" diags)

let test_forbidden_calls () =
  let src =
    "let a () = Sys.time ()\n\
     let b () = Unix.gettimeofday ()\n\
     let c () = Hashtbl.randomize ()\n\
     let d () = Random.self_init ()\n"
  in
  check Alcotest.int "all four flagged" 4 (count_rule "forbidden-call" (det src))

let test_self_init_forbidden_even_in_rng () =
  let diags = det ~path:"lib/topology/rng.ml" "let f () = Random.self_init ()\n" in
  check Alcotest.int "self_init flagged in rng.ml too" 1
    (count_rule "forbidden-call" diags)

let test_hashtbl_fold_unsorted () =
  let diags = det "let groups t = Hashtbl.fold (fun g _ acc -> g :: acc) t []\n" in
  check Alcotest.int "escaping fold flagged" 1 (count_rule "hashtbl-order" diags)

let test_hashtbl_fold_piped_into_sort () =
  let src =
    "let groups t =\n\
    \  Hashtbl.fold (fun g _ acc -> g :: acc) t []\n\
    \  |> List.sort compare\n"
  in
  check Alcotest.int "sorted fold passes" 0 (count_rule "hashtbl-order" (det src))

let test_hashtbl_fold_inside_sort_application () =
  let src =
    "let groups t = List.sort_uniq compare (Hashtbl.fold (fun g _ a -> g :: a) t [])\n"
  in
  check Alcotest.int "sort-wrapped fold passes" 0
    (count_rule "hashtbl-order" (det src))

let test_hashtbl_iter_flagged () =
  let diags = det "let sum t r = Hashtbl.iter (fun _ v -> r := !r + v) t\n" in
  check Alcotest.int "iter flagged" 1 (count_rule "hashtbl-order" diags)

let test_hashtbl_allowlist () =
  let allow =
    L.Allowlist.parse ~path:"allowlist"
      "hashtbl-order lib/core/fixture.ml:groups  # verified: set semantics\n"
  in
  let diags =
    det ~allow "let groups t = Hashtbl.fold (fun g _ acc -> g :: acc) t []\n"
  in
  check Alcotest.int "allowlisted site passes" 0
    (count_rule "hashtbl-order" diags);
  check Alcotest.int "entry is not stale" 0 (List.length (L.Allowlist.stale allow))

let test_allowlist_stale_entry () =
  let allow =
    L.Allowlist.parse ~path:"allowlist" "hashtbl-order lib/gone.ml:nothing\n"
  in
  ignore (det ~allow "let f x = x\n");
  check Alcotest.int "unused entry reported" 1
    (count_rule "stale-allowlist" (L.Allowlist.stale allow))

let test_parse_error () =
  check Alcotest.bool "garbage reported" true
    (has_rule "parse-error" (det "let let let\n"))

(* --- interface hygiene ---------------------------------------------- *)

let test_missing_mli () =
  let diags = L.check_missing_mli ~ml:[ "lib/x/a.ml"; "lib/x/b.ml" ] ~mli:[ "lib/x/a.mli" ] in
  check Alcotest.int "one missing interface" 1 (count_rule "missing-mli" diags);
  check Alcotest.string "names the module" "lib/x/b.ml"
    (List.hd diags).L.file

let test_mli_without_paper_ref () =
  let diags =
    L.check_mli_doc ~path:"lib/x/a.mli" "(** A module doing things. *)\nval f : int -> int\n"
  in
  check Alcotest.int "flagged" 1 (count_rule "mli-doc-ref" diags)

let test_mli_with_section_sign () =
  let diags =
    L.check_mli_doc ~path:"lib/x/a.mli"
      "(** Implements the paper's \xC2\xA73.2 anycast options. *)\nval f : int -> int\n"
  in
  check Alcotest.int "\xC2\xA7 reference passes" 0 (List.length diags)

let test_mli_with_section_word () =
  let diags =
    L.check_mli_doc ~path:"lib/x/a.mli"
      "val f : int -> int\n(** See Section 3 of the paper. *)\n"
  in
  check Alcotest.int "'Section' reference passes" 0 (List.length diags)

(* --- experiment completeness ---------------------------------------- *)

(* e1 has all four artifacts. e2 has its row and a binding but is
   missing its registration (an "e2" literal outside [registry] does
   not count), its EXPERIMENTS.md entry and its test suite. e3 exists
   only as a registry id, as E4 does in the real tree, so its missing
   row record is still found. *)
let fixture_sources =
  {
    L.experiments_ml =
      ( "lib/core/experiments.ml",
        "type e1_row = { x : int }\n\
         let e1_sweep () = []\n\
         type e2_row = { y : int }\n\
         let e2_sweep () = [ \"e2\" ]\n\
         let registry = [ (\"e1\", \"the sweep\"); (\"e3\", \"registry only\") ]\n" );
    L.test_ml =
      ( "test/test_experiments.ml",
        "let suites = [ (\"e1\", []); (\"e3\", []) ]\n" );
    L.experiments_md =
      ( "EXPERIMENTS.md",
        "## E1 \xE2\x80\x94 the sweep\n## E3 \xE2\x80\x94 registry only\n" );
  }

let test_experiment_completeness () =
  let diags = L.check_experiments ~allow:empty fixture_sources in
  (* the artifact names of "eN is missing its ARTIFACT artifact: ..." *)
  let missing n =
    let pre = Printf.sprintf "e%d is missing its " n in
    let pl = String.length pre in
    List.filter_map
      (fun (d : L.diag) ->
        let m = d.L.msg in
        if
          d.L.rule = "experiment-artifacts"
          && String.length m > pl
          && String.sub m 0 pl = pre
        then
          Some
            (List.hd
               (String.split_on_char ' ' (String.sub m pl (String.length m - pl))))
        else None)
      diags
    |> List.sort compare
  in
  check Alcotest.(list string) "e1 complete" [] (missing 1);
  check
    Alcotest.(list string)
    "e2 unregistered, undocumented, untested"
    [ "docs"; "registered"; "test" ]
    (missing 2);
  check Alcotest.(list string) "registry-only e3 needs its row" [ "row" ]
    (missing 3)

let test_experiment_allowlist () =
  let allow =
    L.Allowlist.parse ~path:"allowlist"
      "experiment-artifacts lib/core/experiments.ml:e2.registered\n\
       experiment-artifacts lib/core/experiments.ml:e2.docs\n\
       experiment-artifacts lib/core/experiments.ml:e2.test\n\
       experiment-artifacts lib/core/experiments.ml:e3.row\n"
  in
  let diags = L.check_experiments ~allow fixture_sources in
  check Alcotest.int "all exemptions honoured" 0
    (count_rule "experiment-artifacts" diags)

(* --- typed rule packs (fixtures) ------------------------------------ *)

(* Typecheck a fixture module in-process and run the typed pass over it
   alone, exactly as `run` would over the real tree. *)
let typed ?(allow = empty) ?(baseline = empty) ?intf ~modname src =
  let filename =
    Printf.sprintf "lib/fixture/%s.ml" (String.lowercase_ascii modname)
  in
  match Lintcore.Typed.of_string ~filename ~modname ?intf src with
  | Error d -> Alcotest.failf "fixture rejected: %s" (L.to_string d)
  | Ok m ->
      let decls = Lintcore.Typed.decls_of_mods [ m ] in
      L.filter_suppressed ~allow ~baseline (L.typed_pass ~decls [ m ])

let test_poly_compare_fires_then_fixed () =
  let dirty = typed ~modname:"Cmpfix" "let feq (a : float) b = a = b\n" in
  check Alcotest.int "float `=` flagged" 1 (count_rule "poly-compare" dirty);
  let d = List.find (fun (d : L.diag) -> d.L.rule = "poly-compare") dirty in
  check Alcotest.int "line" 1 d.L.line;
  check
    Alcotest.(option string)
    "suppression key names the binding"
    (Some "lib/fixture/cmpfix.ml:feq")
    d.L.key;
  let fixed =
    typed ~modname:"Cmpfix" "let feq (a : float) b = Float.equal a b\n"
  in
  check Alcotest.int "Float.equal passes" 0 (count_rule "poly-compare" fixed)

let test_float_ordering_exempt () =
  (* scalar-float `<` is the IEEE primitive — exempt; `compare` at
     float is not *)
  let ord = typed ~modname:"Cmpord" "let lt (a : float) b = a < b\n" in
  check Alcotest.int "scalar float `<` passes" 0 (count_rule "poly-compare" ord);
  let cmp = typed ~modname:"Cmpord" "let c (a : float) b = compare a b\n" in
  check Alcotest.int "float `compare` flagged" 1 (count_rule "poly-compare" cmp)

let test_physical_eq_fires_then_fixed () =
  let dirty = typed ~modname:"Physfix" "let same (a : int list) b = a == b\n" in
  check Alcotest.int "`==` flagged" 1 (count_rule "physical-eq" dirty);
  let fixed = typed ~modname:"Physfix" "let same (a : int list) b = a = b\n" in
  check Alcotest.int "structural `=` passes" 0 (count_rule "physical-eq" fixed)

let test_catch_all_fires_then_fixed () =
  let dirty = typed ~modname:"Exnfix" "let f g = try g () with _ -> 0\n" in
  check Alcotest.int "catch-all flagged" 1 (count_rule "catch-all" dirty);
  let fixed =
    typed ~modname:"Exnfix" "let f g = try g () with Not_found -> 0\n"
  in
  check Alcotest.int "named handler passes" 0 (count_rule "catch-all" fixed);
  let reraise =
    typed ~modname:"Exnfix" "let f g = try g () with e -> raise e\n"
  in
  check Alcotest.int "re-raising handler passes" 0
    (count_rule "catch-all" reraise)

let test_undoc_raise_fires_then_fixed () =
  let src = "let f x = if x < 0 then invalid_arg \"f\" else x\n" in
  let dirty = typed ~modname:"Raisefix" ~intf:"val f : int -> int\n" src in
  check Alcotest.int "undocumented raise flagged" 1
    (count_rule "undoc-raise" dirty);
  let fixed =
    typed ~modname:"Raisefix"
      ~intf:"val f : int -> int\n(** @raise Invalid_argument on x < 0. *)\n"
      src
  in
  check Alcotest.int "@raise doc line passes" 0 (count_rule "undoc-raise" fixed)

let test_hot_path_alloc_fires_then_fixed () =
  (* the module is named Pump, so `inject` is a hot-path root *)
  let dirty = typed ~modname:"Pump" "let inject t x = (x, t)\n" in
  check Alcotest.int "per-packet tuple flagged" 1
    (count_rule "hot-path-alloc" dirty);
  let fixed = typed ~modname:"Pump" "let inject t x = x + t\n" in
  check Alcotest.int "allocation-free body passes" 0
    (count_rule "hot-path-alloc" fixed)

let test_hot_path_reachability () =
  (* the allocation sits in a helper `inject` calls — reachability must
     carry the hot set through the call graph; the same helper in a
     cold module stays unflagged *)
  let src = "let helper x = Some x\nlet inject t x = helper (x + t)\n" in
  let hot = typed ~modname:"Pump" src in
  check Alcotest.int "transitively-reachable callee flagged" 1
    (count_rule "hot-path-alloc" hot);
  let cold = typed ~modname:"Coldpath" src in
  check Alcotest.int "same code off the hot path passes" 0
    (count_rule "hot-path-alloc" cold)

(* --- effect summaries (v3 engine) ----------------------------------- *)

module CG = Lintcore.Callgraph
module S = Lintcore.Summary

(* Build the call graph and summaries of one fixture module directly,
   for asserting on the analysis itself rather than its findings. *)
let graph_of ?(filename = "lib/fixture/fix.ml") ~modname src =
  match Lintcore.Typed.of_string ~filename ~modname src with
  | Error d -> Alcotest.failf "fixture rejected: %s" (L.to_string d)
  | Ok m ->
      let cg = CG.build [ m ] in
      (cg, S.compute cg)

let test_summary_effects () =
  let _, sums =
    graph_of ~modname:"Sumfx"
      "let double x = x + x\n\
       let shout () = print_int 1\n\
       let tick (r : int ref) = incr r\n\
       let counter = ref 0\n\
       let bump () = incr counter\n\
       let caller () = bump ()\n"
  in
  let full n = S.get sums.S.full ("Sumfx." ^ n) in
  check Alcotest.bool "double is pure" true (S.pure (full "double"));
  check Alcotest.bool "shout performs io" true (full "shout").S.io;
  check Alcotest.bool "tick writes own (parameter-rooted)" true
    (full "tick").S.writes_own;
  check Alcotest.bool "tick writes nothing shared" true
    (S.SS.is_empty (full "tick").S.writes_shared);
  check Alcotest.bool "bump writes the shared counter" true
    (S.SS.mem "Sumfx.counter" (full "bump").S.writes_shared);
  (* interprocedural: the caller's own body writes nothing, its
     fixpoint summary inherits bump's shared write *)
  check Alcotest.bool "caller's base is write-free" true
    (S.SS.is_empty (S.get sums.S.base "Sumfx.caller").S.writes_shared);
  check Alcotest.bool "caller's fixpoint carries the write" true
    (S.SS.mem "Sumfx.counter" (full "caller").S.writes_shared)

let test_summary_scc_fixpoint () =
  let cg, sums =
    graph_of ~modname:"Sccfx"
      "let spins = ref 0\n\
       let rec ping n = if n = 0 then !spins else pong (n - 1)\n\
       and pong n = spins := !spins + 1; ping n\n"
  in
  check Alcotest.bool "ping -> pong edge" true
    (CG.SS.mem "Sccfx.pong" (CG.succs cg "Sccfx.ping"));
  check Alcotest.bool "pong -> ping edge" true
    (CG.SS.mem "Sccfx.ping" (CG.succs cg "Sccfx.pong"));
  check Alcotest.bool "ping's own body writes nothing" true
    (S.SS.is_empty (S.get sums.S.base "Sccfx.ping").S.writes_shared);
  List.iter
    (fun n ->
      check Alcotest.bool (n ^ "'s fixpoint carries the SCC's shared write")
        true
        (S.SS.mem "Sccfx.spins"
           (S.get sums.S.full ("Sccfx." ^ n)).S.writes_shared))
    [ "ping"; "pong" ]

let test_rng_sanctioned_source () =
  let src = "let draw () = Random.int 10\n" in
  let _, seeded = graph_of ~filename:"lib/topology/rng.ml" ~modname:"Rng" src in
  check Alcotest.bool "rng.ml is never a nondeterminism witness" true
    ((S.get seeded.S.full "Rng.draw").S.nondet = None);
  let _, unseeded = graph_of ~modname:"Other" src in
  check Alcotest.bool "the same source elsewhere is a witness" true
    ((S.get unseeded.S.full "Other.draw").S.nondet <> None)

(* --- shared-state inventory ------------------------------------------ *)

let test_shared_state_fires_then_fixed () =
  let dirty =
    typed ~modname:"Statefx"
      "let cache : (string, int) Hashtbl.t = Hashtbl.create 16\n\
       let get k = Hashtbl.find_opt cache k\n"
  in
  check Alcotest.int "toplevel Hashtbl flagged" 1
    (count_rule "shared-state" dirty);
  let d = List.find (fun (d : L.diag) -> d.L.rule = "shared-state") dirty in
  check
    Alcotest.(option string)
    "keyed at the binding"
    (Some "lib/fixture/statefx.ml:cache")
    d.L.key;
  check Alcotest.bool "names the container kind" true
    (contains_sub d.L.msg "Hashtbl.t");
  let fixed = typed ~modname:"Statefx" "let get tbl k = Hashtbl.find_opt tbl k\n" in
  check Alcotest.int "threaded table passes" 0 (count_rule "shared-state" fixed)

let test_shared_state_record_and_immutables () =
  let diags =
    typed ~modname:"Statefx"
      "type h = { mutable alive : bool }\n\
       let flag = { alive = true }\n\
       let pi = 3.14159\n\
       let names = [ \"a\"; \"b\" ]\n"
  in
  check Alcotest.int "mutable record flagged, immutables quiet" 1
    (count_rule "shared-state" diags);
  let d = List.find (fun (d : L.diag) -> d.L.rule = "shared-state") diags in
  check Alcotest.bool "names the record kind" true
    (contains_sub d.L.msg "mutable fields")

(* --- domain safety (race detector) ----------------------------------- *)

let test_domain_unsafe_fires_then_fixed () =
  let dirty =
    typed ~modname:"Pump"
      "let hits = ref 0\nlet note () = incr hits\nlet inject t = note (); t\n"
  in
  check Alcotest.int "the direct writer is flagged once" 1
    (count_rule "domain-unsafe-write" dirty);
  let d =
    List.find (fun (d : L.diag) -> d.L.rule = "domain-unsafe-write") dirty
  in
  check
    Alcotest.(option string)
    "keyed at the writer"
    (Some "lib/fixture/pump.ml:note")
    d.L.key;
  check Alcotest.bool "message names the shared target" true
    (contains_sub d.L.msg "Pump.hits");
  let fixed =
    typed ~modname:"Pump"
      "let note (h : int ref) = incr h\nlet inject t h = note h; t\n"
  in
  check Alcotest.int "instance-threaded state passes" 0
    (count_rule "domain-unsafe-write" fixed)

let test_domain_instance_owned_proven () =
  (* the telemetry idiom: mutation through a parameter is *proven*
     instance-owned, not allowlisted *)
  let diags =
    typed ~modname:"Pump"
      "type c = { mutable n : int }\n\
       let bump (x : c) = x.n <- x.n + 1\n\
       let inject (t : c) = bump t; t.n\n"
  in
  check Alcotest.int "parameter-rooted mutation is proven owned" 0
    (count_rule "domain-unsafe-write" diags);
  check Alcotest.int "instance mutable fields are not shared state" 0
    (count_rule "shared-state" diags)

let test_domain_alias_laundering () =
  let diags =
    typed ~modname:"Pump"
      "let glob = ref 0\n\
       let sneaky () = let g = glob in g := 1\n\
       let inject t = sneaky (); t\n"
  in
  check Alcotest.int "global laundered through a let still flagged" 1
    (count_rule "domain-unsafe-write" diags)

let test_domain_cold_module_quiet () =
  let diags =
    typed ~modname:"Coldmod"
      "let hits = ref 0\nlet note () = incr hits\nlet drive t = note (); t\n"
  in
  check Alcotest.int "same write off the pump path passes" 0
    (count_rule "domain-unsafe-write" diags)

(* --- call-graph edges the summary engine depends on ------------------ *)

let test_callgraph_functor_application () =
  let src =
    "let total = ref 0\n\
     module type N = sig val n : int end\n\
     module F (X : N) = struct let go () = total := !total + X.n end\n\
     module A = F (struct let n = 3 end)\n\
     let inject t = A.go (); t\n"
  in
  let cg, _ = graph_of ~filename:"lib/fixture/pump.ml" ~modname:"Pump" src in
  check Alcotest.bool "inject -> F.go edge through the application" true
    (CG.SS.mem "Pump.F.go" (CG.succs cg "Pump.inject"));
  let dirty = typed ~modname:"Pump" src in
  check Alcotest.int "functor-body writer flagged" 1
    (count_rule "domain-unsafe-write" dirty);
  let d =
    List.find (fun (d : L.diag) -> d.L.rule = "domain-unsafe-write") dirty
  in
  check
    Alcotest.(option string)
    "keyed at the nested binding"
    (Some "lib/fixture/pump.ml:F.go")
    d.L.key;
  let fixed =
    typed ~modname:"Pump"
      "module type N = sig val n : int end\n\
       module F (X : N) = struct let go (acc : int ref) = acc := !acc + X.n end\n\
       module A = F (struct let n = 3 end)\n\
       let inject t acc = A.go acc; t\n"
  in
  check Alcotest.int "threaded accumulator passes" 0
    (count_rule "domain-unsafe-write" fixed)

let test_callgraph_first_class_module () =
  let src =
    "let total = ref 0\n\
     module type C = sig val bump : int -> int end\n\
     let counter : (module C) =\n\
    \  (module struct let bump x = total := !total + x; !total end)\n\
     let inject t = let module M = (val counter) in M.bump t\n"
  in
  let cg, sums = graph_of ~filename:"lib/fixture/pump.ml" ~modname:"Pump" src in
  check Alcotest.bool "inject -> counter edge through the unpack" true
    (CG.SS.mem "Pump.counter" (CG.succs cg "Pump.inject"));
  check Alcotest.bool "packed body's write attributed to counter" true
    (S.SS.mem "Pump.total" (S.get sums.S.base "Pump.counter").S.writes_shared);
  let dirty = typed ~modname:"Pump" src in
  check Alcotest.int "write through a first-class module flagged" 1
    (count_rule "domain-unsafe-write" dirty)

(* --- determinism taint ------------------------------------------------ *)

let test_taint_reaches_surface () =
  let dirty =
    typed ~modname:"Experiments"
      "let clock () = Sys.time ()\n\
       let e1_demo (xs : float list) = List.map (fun x -> x +. clock ()) xs\n"
  in
  check Alcotest.int "flagged at the surface, not the helper" 1
    (count_rule "determinism-taint" dirty);
  let d =
    List.find (fun (d : L.diag) -> d.L.rule = "determinism-taint") dirty
  in
  check
    Alcotest.(option string)
    "keyed at the surface"
    (Some "lib/fixture/experiments.ml:e1_demo")
    d.L.key;
  check Alcotest.bool "witness names the originating source" true
    (contains_sub d.L.msg "Sys.time");
  let fixed =
    typed ~modname:"Experiments"
      "let clock () = 0.0\n\
       let e1_demo (xs : float list) = List.map (fun x -> x +. clock ()) xs\n"
  in
  check Alcotest.int "clean helper passes" 0
    (count_rule "determinism-taint" fixed)

let test_taint_report_generate_surface () =
  let dirty =
    typed ~modname:"Report"
      "let stamp () = Sys.time ()\nlet generate () = stamp ()\n"
  in
  check Alcotest.int "Report.generate is a surface" 1
    (count_rule "determinism-taint" dirty);
  let quiet =
    typed ~modname:"Report"
      "let stamp () = Sys.time ()\nlet helper () = stamp ()\n"
  in
  check Alcotest.int "non-surface bindings stay quiet" 0
    (count_rule "determinism-taint" quiet)

(* --- atomics protocol (v4) ------------------------------------------- *)

module RA = Lintcore.Rules_atomic

(* Run the atomics pack alone over one fixture with a custom role
   table, exactly as typed_pass drives it with Lint.atomic_roles. *)
let atomic ?(scope = L.atomic_scope) ~roles ~modname src =
  let filename =
    Printf.sprintf "lib/fixture/%s.ml" (String.lowercase_ascii modname)
  in
  match Lintcore.Typed.of_string ~filename ~modname src with
  | Error d -> Alcotest.failf "fixture rejected: %s" (L.to_string d)
  | Ok m ->
      let cg = CG.build [ m ] in
      let sums = S.compute cg in
      RA.check ~roles ~scope sums cg [ m ]

let test_atomic_wrong_writer_fires_then_fixed () =
  let roles =
    [
      ( "Ringfx.t.head",
        RA.Single_writer { writers = [ "Ringfx.pop" ]; publishes = None } );
    ]
  in
  let dirty =
    atomic ~roles ~modname:"Ringfx"
      "type t = { head : int Atomic.t }\n\
       let pop t = Atomic.set t.head 1\n\
       let rogue t = Atomic.set t.head 2\n"
  in
  check Alcotest.int "write outside the declared writer flagged" 1
    (count_rule "atomic-protocol" dirty);
  let d = List.hd dirty in
  check
    Alcotest.(option string)
    "keyed at the rogue binding"
    (Some "lib/fixture/ringfx.ml:rogue")
    d.L.key;
  let fixed =
    atomic ~roles ~modname:"Ringfx"
      "type t = { head : int Atomic.t }\n\
       let pop t = Atomic.set t.head 1\n\
       let rogue t = pop t\n"
  in
  check Alcotest.int "routing through the writer passes" 0
    (count_rule "atomic-protocol" fixed)

let test_atomic_publish_ordering_fires_then_fixed () =
  let roles =
    [
      ( "Pubfx.t.tail",
        RA.Single_writer
          { writers = [ "Pubfx.push" ]; publishes = Some "Pubfx.t.buf" } );
    ]
  in
  let dirty =
    atomic ~roles ~modname:"Pubfx"
      "type t = { buf : int array; mask : int; tail : int Atomic.t }\n\
       let push t x =\n\
      \  let tl = Atomic.get t.tail in\n\
      \  Atomic.set t.tail (tl + 1);\n\
      \  t.buf.(tl land t.mask) <- x\n"
  in
  check Alcotest.int "slot write after the publish flagged" 1
    (count_rule "atomic-protocol" dirty);
  check Alcotest.bool "message explains the happens-before edge" true
    (contains_sub (List.hd dirty).L.msg "publishes");
  let fixed =
    atomic ~roles ~modname:"Pubfx"
      "type t = { buf : int array; mask : int; tail : int Atomic.t }\n\
       let push t x =\n\
      \  let tl = Atomic.get t.tail in\n\
      \  t.buf.(tl land t.mask) <- x;\n\
      \  Atomic.set t.tail (tl + 1)\n"
  in
  check Alcotest.int "slot write before the publish passes" 0
    (count_rule "atomic-protocol" fixed)

let test_atomic_counter_store_and_spawn_order () =
  let src =
    "type t = { live : int Atomic.t }\n\
     let retire t = ignore (Atomic.fetch_and_add t.live (-1) : int)\n\
     let reset t = Atomic.set t.live 0\n"
  in
  let strict =
    atomic
      ~roles:[ ("Ctrfx.t.live", RA.Counter { setters = [] }) ]
      ~modname:"Ctrfx" src
  in
  check Alcotest.int "store outside declared setters flagged" 1
    (count_rule "atomic-protocol" strict);
  let declared =
    atomic
      ~roles:[ ("Ctrfx.t.live", RA.Counter { setters = [ "Ctrfx.reset" ] }) ]
      ~modname:"Ctrfx" src
  in
  check Alcotest.int "fetch_and_add free, declared setter passes" 0
    (count_rule "atomic-protocol" declared);
  let late =
    atomic
      ~roles:[ ("Spawnfx.t.live", RA.Counter { setters = [ "Spawnfx.run" ] }) ]
      ~modname:"Spawnfx"
      "type t = { live : int Atomic.t }\n\
       let run t =\n\
      \  let d = Domain.spawn (fun () -> Atomic.get t.live) in\n\
      \  Atomic.set t.live 1;\n\
      \  ignore (Domain.join d : int)\n"
  in
  check Alcotest.int "counter set after Domain.spawn flagged" 1
    (count_rule "atomic-protocol" late)

let snapfx_roles =
  [
    ( "Snapfx.t.head",
      RA.Single_writer { writers = [ "Snapfx.pop" ]; publishes = None } );
    ( "Snapfx.t.tail",
      RA.Single_writer { writers = [ "Snapfx.push" ]; publishes = None } );
  ]

let snapfx_src =
  "type t = { head : int Atomic.t; tail : int Atomic.t }\n\
   let size t = Atomic.get t.tail - Atomic.get t.head\n\
   let pop t =\n\
  \  ignore (Atomic.get t.tail - Atomic.get t.head : int);\n\
  \  Atomic.set t.head 1\n"

let test_atomic_non_snapshot_read () =
  let diags = atomic ~roles:snapfx_roles ~modname:"Snapfx" snapfx_src in
  (* size combines two single-writer loads from outside either writer;
     pop makes the same pair but owns head, so only size fires *)
  check Alcotest.int "non-snapshot pair flagged once" 1
    (count_rule "atomic-protocol" diags);
  check
    Alcotest.(option string)
    "keyed at the non-owner"
    (Some "lib/fixture/snapfx.ml:size")
    (List.hd diags).L.key

let test_atomic_allowlist_precedence () =
  let allow =
    L.Allowlist.parse ~path:"allowlist"
      "atomic-protocol lib/fixture/snapfx.ml:size  # clamped downstream\n"
  in
  let diags =
    L.filter_suppressed ~allow ~baseline:empty
      (atomic ~roles:snapfx_roles ~modname:"Snapfx" snapfx_src)
  in
  check Alcotest.int "allowlisted non-snapshot suppressed" 0
    (List.length diags);
  check Alcotest.int "entry is live, not stale" 0
    (List.length (L.Allowlist.stale allow))

let test_atomic_accessor_alias_seen_through () =
  (* the write goes through a returned alias — the accessor map must
     resolve it to the field so the role check still applies *)
  let src =
    "type t = { asleep : bool Atomic.t }\n\
     let asleep_flag t = t.asleep\n\
     let doze t = Atomic.set (asleep_flag t) true\n"
  in
  let ok =
    atomic
      ~roles:
        [ ("Viewfx.t.asleep", RA.Publish_flag { writers = [ "Viewfx.doze" ] }) ]
      ~modname:"Viewfx" src
  in
  check Alcotest.int "declared writer through the accessor passes" 0
    (count_rule "atomic-protocol" ok);
  let bad =
    atomic
      ~roles:
        [ ("Viewfx.t.asleep", RA.Publish_flag { writers = [ "Viewfx.other" ] }) ]
      ~modname:"Viewfx" src
  in
  check Alcotest.int "accessor write from a non-writer flagged" 1
    (count_rule "atomic-protocol" bad)

let test_atomic_read_only_view_write () =
  let diags =
    atomic
      ~roles:
        [
          ("Rofx.t.flag", RA.Publish_flag { writers = [] });
          ("Rofx.t.view", RA.Read_only_view { of_field = "Rofx.t.flag" });
        ]
      ~modname:"Rofx"
      "type t = { flag : bool Atomic.t; view : bool Atomic.t }\n\
       let poke t = Atomic.set t.view true\n"
  in
  check Alcotest.int "write to a read-only view flagged" 1
    (count_rule "atomic-protocol" diags);
  check Alcotest.bool "message names the viewed field" true
    (contains_sub (List.hd diags).L.msg "Rofx.t.flag")

let test_atomic_coverage_and_stale_via_real_table () =
  (* a module named Ring goes through typed_pass against the real
     atomic_roles table: the undeclared field is a coverage finding,
     and the table's head/tail entries (which this Ring lacks) are
     stale — three atomic-role findings, nothing else *)
  let diags =
    typed ~modname:"Ring"
      "type t = { extra : int Atomic.t }\nlet mk () = { extra = Atomic.make 0 }\n"
  in
  check Alcotest.int "coverage + two stale entries" 3
    (count_rule "atomic-role" diags);
  check Alcotest.bool "undeclared field named" true
    (List.exists
       (fun (d : L.diag) -> contains_sub d.L.msg "Ring.t.extra")
       diags);
  check Alcotest.bool "stale table entry named" true
    (List.exists
       (fun (d : L.diag) -> contains_sub d.L.msg "Ring.t.head")
       diags)

(* --- unsafe ban --------------------------------------------------- *)

let unsafe_count ?allow ~modname src =
  count_rule "unsafe-unproven" (typed ?allow ~modname src)

let test_unsafe_fires_rooted_or_not () =
  (* guarded or not, on a hot-path root or off every root, through an
     alias or an open: any unsafe access in lib/ fires *)
  check Alcotest.int "guarded, on the Shard.run root" 1
    (unsafe_count ~modname:"Shard"
       "let run (b : Bytes.t) i =\n\
       \  if i >= 0 && i < Bytes.length b then Bytes.unsafe_get b i else 'x'\n");
  check Alcotest.int "unguarded, off every root" 1
    (unsafe_count ~modname:"Coldfx"
       "let get (b : Bytes.t) i = Bytes.unsafe_get b i\n");
  check Alcotest.int "through a module alias and an open" 2
    (unsafe_count ~modname:"Aliasfx"
       "module B = Bytes\n\
        let put (b : Bytes.t) i = B.unsafe_set b i 'x'\n\
        let get (a : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) \
        Bigarray.Array1.t) i = let open Bigarray in Array1.unsafe_get a i\n");
  check Alcotest.int "a checked access stays quiet" 0
    (unsafe_count ~modname:"Chkfx" "let get (b : Bytes.t) i = Bytes.get b i\n");
  match
    Lintcore.Typed.of_string ~filename:"bench/fixture.ml" ~modname:"Benchfx"
      "let get (b : Bytes.t) i = Bytes.unsafe_get b i\n"
  with
  | Error d -> Alcotest.failf "fixture rejected: %s" (L.to_string d)
  | Ok m ->
      check Alcotest.int "outside lib/ the ban does not apply" 0
        (count_rule "unsafe-unproven"
           (L.typed_pass ~decls:(Lintcore.Typed.decls_of_mods [ m ]) [ m ]))

let test_unsafe_allowlist_precedence () =
  let allow =
    L.Allowlist.parse ~path:"allowlist"
      "unsafe-unproven lib/fixture/bndfx.ml:get  # measured risk\n"
  in
  check Alcotest.int "the allowlisted finding is suppressed" 0
    (unsafe_count ~allow ~modname:"Bndfx"
       "let get (b : Bytes.t) i = Bytes.unsafe_get b i\n");
  check Alcotest.int "the entry is live, not stale" 0
    (List.length (L.Allowlist.stale allow))

let test_baseline_suppresses_then_goes_stale () =
  let baseline =
    L.Allowlist.parse ~path:"baseline"
      "poly-compare lib/fixture/cmpfix.ml:feq  # legacy, burn down\n"
  in
  let diags = typed ~baseline ~modname:"Cmpfix" "let feq (a : float) b = a = b\n" in
  check Alcotest.int "baselined finding suppressed" 0 (List.length diags);
  check Alcotest.int "entry is live, not stale" 0
    (List.length (L.Allowlist.stale ~rule:"stale-baseline" baseline))

let test_stale_baseline_entry_fires () =
  let baseline =
    L.Allowlist.parse ~path:"baseline" "poly-compare lib/gone.ml:nothing\n"
  in
  ignore (typed ~baseline ~modname:"Cmpfix" "let id x = x\n");
  let stale = L.Allowlist.stale ~rule:"stale-baseline" baseline in
  check Alcotest.int "unused baseline entry reported" 1
    (count_rule "stale-baseline" stale)

let test_allowlist_wins_over_baseline () =
  (* the same key in both files: the allowlist claims it, so the
     baseline entry is stale — debt must not hide behind an exemption *)
  let allow =
    L.Allowlist.parse ~path:"allowlist" "poly-compare lib/fixture/cmpfix.ml:feq\n"
  in
  let baseline =
    L.Allowlist.parse ~path:"baseline" "poly-compare lib/fixture/cmpfix.ml:feq\n"
  in
  let diags =
    typed ~allow ~baseline ~modname:"Cmpfix" "let feq (a : float) b = a = b\n"
  in
  check Alcotest.int "suppressed" 0 (List.length diags);
  check Alcotest.int "baseline copy is stale" 1
    (List.length (L.Allowlist.stale ~rule:"stale-baseline" baseline))

(* --- diagnostics, serialization, catalog ---------------------------- *)

let mk_diag ?key ~file ~line ~col ~rule msg =
  { L.file; line; col; rule; msg; key }

let test_to_string_one_based () =
  let d = typed ~modname:"Cmpfix" "let feq (a : float) b = a = b\n" in
  let d = List.hd d in
  check Alcotest.bool "column is 1-based" true (d.L.col >= 1);
  check Alcotest.string "format"
    (Printf.sprintf "%s:%d:%d: [%s] %s" d.L.file d.L.line d.L.col d.L.rule
       d.L.msg)
    (L.to_string d)

let test_dedupe_same_site () =
  (* the untyped and typed passes can both flag one site under one
     rule; the merged stream must carry it once *)
  let a = mk_diag ~file:"a.ml" ~line:3 ~col:1 ~rule:"r" "alpha" in
  let b = mk_diag ~file:"a.ml" ~line:3 ~col:1 ~rule:"r" "beta" in
  let other = mk_diag ~file:"a.ml" ~line:3 ~col:1 ~rule:"other" "gamma" in
  let out = L.dedupe_diags [ b; a; a; other ] in
  check Alcotest.int "same site+rule collapses, other rule survives" 2
    (List.length out);
  check
    Alcotest.(list string)
    "sorted, first message per site kept" [ "gamma"; "alpha" ]
    (List.map (fun (d : L.diag) -> d.L.msg) out)

let test_compare_diag_total () =
  let a = mk_diag ~file:"a.ml" ~line:1 ~col:1 ~rule:"r" "m" in
  let b = mk_diag ~file:"a.ml" ~line:1 ~col:2 ~rule:"r" "m" in
  let c = mk_diag ~file:"b.ml" ~line:1 ~col:1 ~rule:"r" "m" in
  check Alcotest.bool "col orders" true (L.compare_diag a b < 0);
  check Alcotest.bool "file dominates" true (L.compare_diag b c < 0);
  check Alcotest.int "reflexive" 0 (L.compare_diag a a);
  check Alcotest.bool "antisymmetric" true
    (L.compare_diag b a > 0 && L.compare_diag c b > 0)

let test_json_output () =
  let d =
    mk_diag ~key:"a.ml:f" ~file:"a.ml" ~line:3 ~col:7 ~rule:"poly-compare"
      "uses \"polymorphic\" compare"
  in
  let json = L.to_json [ d ] in
  let contains sub = check Alcotest.bool sub true (contains_sub json sub) in
  contains "\"tool\": \"evolvelint\"";
  contains "\"findings\": 1";
  contains "\"rule\": \"poly-compare\"";
  contains "\"line\": 3";
  contains "\"col\": 7";
  (* the embedded quotes must be escaped per RFC 8259 *)
  contains "uses \\\"polymorphic\\\" compare"

let test_sarif_output () =
  let d =
    mk_diag ~file:"lib/a.ml" ~line:3 ~col:7 ~rule:"catch-all" "swallows"
  in
  let sarif = L.to_sarif [ d ] in
  let contains sub = check Alcotest.bool sub true (contains_sub sarif sub) in
  contains "\"version\": \"2.1.0\"";
  contains "\"ruleId\": \"catch-all\"";
  contains "\"uri\": \"lib/a.ml\"";
  contains "\"startLine\": 3";
  contains "\"startColumn\": 7";
  (* every registry rule ships as a reportingDescriptor *)
  List.iter (fun (id, _) -> contains (Printf.sprintf "\"id\": \"%s\"" id)) L.rules

(* --- the real tree -------------------------------------------------- *)

(* Under `dune runtest` the cwd is _build/default/test and the declared
   deps place the sources one level up; under a bare `dune exec` from
   the repo root they are right here. *)
let repo_root =
  if Sys.file_exists "../tools/lint/allowlist" then ".."
  else if Sys.file_exists "tools/lint/allowlist" then "."
  else Alcotest.fail "cannot locate the repo root (tools/lint/allowlist)"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_catalog_in_sync () =
  check Alcotest.string "doc/LINT.md matches Lint.catalog_md ()"
    (L.catalog_md ())
    (read_file (Filename.concat repo_root "doc/LINT.md"))

let test_clean_tree_passes () =
  let allow =
    L.Allowlist.load (Filename.concat repo_root "tools/lint/allowlist")
  in
  let baseline =
    L.Allowlist.load (Filename.concat repo_root "tools/lint/baseline")
  in
  let diags = L.run ~root:repo_root ~allow ~baseline in
  check
    Alcotest.(list string)
    "evolvelint is clean on the committed tree" []
    (List.map L.to_string diags)

let test_outputs_byte_identical () =
  let load f = L.Allowlist.load (Filename.concat repo_root f) in
  let run () =
    L.run ~root:repo_root
      ~allow:(load "tools/lint/allowlist")
      ~baseline:(load "tools/lint/baseline")
  in
  let d1 = run () and d2 = run () in
  check Alcotest.string "json byte-identical across runs" (L.to_json d1)
    (L.to_json d2);
  check Alcotest.string "sarif byte-identical across runs" (L.to_sarif d1)
    (L.to_sarif d2)

let test_summary_dump_deterministic () =
  let j1 = L.summary_dump ~root:repo_root ~json:true in
  let j2 = L.summary_dump ~root:repo_root ~json:true in
  check Alcotest.string "json dump byte-identical across runs" j1 j2;
  check Alcotest.bool "covers the pump entry point" true
    (contains_sub j1 "Pump.inject");
  check Alcotest.bool "json carries the spawned callees" true
    (contains_sub j1 "\"spawn_callees\"");
  let t = L.summary_dump ~root:repo_root ~json:false in
  check Alcotest.bool "text dump lists the shared-state inventory" true
    (contains_sub t "# shared state");
  check Alcotest.bool "accessor map sees through asleep_flag" true
    (contains_sub t "Shard.asleep_flag -> Shard.t.asleep");
  check Alcotest.bool "spawned-closure callees listed" true
    (contains_sub t "# spawned-closure callees")

(* The root lists must name real bindings: a fixture graph holding
   every declared root but Wire.peek_* (a hot-path root) yields
   exactly one stale-root finding, naming it, and the committed tree
   none. *)
let test_stale_root () =
  let fixture =
    [
      ("Pump", "let inject x = x\n");
      ("Flowcache", "let lookup x = x\n");
      ("Shard", "let run x = x\n");
      ("Ring", "let push x = x\nlet pop x = x\n");
    ]
  in
  let mods =
    List.map
      (fun (modname, src) ->
        let filename = "lib/fixture/" ^ String.lowercase_ascii modname ^ ".ml" in
        match Lintcore.Typed.of_string ~filename ~modname src with
        | Ok m -> m
        | Error d -> Alcotest.failf "fixture rejected: %s" (L.to_string d))
      fixture
  in
  let diags = L.stale_roots (CG.build mods) in
  check Alcotest.int "one stale root" 1 (count_rule "stale-root" diags);
  check Alcotest.bool "it names the missing root" true
    (List.for_all (fun (d : L.diag) -> contains_sub d.L.msg "Wire.peek_*") diags);
  let tree = Lintcore.Typed.load_tree ~root:repo_root in
  check Alcotest.(list string) "the committed tree has none" []
    (List.map L.to_string (L.stale_roots (CG.build tree.Lintcore.Typed.tmods)))

(* --- unreached exports -------------------------------------------- *)

module RR = Lintcore.Rules_reach

(* Typecheck fixture units in order, each seeing the ones before. *)
let units us =
  match Lintcore.Typed.of_strings us with
  | Ok ms -> ms
  | Error d -> Alcotest.failf "fixture rejected: %s" (L.to_string d)

(* A library module with one export per way a program can reach it,
   plus two no program reaches. *)
let netfx =
  ( "lib/fixture/netfx.ml",
    "Fixture__Netfx",
    Some
      "type t = int
       val direct : int -> int
       val aliased : int -> int
       val first_class : int -> int
       val in_closure : int -> int
       val registry : (string * (int -> int)) list
       val compare : t -> t -> int
       val equal : t -> t -> bool
       val only_tests : int -> int
       val unused : int -> int
",
    "type t = int
     let direct x = x + 1
     let aliased x = x + 2
     let first_class x = x + 3
     let in_closure x = x + 4
     let registry = [ (\"c\", fun x -> in_closure x) ]
     let compare (a : t) b = Int.compare a b
     let equal (a : t) b = a = b
     let only_tests x = x + 5
     let unused x = x + 6
" )

(* The values [check] flags, sorted. *)
let unreached ~lib ~roots =
  RR.check (CG.build lib) ~lib ~roots
  |> List.filter_map (fun (d : L.diag) ->
         if d.L.rule = "unreached-export" then
           Option.map
             (fun k -> List.nth (String.split_on_char ':' k) 1)
             d.L.key
         else None)
  |> List.sort compare

let test_unreached_fires_then_reached () =
  let program =
    ( "bin/fx.ml",
      "Dune__exe__Fx",
      None,
      "module N = Fixture__Netfx
       module S = Set.Make (Fixture__Netfx)
       let apply ~f x = f x
       let () =
      \  ignore (Fixture__Netfx.direct 1);
      \  ignore (N.aliased 1);
      \  ignore (apply ~f:Fixture__Netfx.first_class 1);
      \  List.iter (fun (_, f) -> ignore (f 1)) Fixture__Netfx.registry;
      \  ignore (S.cardinal S.empty)
" )
  in
  let a_test =
    ("test/test_fx.ml", "Dune__exe__Test_fx", None,
     "let () = ignore (Fixture__Netfx.only_tests 1)
")
  in
  match units [ netfx; program; a_test ] with
  | [ lib; exe; _test ] ->
      check
        Alcotest.(list string)
        "no program: every export fires"
        [ "aliased"; "compare"; "direct"; "equal"; "first_class"; "in_closure";
          "only_tests"; "registry"; "unused" ]
        (unreached ~lib:[ lib ] ~roots:[]);
      (* directly, through an alias, as a first-class function, from a
         closure inside a top-level value, and through a functor
         argument, which reaches what the parameter asks for (compare)
         and nothing else (equal); a test is not a program *)
      check
        Alcotest.(list string)
        "what the program reaches goes quiet"
        [ "equal"; "only_tests"; "unused" ]
        (unreached ~lib:[ lib ] ~roots:[ exe ]);
      let d =
        List.find
          (fun (d : L.diag) -> d.L.key = Some "lib/fixture/netfx.mli:unused")
          (RR.check (CG.build [ lib ]) ~lib:[ lib ] ~roots:[ exe ])
      in
      check Alcotest.string "reported in the interface" "lib/fixture/netfx.mli"
        d.L.file;
      check Alcotest.int "at the val's line" 10 d.L.line
  | _ -> Alcotest.fail "three units expected"

(* bench/perf's perfkit library has a Stats module, as lib/core does: a
   program's Perfkit.Stats call must not count as a use of
   Evolve.Stats. *)
let test_unreached_resolves_by_library () =
  let evolve_stats =
    ( "lib/core/stats.ml", "Evolve__Stats", Some "val mean : float list -> float
",
      "let mean xs = List.fold_left ( +. ) 0. xs
" )
  and evolve = ("lib/core/evolve.ml", "Evolve", None, "module Stats = Evolve__Stats
")
  and perfkit_stats =
    ("bench/perf/stats.ml", "Perfkit__Stats", None, "let mean _ = 0.
")
  and perfkit = ("bench/perf/perfkit.ml", "Perfkit", None, "module Stats = Perfkit__Stats
") in
  let main src = ("bench/perf/main.ml", "Dune__exe__Main", None, src) in
  match
    units
      [ evolve_stats; evolve; perfkit_stats; perfkit;
        main "open Perfkit
let () = ignore (Stats.mean [])
";
        main "let () = ignore (Evolve.Stats.mean [])
" ]
  with
  | [ stats; _; _; _; bench; lib_user ] ->
      check Alcotest.(list string) "Perfkit.Stats.mean is not Evolve.Stats.mean"
        [ "mean" ] (unreached ~lib:[ stats ] ~roots:[ bench ]);
      check Alcotest.(list string) "Evolve.Stats.mean is" []
        (unreached ~lib:[ stats ] ~roots:[ lib_user ])
  | _ -> Alcotest.fail "six units expected"

let test_unreached_allowlist_and_baseline () =
  match units [ netfx ] with
  | [ lib ] ->
      let diags () = RR.check (CG.build [ lib ]) ~lib:[ lib ] ~roots:[] in
      let entries vs =
        String.concat ""
          (List.map (Printf.sprintf "unreached-export lib/fixture/netfx.mli:%s\n") vs)
      in
      let all =
        [ "aliased"; "compare"; "direct"; "equal"; "first_class"; "in_closure";
          "registry" ]
      in
      let allow = L.Allowlist.parse ~path:"allowlist" (entries [ "only_tests" ])
      and baseline = L.Allowlist.parse ~path:"baseline" (entries ("unused" :: all)) in
      check Alcotest.int "every finding suppressed" 0
        (List.length (L.filter_suppressed ~allow ~baseline (diags ())));
      check Alcotest.int "no stale entry" 0
        (List.length (L.Allowlist.stale allow)
        + List.length (L.Allowlist.stale ~rule:"stale-baseline" baseline));
      (* an entry for an export nobody flags is stale, in either file *)
      let allow = L.Allowlist.parse ~path:"allowlist" (entries [ "only_tests"; "gone" ])
      and baseline = L.Allowlist.parse ~path:"baseline" (entries ("unused" :: "old" :: all)) in
      ignore (L.filter_suppressed ~allow ~baseline (diags ()));
      check Alcotest.int "stale allowlist entry fires" 1
        (count_rule "stale-allowlist" (L.Allowlist.stale allow));
      check Alcotest.int "stale baseline entry fires" 1
        (count_rule "stale-baseline" (L.Allowlist.stale ~rule:"stale-baseline" baseline))
  | _ -> Alcotest.fail "one unit expected"

(* Programs are the executables of bin/, bench/perf and examples/;
   test stanzas are not. *)
let test_program_stanzas () =
  let root = Filename.concat (Filename.get_temp_dir_name ()) "evolvelint-stanzas" in
  let write rel contents =
    let path = Filename.concat root rel in
    let rec mkdir d =
      if not (Sys.file_exists d) then begin
        mkdir (Filename.dirname d);
        Sys.mkdir d 0o755
      end
    in
    mkdir (Filename.dirname path);
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  write "bin/dune" "(executable (name evolvenet) (libraries evolve))\n";
  write "bench/perf/dune"
    "(library (name perfkit))\n(executable (name main))\n(test (name test_perf))\n";
  write "examples/dune" "(executables (names quickstart tour))\n";
  write "test/dune" "(tests (names test_a test_b))\n";
  let stanzas = L.program_stanzas ~root in
  List.iter
    (fun rel ->
      Sys.remove (Filename.concat root rel);
      Sys.rmdir (Filename.dirname (Filename.concat root rel)))
    [ "bin/dune"; "bench/perf/dune"; "examples/dune"; "test/dune" ];
  Sys.rmdir (Filename.concat root "bench");
  Sys.rmdir root;
  check
    Alcotest.(list (pair string string))
    "executables only"
    [ ("bin", "evolvenet"); ("bench/perf", "main"); ("examples", "quickstart") ]
    stanzas

let () =
  Alcotest.run "lint"
    [
      ( "layering",
        [
          Alcotest.test_case "upward edge fires" `Quick test_layering_upward_edge;
          Alcotest.test_case "sideways edge fires" `Quick
            test_layering_sideways_edge;
          Alcotest.test_case "clean graph passes" `Quick test_layering_clean;
          Alcotest.test_case "unknown library fires" `Quick
            test_layering_unknown_library;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "stray Random.int fires" `Quick test_random_direct;
          Alcotest.test_case "rng.ml exemption" `Quick test_random_allowed_in_rng;
          Alcotest.test_case "wall-clock calls fire" `Quick test_forbidden_calls;
          Alcotest.test_case "self_init fires everywhere" `Quick
            test_self_init_forbidden_even_in_rng;
          Alcotest.test_case "unsorted fold fires" `Quick
            test_hashtbl_fold_unsorted;
          Alcotest.test_case "fold |> sort passes" `Quick
            test_hashtbl_fold_piped_into_sort;
          Alcotest.test_case "sort (fold ...) passes" `Quick
            test_hashtbl_fold_inside_sort_application;
          Alcotest.test_case "iter fires" `Quick test_hashtbl_iter_flagged;
          Alcotest.test_case "allowlist exempts" `Quick test_hashtbl_allowlist;
          Alcotest.test_case "stale allowlist entry fires" `Quick
            test_allowlist_stale_entry;
          Alcotest.test_case "parse error reported" `Quick test_parse_error;
        ] );
      ( "interfaces",
        [
          Alcotest.test_case "missing .mli fires" `Quick test_missing_mli;
          Alcotest.test_case "no paper ref fires" `Quick
            test_mli_without_paper_ref;
          Alcotest.test_case "\xC2\xA7 ref passes" `Quick test_mli_with_section_sign;
          Alcotest.test_case "'Section' ref passes" `Quick
            test_mli_with_section_word;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "incomplete experiment fires per artifact" `Quick
            test_experiment_completeness;
          Alcotest.test_case "allowlist exempts artifacts" `Quick
            test_experiment_allowlist;
        ] );
      ( "comparison-safety",
        [
          Alcotest.test_case "float `=` fires then fixed" `Quick
            test_poly_compare_fires_then_fixed;
          Alcotest.test_case "scalar-float ordering exempt" `Quick
            test_float_ordering_exempt;
          Alcotest.test_case "`==` fires then fixed" `Quick
            test_physical_eq_fires_then_fixed;
        ] );
      ( "exception-hygiene",
        [
          Alcotest.test_case "catch-all fires then fixed" `Quick
            test_catch_all_fires_then_fixed;
          Alcotest.test_case "undocumented raise fires then fixed" `Quick
            test_undoc_raise_fires_then_fixed;
        ] );
      ( "hot-path-allocation",
        [
          Alcotest.test_case "per-packet alloc fires then fixed" `Quick
            test_hot_path_alloc_fires_then_fixed;
          Alcotest.test_case "reachability carries the hot set" `Quick
            test_hot_path_reachability;
        ] );
      ( "effect-summaries",
        [
          Alcotest.test_case "per-binding effect classes" `Quick
            test_summary_effects;
          Alcotest.test_case "mutual recursion reaches the fixpoint" `Quick
            test_summary_scc_fixpoint;
          Alcotest.test_case "rng.ml is a sanctioned source" `Quick
            test_rng_sanctioned_source;
        ] );
      ( "shared-state",
        [
          Alcotest.test_case "toplevel container fires then fixed" `Quick
            test_shared_state_fires_then_fixed;
          Alcotest.test_case "mutable record flagged, immutables quiet" `Quick
            test_shared_state_record_and_immutables;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "shared write fires then fixed" `Quick
            test_domain_unsafe_fires_then_fixed;
          Alcotest.test_case "instance-owned mutation proven" `Quick
            test_domain_instance_owned_proven;
          Alcotest.test_case "alias laundering caught" `Quick
            test_domain_alias_laundering;
          Alcotest.test_case "cold module stays quiet" `Quick
            test_domain_cold_module_quiet;
          Alcotest.test_case "functor application edges" `Quick
            test_callgraph_functor_application;
          Alcotest.test_case "first-class module edges" `Quick
            test_callgraph_first_class_module;
        ] );
      ( "determinism-taint",
        [
          Alcotest.test_case "taint surfaces at eN" `Quick
            test_taint_reaches_surface;
          Alcotest.test_case "Report.generate is a surface" `Quick
            test_taint_report_generate_surface;
        ] );
      ( "atomics-protocol",
        [
          Alcotest.test_case "wrong-role write fires then fixed" `Quick
            test_atomic_wrong_writer_fires_then_fixed;
          Alcotest.test_case "publish ordering fires then fixed" `Quick
            test_atomic_publish_ordering_fires_then_fixed;
          Alcotest.test_case "counter stores and spawn order" `Quick
            test_atomic_counter_store_and_spawn_order;
          Alcotest.test_case "non-snapshot read pair fires" `Quick
            test_atomic_non_snapshot_read;
          Alcotest.test_case "allowlist precedence" `Quick
            test_atomic_allowlist_precedence;
          Alcotest.test_case "accessor alias seen through" `Quick
            test_atomic_accessor_alias_seen_through;
          Alcotest.test_case "read-only view write fires" `Quick
            test_atomic_read_only_view_write;
          Alcotest.test_case "coverage and stale table entries" `Quick
            test_atomic_coverage_and_stale_via_real_table;
        ] );
      ( "unsafe-unproven",
        [
          Alcotest.test_case "fires rooted or not" `Quick
            test_unsafe_fires_rooted_or_not;
          Alcotest.test_case "allowlist precedence" `Quick
            test_unsafe_allowlist_precedence;
        ] );
      ( "unreached-export",
        [
          Alcotest.test_case "fires, then quiet once a program reaches it" `Quick
            test_unreached_fires_then_reached;
          Alcotest.test_case "paths resolve by library" `Quick
            test_unreached_resolves_by_library;
          Alcotest.test_case "allowlist, baseline and stale entries" `Quick
            test_unreached_allowlist_and_baseline;
          Alcotest.test_case "programs are executables, not tests" `Quick
            test_program_stanzas;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "baseline suppresses live debt" `Quick
            test_baseline_suppresses_then_goes_stale;
          Alcotest.test_case "stale baseline entry fires" `Quick
            test_stale_baseline_entry_fires;
          Alcotest.test_case "allowlist wins over baseline" `Quick
            test_allowlist_wins_over_baseline;
        ] );
      ( "output",
        [
          Alcotest.test_case "to_string is 1-based" `Quick
            test_to_string_one_based;
          Alcotest.test_case "same-site diagnostics dedupe" `Quick
            test_dedupe_same_site;
          Alcotest.test_case "compare_diag is total" `Quick
            test_compare_diag_total;
          Alcotest.test_case "json shape and escaping" `Quick test_json_output;
          Alcotest.test_case "sarif 2.1.0 shape" `Quick test_sarif_output;
          Alcotest.test_case "doc/LINT.md in sync" `Quick test_catalog_in_sync;
        ] );
      ( "whole-tree",
        [
          Alcotest.test_case "clean tree passes" `Quick test_clean_tree_passes;
          Alcotest.test_case "lint output is deterministic" `Quick
            test_outputs_byte_identical;
          Alcotest.test_case "summary dump is deterministic" `Quick
            test_summary_dump_deterministic;
          Alcotest.test_case "stale root fires on a missing binding" `Quick
            test_stale_root;
        ] );
    ]
