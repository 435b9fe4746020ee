(* The CLI contract for bad input: unknown experiments / figures and
   malformed flags must exit 2 with a usage hint on stderr — never a
   backtrace, never a silent success. Runs the real binary (see
   test/dune for the dependency). *)

(* resolve relative to this test executable (both live in _build), so
   the test works from `dune runtest` and `dune exec` alike *)
let binary =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "evolvenet.exe"))

(* run the binary with [args], capturing (exit code, stderr) *)
let run args =
  let err = Filename.temp_file "evolvenet_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s 2> %s" (Filename.quote binary) args
         (Filename.quote err))
  in
  let ic = open_in err in
  let msg = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  (code, msg)

(* run the binary with [args], capturing (exit code, stdout) *)
let run_out args =
  let out = Filename.temp_file "evolvenet_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> /dev/null" (Filename.quote binary) args
         (Filename.quote out))
  in
  let ic = open_in out in
  let msg = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, msg)

let contains haystack needle =
  let h = String.lowercase_ascii haystack
  and n = String.lowercase_ascii needle in
  let hl = String.length h and nl = String.length n in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub h i nl) n || go (i + 1))
  in
  go 0

let check = Alcotest.check

let test_unknown_experiment () =
  let code, msg = run "exp e999" in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "names the experiment" true (contains msg "e999");
  check Alcotest.bool "points at usage" true (contains msg "usage");
  check Alcotest.bool "suggests the index" true (contains msg "exp list")

(* Internet.build needs at least one transit and one stub per transit:
   a smaller count is a usage error naming the flag, not an uncaught
   Invalid_argument (exit 125) *)
let test_exp_rejects_small_topology () =
  List.iter
    (fun (args, flag) ->
      let code, msg = run ("exp " ^ args) in
      check Alcotest.int (args ^ ": exit code") 2 code;
      check Alcotest.bool (args ^ ": names " ^ flag) true (contains msg flag))
    [
      ("e1 --transit 0", "--transit");
      ("e1 --transit=-2", "--transit");
      ("e1 --stubs=-1", "--stubs");
      ("e20 --stubs 0", "--stubs");
      ("e30 --stubs 0", "--stubs");
    ]

(* a target in a missing directory fails before the report is
   generated, with the path on stderr *)
let test_report_unwritable_target () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "evolvenet-no-such-dir" in
  let path = Filename.concat dir "x.md" in
  let t0 = Unix.gettimeofday () in
  let code, msg = run ("report -o " ^ Filename.quote path) in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "names the path" true (contains msg path);
  check Alcotest.bool "fails before generating" true (Unix.gettimeofday () -. t0 < 1.0);
  check Alcotest.bool "creates nothing" false (Sys.file_exists dir)

let test_exp_list () =
  (* `exp list` is the discoverable index: every experiment id with a
     one-line description, exit 0 *)
  let code, out = run_out "exp list" in
  check Alcotest.int "exit code" 0 code;
  List.iter
    (fun e ->
      check Alcotest.bool (e ^ " listed") true (contains out (e ^ " ")))
    [ "e1"; "e33"; "e34"; "e35" ];
  check Alcotest.bool "describes the drill sweep" true (contains out "drill")

(* --- exp prints RESULTS.md's tables ---------------------------------- *)

let results_md =
  lazy
    (let path =
       Filename.concat
         (Filename.dirname Sys.executable_name)
         (Filename.concat ".." "RESULTS.md")
     in
     let ic = open_in_bin path in
     let body = really_input_string ic (in_channel_length ic) in
     close_in ic;
     body)

(* `exp eN` prints "EN — title", its underline, the table and a blank
   line; RESULTS.md holds the same heading and table as a markdown
   section. E8 and E18 build their own single domain and must not take
   the topology seed; E10 is built on the random internet. *)
let test_exp_matches_results id () =
  let code, out = run_out ("exp " ^ id) in
  check Alcotest.int "exit code" 0 code;
  match String.split_on_char '\n' out with
  | heading :: _underline :: table ->
      let table = String.concat "\n" table in
      (* drop the trailing blank line Table.print adds *)
      let table = String.sub table 0 (String.length table - 1) in
      let results = Lazy.force results_md in
      let occurs needle =
        let nl = String.length needle in
        let rec go i =
          i + nl <= String.length results
          && (String.sub results i nl = needle || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool (id ^ " table is RESULTS.md's") true
        (occurs ("```\n" ^ table ^ "```\n"));
      check Alcotest.bool (id ^ " heading is RESULTS.md's") true
        (occurs (Printf.sprintf "### %s\n\n```\n%s```\n" heading table))
  | _ -> Alcotest.failf "exp %s: no heading" id

let test_exp_seed_reaches_random_internet () =
  let _, default = run_out "exp e10" in
  let _, seeded = run_out "exp e10 --seed 7" in
  check Alcotest.bool "--seed changes e10" false (String.equal default seeded)

let test_unknown_figure () =
  let code, msg = run "fig 99" in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "points at usage" true (contains msg "usage")

let test_malformed_flag_value () =
  (* cmdliner rejects the unparsable option value; main remaps its
     cli_error exit to 2 so scripts see one consistent failure code *)
  let code, msg = run "exp e1 --seed notanint" in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "stderr not empty" true (String.length msg > 0)

let test_unknown_flag () =
  let code, _ = run "exp e1 --no-such-flag" in
  check Alcotest.int "exit code" 2 code

let test_help_exits_zero () =
  let code, _ = run "--help > /dev/null" in
  check Alcotest.int "exit code" 0 code

(* --- sim: one IPvN journey -------------------------------------------- *)

let test_sim_verbose () =
  let code, out = run_out "sim -v" in
  check Alcotest.int "exit code" 0 code;
  check Alcotest.bool "delivered" true (contains out "delivered: true");
  check Alcotest.bool "access leg" true (contains out "access (anycast):");
  check Alcotest.bool "tunnel leg" true (contains out "vN tunnel");
  check Alcotest.bool "exit leg" true (contains out "exit (IPv(N-1)):")

let test_sim_bad_deploy () =
  let code, msg = run "sim --deploy 5,abc,999" in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "names the bad token" true (contains msg "abc")

let test_sim_bad_egress () =
  let code, msg = run "sim --egress bogus" in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "stderr not empty" true (String.length msg > 0)

(* --- drill and glass subcommands ------------------------------------ *)

let test_drill_unknown_name () =
  let code, msg = run "drill --name no-such-drill" in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "names the drill" true (contains msg "no-such-drill");
  check Alcotest.bool "lists the catalog" true (contains msg "regional-blackout")

let test_drill_requires_a_book () =
  let code, msg = run "drill" in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "stderr not empty" true (String.length msg > 0)

let test_glass_bad_query () =
  let code, msg = run "glass --name regional-blackout no-such-query" in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "stderr not empty" true (String.length msg > 0)

let drill_file =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".."
       (Filename.concat "examples"
          (Filename.concat "drills" "prefix-hijack.drill")))

let test_drill_from_file_end_to_end () =
  (* the file loader is the operator-facing path: run a whole drill
     from an examples/ book, SLO verdict green, exit 0 *)
  let code, out = run_out (Printf.sprintf "drill --file %s" (Filename.quote drill_file)) in
  check Alcotest.int "exit code" 0 code;
  check Alcotest.bool "prints the verdict" true (contains out "pass");
  check Alcotest.bool "prints the transcript" true (contains out "hijack")

(* --- the evolvelint binary honours the same contract ---------------- *)

let lint_binary =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".."
       (Filename.concat "tools" (Filename.concat "lint" "main.exe")))

let run_lint args =
  let err = Filename.temp_file "evolvelint_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s 2> %s" (Filename.quote lint_binary) args
         (Filename.quote err))
  in
  let ic = open_in err in
  let msg = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  (code, msg)

let test_lint_explain_unknown_rule () =
  let code, msg = run_lint "--explain no-such-rule" in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "names the rule" true (contains msg "no-such-rule");
  check Alcotest.bool "lists the known rules" true (contains msg "layering");
  check Alcotest.bool "points at usage" true (contains msg "usage")

let test_lint_explain_known_rule () =
  let code, msg = run_lint "--explain domain-unsafe-write > /dev/null" in
  check Alcotest.int "exit code" 0 code;
  check Alcotest.bool "stderr empty" true (String.length msg = 0)

let test_lint_summaries_rejects_sarif () =
  let code, msg = run_lint "--summaries --format sarif" in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "points at usage" true (contains msg "usage")

let test_lint_unknown_format () =
  let code, msg = run_lint "--format yaml" in
  check Alcotest.int "exit code" 2 code;
  check Alcotest.bool "points at usage" true (contains msg "usage")

let () =
  Alcotest.run "cli"
    [
      ( "errors",
        [
          Alcotest.test_case "unknown experiment" `Quick
            test_unknown_experiment;
          Alcotest.test_case "unknown figure" `Quick test_unknown_figure;
          Alcotest.test_case "malformed flag value" `Quick
            test_malformed_flag_value;
          Alcotest.test_case "unknown flag" `Quick test_unknown_flag;
          Alcotest.test_case "help exits 0" `Quick test_help_exits_zero;
          Alcotest.test_case "exp list" `Quick test_exp_list;
          Alcotest.test_case "exp rejects --transit/--stubs below 1" `Quick
            test_exp_rejects_small_topology;
          Alcotest.test_case "report -o into a missing directory exits 2" `Quick
            test_report_unwritable_target;
        ] );
      ( "exp",
        [
          Alcotest.test_case "e8 matches RESULTS.md" `Quick
            (test_exp_matches_results "e8");
          Alcotest.test_case "e18 matches RESULTS.md" `Quick
            (test_exp_matches_results "e18");
          Alcotest.test_case "e10 matches RESULTS.md" `Quick
            (test_exp_matches_results "e10");
          Alcotest.test_case "--seed reaches e10" `Quick
            test_exp_seed_reaches_random_internet;
        ] );
      ( "sim",
        [
          Alcotest.test_case "-v prints every leg" `Quick test_sim_verbose;
          Alcotest.test_case "bad --deploy exits 2" `Quick test_sim_bad_deploy;
          Alcotest.test_case "bad --egress exits 2" `Quick test_sim_bad_egress;
        ] );
      ( "drill",
        [
          Alcotest.test_case "unknown name exits 2" `Quick
            test_drill_unknown_name;
          Alcotest.test_case "requires a book" `Quick test_drill_requires_a_book;
          Alcotest.test_case "glass bad query exits 2" `Quick
            test_glass_bad_query;
          Alcotest.test_case "file loader end to end" `Slow
            test_drill_from_file_end_to_end;
        ] );
      ( "lint",
        [
          Alcotest.test_case "explain unknown rule exits 2" `Quick
            test_lint_explain_unknown_rule;
          Alcotest.test_case "explain known rule exits 0" `Quick
            test_lint_explain_known_rule;
          Alcotest.test_case "--summaries rejects sarif" `Quick
            test_lint_summaries_rejects_sarif;
          Alcotest.test_case "unknown format exits 2" `Quick
            test_lint_unknown_format;
        ] );
    ]
