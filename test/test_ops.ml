(* The incident-drill subsystem (DESIGN.md section 12): drillbook
   validation and loader round-trips, deterministic drill replay, the
   recovery SLOs of every catalog drill, and the looking glass's
   output-stability contract. *)

module Drillbook = Ops.Drillbook
module Drill = Ops.Drill
module Slo = Ops.Slo
module Glass = Ops.Glass
module Internet = Topology.Internet

let check = Alcotest.check

(* same small internet the experiment suite uses, to keep replays fast *)
let small_params =
  {
    Internet.default_params with
    Internet.transit_domains = 3;
    stubs_per_transit = 4;
    routers_per_transit = 8;
    routers_per_stub = 4;
    endhosts_per_domain = 2;
  }

(* --- drillbook: builder validation --------------------------------- *)

let invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument"

let test_slo_validation () =
  invalid (fun () ->
      ignore
        (Drillbook.slo ~detection:(-1.0) ~reconverge:8.0 ~blackhole:4.0
           ~stale:0.5 ~hijacked:0.0));
  invalid (fun () ->
      ignore
        (Drillbook.slo ~detection:1.0 ~reconverge:8.0 ~blackhole:4.0
           ~stale:1.5 ~hijacked:0.0))

let ok_slo =
  Drillbook.slo ~detection:1.0 ~reconverge:8.0 ~blackhole:4.0 ~stale:0.5
    ~hijacked:0.0

let test_make_validation () =
  invalid (fun () ->
      ignore
        (Drillbook.make ~name:"" ~slo:ok_slo
           (Drillbook.Blackout { links = 1; routers_down = 0 })));
  (* fault window must sit inside the drill *)
  invalid (fun () ->
      ignore
        (Drillbook.make ~name:"x" ~ticks:5 ~fault_at:3.0 ~fault_until:9.0
           ~slo:ok_slo
           (Drillbook.Blackout { links = 1; routers_down = 0 })));
  (* flap trains must spend a positive fraction of each period down *)
  invalid (fun () ->
      ignore
        (Drillbook.make ~name:"x" ~slo:ok_slo
           (Drillbook.Provider_flap
              { stub_rank = 0; cycles = 2; period = 2.0; down_for = 3.0 })))

let test_with_intensity () =
  let b = Drillbook.regional_blackout in
  check Alcotest.bool "intensity 1 is the identity" true
    (Drillbook.equal b (Drillbook.with_intensity b 1.0));
  let hot = Drillbook.with_intensity b 4.0 in
  (match hot.Drillbook.kind with
  | Drillbook.Blackout { links; _ } ->
      check Alcotest.int "link count scales" 12 links
  | _ -> Alcotest.fail "kind changed");
  check Alcotest.bool "loss scales" true (hot.Drillbook.loss > b.Drillbook.loss);
  let inferno = Drillbook.with_intensity b 1000.0 in
  check (Alcotest.float 1e-9) "loss capped below certainty" 0.9
    inferno.Drillbook.loss;
  invalid (fun () -> ignore (Drillbook.with_intensity b 0.0));
  invalid (fun () -> ignore (Drillbook.with_intensity b nan))

(* --- drillbook: s-expression loader -------------------------------- *)

let test_sexp_roundtrip () =
  List.iter
    (fun b ->
      match Drillbook.of_string (Drillbook.to_sexp b) with
      | Ok b' ->
          check Alcotest.bool
            (b.Drillbook.name ^ " round-trips")
            true (Drillbook.equal b b')
      | Error e -> Alcotest.failf "%s: %s" b.Drillbook.name e)
    Drillbook.catalog

let test_example_files_match_catalog () =
  (* the files under examples/drills/ are the catalog in file form;
     drifting apart would make the README quickstart lie *)
  List.iter
    (fun b ->
      (* resolve relative to this executable (in _build/default/test),
         so the test works from `dune runtest` and `dune exec` alike *)
      let path =
        Filename.concat
          (Filename.dirname Sys.executable_name)
          (Filename.concat ".."
             (Filename.concat "examples"
                (Filename.concat "drills" (b.Drillbook.name ^ ".drill"))))
      in
      match Drillbook.load path with
      | Ok b' ->
          check Alcotest.bool
            (b.Drillbook.name ^ ".drill matches the catalog")
            true (Drillbook.equal b b')
      | Error e -> Alcotest.failf "%s: %s" path e)
    Drillbook.catalog

(* [of_string] is total: whatever the input, it returns [Ok] or
   [Error] and raises nothing. Inputs are arbitrary bytes, a catalog
   book's rendering cut at any point, and a rendering with 1-3 bytes
   replaced by characters the grammar gives meaning to. *)
let arbitrary_drill_text =
  let books = List.map Drillbook.to_sexp Drillbook.catalog in
  let meaningful = List.of_seq (String.to_seq "()0123456789-. abcdefghijklmnopqrstuvwxyz\"") in
  let open QCheck.Gen in
  let truncated =
    oneofl books >>= fun s -> int_bound (String.length s) >|= String.sub s 0
  in
  let substituted =
    oneofl books >>= fun s ->
    list_size (int_range 1 3) (pair (int_bound (String.length s - 1)) (oneofl meaningful))
    >|= fun subs ->
    let b = Bytes.of_string s in
    List.iter (fun (i, c) -> Bytes.set b i c) subs;
    Bytes.to_string b
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    (oneof [ string_size (int_bound 80); truncated; substituted ])

let prop_of_string_total =
  QCheck.Test.make ~name:"of_string never raises" ~count:3000 arbitrary_drill_text
    (fun s -> match Drillbook.of_string s with Ok _ | Error _ -> true)

let test_malformed_drill_files () =
  let expect_error s =
    match Drillbook.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parsed malformed input %S" s
  in
  expect_error "garbage";
  expect_error "(drill";
  expect_error "(drill (name x))";
  expect_error
    "(drill (name x) (seed 1) (kind (no-such-kind)) (slo (detection 1) \
     (reconverge 8) (blackhole 4) (stale 0.5) (hijacked 0)))";
  (* out-of-range field values fail the builder's validation, not
     silently produce a drill *)
  expect_error
    "(drill (name x) (seed 1) (ticks 5) (fault (at 3) (until 9)) (kind \
     (depeer (stub-rank 0))) (slo (detection 1) (reconverge 8) (blackhole 4) \
     (stale 0.5) (hijacked 0)))";
  (* NaN passes every [<]/[>] range check and inf every lower bound, so
     a catalog book with one field made non-finite must be refused *)
  let b = Drillbook.prefix_hijack in
  let slo = b.Drillbook.slo in
  let flap = Drillbook.flapping_provider in
  List.iter
    (fun b -> expect_error (Drillbook.to_sexp b))
    [
      { b with Drillbook.slo = { slo with Drillbook.max_detection = nan } };
      { b with Drillbook.slo = { slo with Drillbook.max_stale = nan } };
      { b with Drillbook.loss = nan };
      { b with Drillbook.jitter = infinity };
      { b with Drillbook.fault_at = nan };
      { b with Drillbook.fault_until = nan };
      { b with Drillbook.detection_delay = nan };
      {
        flap with
        Drillbook.kind =
          Drillbook.Provider_flap
            { stub_rank = 0; cycles = 2; period = infinity; down_for = 1.0 };
      };
      {
        flap with
        Drillbook.kind =
          Drillbook.Provider_flap
            { stub_rank = 0; cycles = 2; period = 2.0; down_for = nan };
      };
    ]

(* --- drill replay --------------------------------------------------- *)

let runs =
  List.map
    (fun b -> (b, lazy (Drill.complete ~params:small_params b)))
    Drillbook.catalog

let run_of name =
  match
    List.find_opt (fun (b, _) -> String.equal b.Drillbook.name name) runs
  with
  | Some (b, r) -> (b, Lazy.force r)
  | None -> Alcotest.failf "no catalog drill %s" name

let test_replay_is_deterministic () =
  (* the whole point of a drillbook: same book, same seed, same bytes *)
  List.iter
    (fun (b, r) ->
      let again = Drill.complete ~params:small_params b in
      check Alcotest.string
        (b.Drillbook.name ^ " transcript replays byte-identical")
        (Drill.transcript (Lazy.force r))
        (Drill.transcript again))
    runs

let test_rows_shape () =
  List.iter
    (fun (b, r) ->
      let rows = Drill.rows (Lazy.force r) in
      check Alcotest.int
        (b.Drillbook.name ^ " has one row per tick")
        b.Drillbook.ticks (List.length rows);
      List.iter
        (fun (row : Drill.tick_row) ->
          check (Alcotest.float 1e-9)
            (Printf.sprintf "%s tick %d fractions sum to 1"
               b.Drillbook.name row.Drill.tick)
            1.0
            (row.Drill.ok +. row.Drill.stale +. row.Drill.hijacked
           +. row.Drill.lost +. row.Drill.looped))
        rows)
    runs

let phase_rank = function
  | "steady" -> 0
  | "fault" -> 1
  | "healing" -> 2
  | "recovered" -> 3
  | p -> Alcotest.failf "unknown phase %S" p

let test_phases_monotone () =
  List.iter
    (fun (b, r) ->
      let rec mono = function
        | (a : Drill.tick_row) :: (b' :: _ as rest) ->
            phase_rank a.Drill.phase <= phase_rank b'.Drill.phase
            && mono rest
        | _ -> true
      in
      check Alcotest.bool
        (b.Drillbook.name ^ " phases never move backwards")
        true
        (mono (Drill.rows (Lazy.force r))))
    runs

let test_every_drill_detects () =
  List.iter
    (fun (b, r) ->
      match Drill.detected_at (Lazy.force r) with
      | Some t ->
          check Alcotest.bool
            (b.Drillbook.name ^ " detects after onset")
            true
            (t >= b.Drillbook.fault_at)
      | None -> Alcotest.failf "%s: never detected" b.Drillbook.name)
    runs

let test_catalog_slos_hold () =
  (* the headline robustness claim: every catalog drill recovers
     within its declared budgets *)
  List.iter
    (fun (b, r) ->
      let v = Slo.evaluate (Lazy.force r) in
      if not v.Slo.pass then
        Alcotest.failf "%s misses its SLOs:\n%s" b.Drillbook.name
          (String.concat "\n" v.Slo.failures))
    runs

let test_nan_budget_fails () =
  (* the slo record is public, so a record update can hand [evaluate] a
     budget that [Drillbook.slo] refuses; it must grade as a miss, and
     the rendered headline must agree with the rendered lines *)
  let b = Drillbook.prefix_hijack in
  let b =
    {
      b with
      Drillbook.slo = { b.Drillbook.slo with Drillbook.max_detection = nan };
    }
  in
  let r = Drill.complete ~params:small_params b in
  let v = Slo.evaluate r in
  Drill.close r;
  check Alcotest.bool "verdict fails" false v.Slo.pass;
  check Alcotest.int "one miss" 1 (List.length v.Slo.failures);
  match String.split_on_char '\n' (Slo.render b v) with
  | headline :: lines ->
      check Alcotest.string "headline" "SLO verdict for prefix-hijack: FAIL"
        headline;
      let missed =
        List.filter (fun l -> String.ends_with ~suffix:"MISS" l) lines
      in
      check Alcotest.int "lines agree with the verdict" 1 (List.length missed);
      check Alcotest.bool "the detection line misses" true
        (String.starts_with ~prefix:"  detection " (List.hd missed))
  | [] -> Alcotest.fail "empty render"

let test_no_recovery_is_graded_worse_or_equal () =
  (* switching the playbook off can never improve the blackhole
     accounting — the operator's actions must matter non-negatively *)
  let b = Drillbook.provider_depeer in
  let hands_off = { b with Drillbook.recovery = false } in
  let with_pb = Slo.measure (snd (run_of b.Drillbook.name)) in
  let without = Slo.measure (Drill.complete ~params:small_params hands_off) in
  check Alcotest.bool "recovery does not add blackhole seconds" true
    (with_pb.Slo.blackhole_s <= without.Slo.blackhole_s +. 1e-9)

let test_transcript_prints_clamped_counts () =
  (* [prepare] clamps a book's deploy and probe counts to the stubs and
     endhosts the internet has, and [~params] replaces the book's
     topology (4 transit x 6 stubs) with 3 x 4; the header prints the
     counts that ran *)
  let b =
    {
      Drillbook.prefix_hijack with
      Drillbook.deploy_domains = 999;
      probes = 99999;
    }
  in
  let r = Drill.prepare ~params:small_params b in
  let inet = Drill.internet r in
  let stubs =
    Array.fold_left
      (fun n d -> if d.Internet.is_transit then n else n + 1)
      0 inet.Internet.domains
  in
  let hosts = Array.length inet.Internet.endhosts in
  let header = List.nth (String.split_on_char '\n' (Drill.transcript r)) 1 in
  Drill.close r;
  check Alcotest.int "every stub deployed" stubs (List.length (Drill.deployed r));
  let expected =
    Printf.sprintf
      "  topology: %d transit x %d stubs; deploy %d domain(s); %d probes over %d ticks"
      small_params.Internet.transit_domains small_params.Internet.stubs_per_transit stubs
      hosts b.Drillbook.ticks
  in
  check Alcotest.string "the header's counts" expected header

(* --- looking glass -------------------------------------------------- *)

let test_glass_parse () =
  let ok words =
    match Glass.parse words with
    | Ok q -> q
    | Error e -> Alcotest.failf "parse %s: %s" (String.concat " " words) e
  in
  (match ok [ "route"; "3"; "240.0.8.9" ] with
  | Glass.Route { domain = 3; _ } -> ()
  | _ -> Alcotest.fail "route query shape");
  (match ok [ "health" ] with
  | Glass.Health -> ()
  | _ -> Alcotest.fail "health query shape");
  let err words =
    match Glass.parse words with
    | Error e -> e
    | Ok _ -> Alcotest.failf "parsed %s" (String.concat " " words)
  in
  check Alcotest.bool "empty input points at the query list" true
    (String.length (err []) > 0);
  check Alcotest.bool "bad integer is named" true
    (String.length (err [ "rib"; "many" ]) > 0)

let glass_queries =
  [ "health"; "tunnels"; "rib 0"; "sessions 0"; "fib 0"; "route 0 240.0.8.9" ]

let test_glass_output_stable () =
  (* the stability contract (DESIGN.md section 12.3): fixed book,
     params and time means byte-identical answers — across repeated
     renders and across independently prepared runs *)
  let b = Drillbook.prefix_hijack in
  let mid r =
    Drill.run_until r ~time:5.5;
    List.map
      (fun q ->
        match Glass.parse (String.split_on_char ' ' q) with
        | Ok query -> Glass.render r query
        | Error e -> Alcotest.failf "parse %s: %s" q e)
      glass_queries
  in
  let first = mid (Drill.prepare ~params:small_params b) in
  let second = mid (Drill.prepare ~params:small_params b) in
  List.iter2
    (fun a b' -> check Alcotest.string "stable across runs" a b')
    first second

let test_glass_out_of_range () =
  let _, r = run_of "regional-blackout" in
  let out = Glass.render r (Glass.Rib { domain = 999 }) in
  check Alcotest.bool "out-of-range domain is a one-line error" true
    (String.length out > 0
    && not (String.contains out '\n')
    && String.length out >= 5);
  let out = Glass.render r (Glass.Fib_table { router = -1 }) in
  check Alcotest.bool "out-of-range router is a one-line error" true
    (not (String.contains out '\n'))

let () =
  Alcotest.run "ops"
    [
      ( "drillbook",
        [
          Alcotest.test_case "slo validation" `Quick test_slo_validation;
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "with_intensity" `Quick test_with_intensity;
          Alcotest.test_case "sexp round-trip" `Quick test_sexp_roundtrip;
          Alcotest.test_case "example files match catalog" `Quick
            test_example_files_match_catalog;
          Alcotest.test_case "malformed files rejected" `Quick
            test_malformed_drill_files;
          QCheck_alcotest.to_alcotest prop_of_string_total;
        ] );
      ( "drill",
        [
          Alcotest.test_case "replay is deterministic" `Slow
            test_replay_is_deterministic;
          Alcotest.test_case "rows shape" `Slow test_rows_shape;
          Alcotest.test_case "phases monotone" `Slow test_phases_monotone;
          Alcotest.test_case "every drill detects" `Slow
            test_every_drill_detects;
          Alcotest.test_case "catalog SLOs hold" `Slow test_catalog_slos_hold;
          Alcotest.test_case "NaN budget fails" `Slow test_nan_budget_fails;
          Alcotest.test_case "transcript prints clamped counts" `Quick
            test_transcript_prints_clamped_counts;
          Alcotest.test_case "recovery never hurts" `Slow
            test_no_recovery_is_graded_worse_or_equal;
        ] );
      ( "glass",
        [
          Alcotest.test_case "parse" `Quick test_glass_parse;
          Alcotest.test_case "output stable" `Slow test_glass_output_stable;
          Alcotest.test_case "out of range" `Slow test_glass_out_of_range;
        ] );
    ]
