(* Tests for the evolve framework: orchestration, adoption dynamics,
   revenue accounting, table rendering. *)

module Internet = Topology.Internet
module Service = Anycast.Service
module Setup = Evolve.Setup
module Adoption = Evolve.Adoption
module Revenue = Evolve.Revenue
module Table = Evolve.Table
module Transport = Vnbone.Transport
module Router = Vnbone.Router

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)

let test_setup_end_to_end () =
  let setup = Setup.create ~version:8 ~strategy:Service.Option1 () in
  Setup.deploy setup ~domain:5;
  Setup.deploy setup ~domain:9;
  check Alcotest.(list int) "participants" [ 5; 9 ]
    (Service.participants (Setup.service setup));
  let j = Setup.send setup ~strategy:Router.Bgp_aware ~src:0 ~dst:50 () in
  check Alcotest.bool "delivered" true (Transport.delivered j)

let test_setup_fraction_deploy () =
  let setup = Setup.create ~version:8 ~strategy:Service.Option1 () in
  let inet = Setup.internet setup in
  let n = Array.length (Internet.domain inet 5).Internet.router_ids in
  Setup.deploy ~fraction:0.5 setup ~domain:5;
  let members = Service.members (Setup.service setup) in
  check Alcotest.int "half the routers" ((n + 1) / 2) (List.length members);
  Alcotest.check_raises "fraction range"
    (Invalid_argument "Setup.deploy: fraction outside (0, 1]") (fun () ->
      Setup.deploy ~fraction:0.0 setup ~domain:6)

let test_setup_router_cache_invalidation () =
  let setup = Setup.create ~version:8 ~strategy:Service.Option1 () in
  Setup.deploy setup ~domain:5;
  let f1 = Router.fabric (Setup.router setup) in
  let f1' = Router.fabric (Setup.router setup) in
  check Alcotest.bool "cached between deployments" true (f1 == f1');
  Setup.deploy setup ~domain:9;
  let f2 = Router.fabric (Setup.router setup) in
  check Alcotest.bool "rebuilt after deploy" false (f1 == f2);
  check Alcotest.int "new fabric covers both domains"
    (List.length (Service.members (Setup.service setup)))
    (Array.length (Vnbone.Fabric.members f2))

let test_setup_payload_preserved () =
  let setup = Setup.create ~version:8 ~strategy:Service.Option1 () in
  Setup.deploy setup ~domain:7;
  let j =
    Setup.send setup ~strategy:Router.Proxy ~src:3 ~dst:44
      ~payload:"the-actual-bytes" ()
  in
  check Alcotest.bool "delivered" true (Transport.delivered j);
  check Alcotest.string "payload rides the journey" "the-actual-bytes"
    j.Transport.packet.Netcore.Packet.body;
  check Alcotest.int "packet tagged with the generation" 8
    j.Transport.packet.Netcore.Packet.version

let test_setup_undeploy () =
  let setup = Setup.create ~version:8 ~strategy:Service.Option1 () in
  Setup.deploy setup ~domain:5;
  Setup.deploy setup ~domain:9;
  Setup.undeploy setup ~domain:5;
  check Alcotest.(list int) "one left" [ 9 ]
    (Service.participants (Setup.service setup))

let test_setup_gia_on_preferential_attachment () =
  (* cross-feature coverage: GIA anycast over a heavy-tailed internet *)
  let inet = Internet.build_ba Internet.default_ba_params in
  let setup =
    Setup.of_internet inet ~version:8
      ~strategy:(Service.Gia { home_domain = 0; radius = 1 })
  in
  List.iter (fun d -> Setup.deploy setup ~domain:d) [ 0; 12; 25 ];
  let service = Setup.service setup in
  check (Alcotest.float 1e-9) "universal delivery" 1.0
    (Anycast.Metrics.delivery_rate service);
  (* journeys work across the heavy-tailed graph too *)
  let j = Setup.send setup ~strategy:Router.Proxy ~src:1 ~dst:100 () in
  check Alcotest.bool "journey delivered" true (Transport.delivered j)

let test_setup_mixed_igp_fib_agreement () =
  (* compiled FIBs must match on-the-fly decisions in DV domains too *)
  let inet = Internet.build Internet.default_params in
  let env =
    Simcore.Forward.make_env
      ~flavor_of:(fun d ->
        if d mod 3 = 0 then Routing.Igp.Distvec_igp else Routing.Igp.Linkstate_igp)
      inet
  in
  let fib = Simcore.Fib.compile env in
  let rng = Topology.Rng.create 77L in
  let samples =
    List.init 200 (fun _ ->
        let entry = Topology.Rng.int rng (Internet.num_routers inet) in
        let h =
          Topology.Rng.int rng (Array.length inet.Internet.endhosts)
        in
        (entry, (Internet.endhost inet h).Internet.haddr))
  in
  match Simcore.Fib.agrees_with_decide fib env ~samples with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Adoption                                                            *)

let test_adoption_deterministic () =
  let a = Adoption.run Adoption.default_params in
  let b = Adoption.run Adoption.default_params in
  check Alcotest.bool "same trajectory" true (a = b)

let test_adoption_point_count () =
  let p = { Adoption.default_params with Adoption.steps = 42 } in
  check Alcotest.int "steps+1 points" 43 (List.length (Adoption.run p))

let test_adoption_ua_tips_gated_stalls () =
  let run ua =
    Adoption.run { Adoption.default_params with Adoption.universal_access = ua }
  in
  let ua = run true and gated = run false in
  check Alcotest.bool "UA tips" true (Adoption.tipped ua);
  check Alcotest.bool "gated never tips" false (Adoption.tipped gated);
  check Alcotest.bool "gated apps stay dark" true
    ((Adoption.final gated).Adoption.app_fraction < 0.05);
  check Alcotest.bool "UA time-to-tip defined" true
    (Adoption.time_to_tip ua <> None)

let test_adoption_monotone_fractions () =
  let points = Adoption.run Adoption.default_params in
  let rec monotone = function
    | a :: (b : Adoption.point) :: rest ->
        a.Adoption.isp_fraction <= b.Adoption.isp_fraction
        && a.Adoption.app_fraction <= b.Adoption.app_fraction
        && monotone (b :: rest)
    | _ -> true
  in
  check Alcotest.bool "adoption never reverses" true (monotone points)

let test_adoption_reachability_semantics () =
  let points =
    Adoption.run { Adoption.default_params with Adoption.universal_access = true }
  in
  List.iter
    (fun (pt : Adoption.point) ->
      (* with UA, one deployer makes everyone reachable *)
      if pt.Adoption.isp_fraction > 0.0 then
        check (Alcotest.float 1e-9) "UA reach" 1.0 pt.Adoption.reachable_users)
    points;
  let gated =
    Adoption.run { Adoption.default_params with Adoption.universal_access = false }
  in
  List.iter
    (fun (pt : Adoption.point) ->
      check (Alcotest.float 1e-9) "gated reach = deployer share"
        pt.Adoption.deployer_user_share pt.Adoption.reachable_users)
    gated

let prop_adoption_ua_dominates =
  QCheck.Test.make ~name:"UA final adoption >= gated (any seed)" ~count:20
    QCheck.(int_bound 100000)
    (fun seed ->
      let base = { Adoption.default_params with Adoption.seed = Int64.of_int seed } in
      let final ua =
        (Adoption.final (Adoption.run { base with Adoption.universal_access = ua }))
          .Adoption.isp_fraction
      in
      final true >= final false)

(* ------------------------------------------------------------------ *)
(* Revenue                                                             *)

let test_revenue_deployers_attract_traffic () =
  let setup = Setup.create ~version:8 ~strategy:Service.Option1 () in
  Setup.deploy setup ~domain:5;
  Setup.deploy setup ~domain:9;
  let inet = Setup.internet setup in
  let pairs = Revenue.random_pairs inet ~seed:3L ~count:60 in
  let report =
    Revenue.traffic_report (Setup.router setup) ~strategy:Router.Bgp_aware ~pairs
  in
  check Alcotest.int "attempted" 60 report.Revenue.attempted;
  check Alcotest.bool "mostly delivered" true
    (report.Revenue.delivered > 50);
  check Alcotest.(list int) "deployers recorded" [ 5; 9 ] report.Revenue.deployers;
  (* assumption A4 made visible: deployers carry more IPvN traffic *)
  check Alcotest.bool "deployers out-earn non-deployers" true
    (report.Revenue.deployer_mean > report.Revenue.non_deployer_mean)

let test_revenue_pairs_are_valid () =
  let inet = Internet.build Internet.default_params in
  let pairs = Revenue.random_pairs inet ~seed:1L ~count:100 in
  check Alcotest.int "count" 100 (List.length pairs);
  let hn = Array.length inet.Internet.endhosts in
  List.iter
    (fun (s, d) ->
      check Alcotest.bool "distinct" true (s <> d);
      check Alcotest.bool "in range" true (s >= 0 && s < hn && d >= 0 && d < hn))
    pairs

(* ------------------------------------------------------------------ *)
(* Traffic                                                             *)

module Traffic = Evolve.Traffic

let test_traffic_populations_normalized () =
  let inet = Internet.build Internet.default_params in
  List.iter
    (fun model ->
      let t = Traffic.create inet model ~seed:1L in
      let total =
        List.fold_left
          (fun acc d -> acc +. Traffic.population t d)
          0.0
          (List.init (Internet.num_domains inet) Fun.id)
      in
      check (Alcotest.float 1e-9) "sums to 1" 1.0 total)
    [ Traffic.Uniform; Traffic.Gravity { zipf_s = 1.0 } ]

let test_traffic_gravity_skews () =
  let inet = Internet.build Internet.default_params in
  let g = Traffic.create inet (Traffic.Gravity { zipf_s = 1.0 }) ~seed:1L in
  check Alcotest.bool "zipf head heavier than tail" true
    (Traffic.population g 0 > Traffic.population g (Internet.num_domains inet - 1));
  (* sampled flows reflect the skew: domain 0 endpoints appear more
     often than under the uniform model *)
  let share_of_domain t =
    let flows = Traffic.sample_flows t ~count:400 in
    let hits =
      List.length
        (List.filter
           (fun (s, d) ->
             (Internet.endhost inet s).Internet.hdomain = 0
             || (Internet.endhost inet d).Internet.hdomain = 0)
           flows)
    in
    float_of_int hits
  in
  let u = Traffic.create inet Traffic.Uniform ~seed:2L in
  check Alcotest.bool "gravity oversamples the head domain" true
    (share_of_domain g > share_of_domain u)

let test_traffic_flows_valid () =
  let inet = Internet.build Internet.default_params in
  let t = Traffic.create inet (Traffic.Gravity { zipf_s = 1.2 }) ~seed:3L in
  let flows = Traffic.sample_flows t ~count:200 in
  check Alcotest.int "count" 200 (List.length flows);
  let hn = Array.length inet.Internet.endhosts in
  List.iter
    (fun (s, d) ->
      check Alcotest.bool "distinct" true (s <> d);
      check Alcotest.bool "in range" true (s >= 0 && s < hn && d >= 0 && d < hn))
    flows

let test_e16_attraction_premium () =
  let rows = Evolve.Experiments.e16_revenue_gravity ~flows:80 () in
  List.iter
    (fun (r : Evolve.Experiments.e16_row) ->
      check Alcotest.bool ("premium > 1: " ^ r.Evolve.Experiments.picker) true
        (r.Evolve.Experiments.attraction_premium > 1.0))
    rows

(* ------------------------------------------------------------------ *)
(* Dot                                                                 *)

module Dot = Evolve.Dot

let count_substring needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub haystack i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_dot_domain_graph () =
  let inet = Internet.build Internet.default_params in
  let dot = Dot.domain_graph inet in
  check Alcotest.bool "graph header" true
    (String.length dot > 10 && String.sub dot 0 7 = "graph G");
  check Alcotest.int "one node per domain" (Internet.num_domains inet)
    (count_substring "[label=\"AS" dot);
  check Alcotest.int "one edge per interlink"
    (List.length inet.Internet.interlinks)
    (count_substring " -- " dot);
  check Alcotest.int "balanced braces" (count_substring "{" dot)
    (count_substring "}" dot)

let test_dot_write_file_roundtrip () =
  let path = Filename.temp_file "evolvenet" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let contents = Dot.domain_graph (Internet.build Internet.default_params) in
      Dot.write_file ~path contents;
      let ic = open_in path in
      let n = in_channel_length ic in
      let read = really_input_string ic n in
      close_in ic;
      check Alcotest.bool "file holds the rendering" true (read = contents))

let test_dot_fabric_highlights_members () =
  let setup = Setup.create ~version:8 ~strategy:Service.Option1 () in
  Setup.deploy setup ~domain:5;
  Setup.deploy setup ~domain:9;
  let dot = Dot.fabric (Setup.fabric setup) in
  let members = List.length (Service.members (Setup.service setup)) in
  check Alcotest.int "members highlighted" members
    (count_substring "fillcolor=gold" dot);
  check Alcotest.bool "tunnels drawn" true (count_substring "color=blue" dot > 0)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

module Stats = Evolve.Stats

let test_stats_summary () =
  let s = Stats.summarize [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check Alcotest.int "n" 8 s.Stats.n;
  check (Alcotest.float 1e-9) "mean" 5.0 s.Stats.mean;
  check (Alcotest.float 1e-6) "sample stddev" 2.138089935 s.Stats.stddev;
  (* ci95 = t(7) * s / sqrt(8) = 2.365 * 2.138 / 2.828 *)
  check (Alcotest.float 1e-3) "ci95" 1.7878 s.Stats.ci95

let test_stats_edge_cases () =
  let empty = Stats.summarize [] in
  check Alcotest.bool "empty is nan" true (Float.is_nan empty.Stats.mean);
  let single = Stats.summarize [ 42.0 ] in
  check (Alcotest.float 1e-9) "singleton mean" 42.0 single.Stats.mean;
  check (Alcotest.float 1e-9) "singleton ci" 0.0 single.Stats.ci95;
  check Alcotest.string "render" "42.00 +/- 0.00" (Stats.to_string single)

let test_stats_t_table () =
  check (Alcotest.float 1e-3) "df=1" 12.706 (Stats.t_critical_95 1);
  check (Alcotest.float 1e-3) "df=10" 2.228 (Stats.t_critical_95 10);
  check (Alcotest.float 1e-3) "df large" 1.96 (Stats.t_critical_95 1000)

let prop_stats_ci_shrinks =
  QCheck.Test.make ~name:"ci narrows as n grows (same spread)" ~count:50
    QCheck.(int_range 3 20)
    (fun n ->
      let sample k = List.init k (fun i -> float_of_int (i mod 3)) in
      let a = Stats.summarize (sample n) in
      let b = Stats.summarize (sample (4 * n)) in
      b.Stats.ci95 <= a.Stats.ci95 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Engine-driven continuity (the live_evolution example, asserted)     *)

let test_staged_rollout_is_continuous () =
  let setup = Setup.create ~version:8 ~strategy:Service.Option1 () in
  let service = Setup.service setup in
  let engine = Simcore.Engine.create () in
  let horizon = 200.0 in
  let rng = Topology.Rng.create 99L in
  let inet = Setup.internet setup in
  for d = 0 to Internet.num_domains inet - 1 do
    Simcore.Engine.schedule engine
      ~delay:(Topology.Rng.float rng horizon)
      (fun _ -> Setup.deploy setup ~domain:d)
  done;
  let drops = ref 0 and first = ref None and last = ref None in
  let rec probe engine =
    let t = Simcore.Engine.now engine in
    (if List.length (Service.participants service) > 0 then
       match Anycast.Metrics.actual service ~endhost:5 with
       | Some (_, metric) ->
           if !first = None then first := Some metric;
           last := Some metric
       | None -> incr drops);
    if t +. 2.0 <= horizon then Simcore.Engine.schedule engine ~delay:2.0 probe
  in
  Simcore.Engine.schedule engine ~delay:1.0 probe;
  ignore (Simcore.Engine.run engine);
  check Alcotest.int "no outage during rollout" 0 !drops;
  match (!first, !last) with
  | Some f, Some l ->
      check Alcotest.bool "redirection improved or held" true (l <= f +. 1e-9)
  | _ -> Alcotest.fail "no successful probes"

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

let test_report_deterministic_and_complete () =
  (* byte-identical across reruns; E33 inside the report sweeps the
     pool over 1/2/4/8 shards and prints only order-independent
     fields (DESIGN.md §11.4) *)
  let a = Evolve.Report.generate () in
  let b = Evolve.Report.generate () in
  check Alcotest.bool "deterministic" true (a = b);
  (* the committed RESULTS.md is the artifact readers check: it must be
     what the code generates (resolved relative to this executable,
     like the drill files in test_ops) *)
  let committed =
    let path =
      Filename.concat
        (Filename.dirname Sys.executable_name)
        (Filename.concat ".." "RESULTS.md")
    in
    let ic = open_in_bin path in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    body
  in
  check Alcotest.bool "RESULTS.md is current (evolvenet report -o RESULTS.md)"
    true (String.equal a committed);
  List.iter
    (fun needle ->
      check Alcotest.bool ("contains " ^ needle) true
        (let nl = String.length needle and hl = String.length a in
         let rec go i =
           i + nl <= hl && (String.sub a i nl = needle || go (i + 1))
         in
         go 0))
    [ "Figure 1"; "Figure 4"; "E1 "; "E23 "; "E33 "; "advertise-by-proxy" ]

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_table_render () =
  let out =
    Table.render ~header:[ "a"; "long-column" ]
      ~rows:[ [ "xxxx"; "1" ]; [ "y"; "2" ] ]
  in
  let lines = String.split_on_char '\n' out in
  check Alcotest.int "header+rule+rows" 4
    (List.length (List.filter (fun l -> l <> "") lines));
  (* all non-rule lines align on the second column *)
  (match lines with
  | header :: _rule :: row :: _ ->
      let col s = String.index s (if s = header then 'l' else '1') in
      check Alcotest.int "aligned columns" (String.index header 'l') (col row)
  | _ -> Alcotest.fail "unexpected shape")

(* Table.print's underline counts UTF-8 code points, not bytes: an em
   dash (3 bytes) gets one '=' *)
let test_table_print_underline () =
  let title = "E14 \xE2\x80\x94 proxy-metric ablation" in
  let tmp = Filename.temp_file "evolve_table" ".out" in
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    (fun () -> Table.print ~title ~header:[ "alpha" ] ~rows:[ [ "0.00" ] ]);
  let ic = open_in_bin tmp in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  match String.split_on_char '\n' out with
  | t :: underline :: _ ->
      check Alcotest.string "title" title t;
      check Alcotest.int "one '=' per code point" 27 (String.length underline);
      check Alcotest.bool "only '='" true
        (String.for_all (fun c -> c = '=') underline)
  | _ -> Alcotest.fail "no underline"

let test_table_formatting () =
  check Alcotest.string "ff" "1.25" (Table.ff 1.25);
  check Alcotest.string "ff nan" "-" (Table.ff nan);
  check Alcotest.string "ff inf" "inf" (Table.ff infinity);
  check Alcotest.string "fpct" "50.0%" (Table.fpct 0.5);
  check Alcotest.string "fi" "42" (Table.fi 42);
  check Alcotest.string "fb" "true" (Table.fb true)

let () =
  Alcotest.run "evolve"
    [
      ( "setup",
        [
          Alcotest.test_case "end to end" `Quick test_setup_end_to_end;
          Alcotest.test_case "fractional deployment" `Quick test_setup_fraction_deploy;
          Alcotest.test_case "router cache invalidation" `Quick
            test_setup_router_cache_invalidation;
          Alcotest.test_case "undeploy" `Quick test_setup_undeploy;
          Alcotest.test_case "payload preserved" `Quick test_setup_payload_preserved;
          Alcotest.test_case "GIA on preferential attachment" `Quick
            test_setup_gia_on_preferential_attachment;
          Alcotest.test_case "mixed-IGP FIB agreement" `Quick
            test_setup_mixed_igp_fib_agreement;
        ] );
      ( "adoption",
        [
          Alcotest.test_case "deterministic" `Quick test_adoption_deterministic;
          Alcotest.test_case "point count" `Quick test_adoption_point_count;
          Alcotest.test_case "UA tips, gated stalls" `Quick
            test_adoption_ua_tips_gated_stalls;
          Alcotest.test_case "monotone adoption" `Quick test_adoption_monotone_fractions;
          Alcotest.test_case "reachability semantics" `Quick
            test_adoption_reachability_semantics;
          qcheck prop_adoption_ua_dominates;
        ] );
      ( "revenue",
        [
          Alcotest.test_case "deployers attract traffic" `Quick
            test_revenue_deployers_attract_traffic;
          Alcotest.test_case "pair sampling" `Quick test_revenue_pairs_are_valid;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "normalized populations" `Quick
            test_traffic_populations_normalized;
          Alcotest.test_case "gravity skews sampling" `Quick test_traffic_gravity_skews;
          Alcotest.test_case "valid flows" `Quick test_traffic_flows_valid;
          Alcotest.test_case "attraction premium (E16)" `Quick
            test_e16_attraction_premium;
        ] );
      ( "dot",
        [
          Alcotest.test_case "domain graph" `Quick test_dot_domain_graph;
          Alcotest.test_case "write_file roundtrip" `Quick test_dot_write_file_roundtrip;
          Alcotest.test_case "fabric highlights members" `Quick
            test_dot_fabric_highlights_members;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "edge cases" `Quick test_stats_edge_cases;
          Alcotest.test_case "t table" `Quick test_stats_t_table;
          qcheck prop_stats_ci_shrinks;
        ] );
      ( "dynamics",
        [
          Alcotest.test_case "staged rollout continuity" `Quick
            test_staged_rollout_is_continuous;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formatting" `Quick test_table_formatting;
          Alcotest.test_case "print underline" `Quick test_table_print_underline;
        ] );
      ( "report",
        [
          Alcotest.test_case "deterministic and complete" `Slow
            test_report_deterministic_and_complete;
        ] );
    ]
