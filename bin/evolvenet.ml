(* evolvenet: command-line front end for the scenarios and experiments.

   `evolvenet fig 1`     — replay a paper figure
   `evolvenet exp e3`    — run one experiment table
   `evolvenet all`       — run every figure and experiment
   `evolvenet demo`      — narrated end-to-end quickstart *)

open Cmdliner

(* a bad operand is a usage error: say so on stderr and exit 2, like
   the malformed-flag path (cmdliner's cli_error, remapped in main) *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "evolvenet: %s\n" msg;
      exit 2)
    fmt

let run_fig n =
  match n with
  | 1 -> Format.printf "%a" Evolve.Scenario.pp_fig1 (Evolve.Scenario.fig1 ())
  | 2 -> Format.printf "%a" Evolve.Scenario.pp_fig2 (Evolve.Scenario.fig2 ())
  | 3 -> Format.printf "%a" Evolve.Scenario.pp_fig3 (Evolve.Scenario.fig3 ())
  | 4 -> Format.printf "%a" Evolve.Scenario.pp_fig4 (Evolve.Scenario.fig4 ())
  | _ -> usage_error "no such figure: %d\nusage: evolvenet fig <1-4>" n

let params_of ~seed ~transit ~stubs =
  let base = Topology.Internet.default_params in
  {
    base with
    Topology.Internet.seed = Int64.of_int seed;
    transit_domains = transit;
    stubs_per_transit = stubs;
  }

module E = Evolve.Experiments

let show (e : E.entry) params =
  Evolve.Table.print ~title:(E.heading e) ~header:e.E.header
    ~rows:(e.E.run params)

let run_exp name seed transit stubs =
  match String.lowercase_ascii name with
  | "list" ->
      List.iter
        (fun (e : E.entry) -> Printf.printf "%-5s %s\n" e.E.id e.E.title)
        E.registry
  | id -> (
      (* Internet.build needs a transit and a stub per transit *)
      let at_least_one flag n =
        if n < 1 then usage_error "%s must be at least 1 (got %d)" flag n
      in
      at_least_one "--transit" transit;
      at_least_one "--stubs" stubs;
      match List.find_opt (fun (e : E.entry) -> e.E.id = id) E.registry with
      | Some e -> show e (params_of ~seed ~transit ~stubs)
      | None ->
          usage_error
            "no such experiment: %s\nusage: evolvenet exp <e1-e%d>; run \
             `evolvenet exp list` for one-line descriptions"
            name (List.length E.registry))

let default_seed = Int64.to_int Topology.Internet.default_params.Topology.Internet.seed
let default_transit = Topology.Internet.default_params.Topology.Internet.transit_domains
let default_stubs = Topology.Internet.default_params.Topology.Internet.stubs_per_transit

let run_all () =
  List.iter run_fig [ 1; 2; 3; 4 ];
  List.iter
    (fun e -> show e Topology.Internet.default_params)
    E.registry

let run_demo () =
  let module Setup = Evolve.Setup in
  let module Service = Anycast.Service in
  let module Transport = Vnbone.Transport in
  print_endline "Building a random transit-stub internet...";
  let setup =
    Setup.create ~version:8 ~strategy:Anycast.Service.Option1 ()
  in
  let inet = Setup.internet setup in
  Printf.printf "  %d domains, %d routers, %d endhosts\n"
    (Topology.Internet.num_domains inet)
    (Topology.Internet.num_routers inet)
    (Array.length inet.Topology.Internet.endhosts);
  print_endline "Deploying IPv8 in two stub domains...";
  Setup.deploy setup ~domain:5;
  Setup.deploy setup ~domain:9;
  let service = Setup.service setup in
  Printf.printf "  participants: %s; %d IPv8 routers\n"
    (String.concat ", "
       (List.map string_of_int (Service.participants service)))
    (List.length (Service.members service));
  print_endline "Sending an IPv8 packet between endhosts 0 and 50...";
  let j = Setup.send setup ~strategy:Vnbone.Router.Bgp_aware ~src:0 ~dst:50 () in
  Printf.printf "  delivered: %b; hops: %d (of which %d on the vN-Bone)\n"
    (Transport.delivered j) (Transport.total_hops j) (Transport.vn_hops j)

let run_dot what =
  let setup =
    Evolve.Setup.create ~version:8 ~strategy:Anycast.Service.Option1 ()
  in
  List.iter (fun d -> Evolve.Setup.deploy setup ~domain:d) [ 5; 9; 14 ];
  match String.lowercase_ascii what with
  | "domains" -> print_string (Evolve.Dot.domain_graph (Evolve.Setup.internet setup))
  | "routers" -> print_string (Evolve.Dot.router_graph (Evolve.Setup.internet setup))
  | "fabric" -> print_string (Evolve.Dot.fabric (Evolve.Setup.fabric setup))
  | other ->
      usage_error "no such graph: %s\nusage: evolvenet dot <domains|routers|fabric>"
        other

let parse_strategy s =
  match String.lowercase_ascii s with
  | "option1" -> Ok Anycast.Service.Option1
  | "option2" -> Ok (Anycast.Service.Option2 { default_domain = 0 })
  | s when String.length s > 4 && String.sub s 0 4 = "gia:" -> (
      match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
      | Some r when r >= 0 ->
          Ok (Anycast.Service.Gia { home_domain = 0; radius = r })
      | _ -> Error "GIA radius must be a non-negative integer")
  | _ -> Error "strategy must be option1, option2 or gia:<radius>"

let parse_egress s =
  match String.lowercase_ascii s with
  | "early" -> Ok Vnbone.Router.Exit_early
  | "aware" -> Ok Vnbone.Router.Bgp_aware
  | "proxy" -> Ok Vnbone.Router.Proxy
  | "host" -> Ok Vnbone.Router.Host_advertised
  | _ -> Error "egress must be early, aware, proxy or host"

let run_sim strategy_s deploy_s src dst egress_s seed verbose =
  match (parse_strategy strategy_s, parse_egress egress_s) with
  | Error e, _ | _, Error e -> usage_error "%s" e
  | Ok strategy, Ok egress -> (
      let params =
        { Topology.Internet.default_params with
          Topology.Internet.seed = Int64.of_int seed }
      in
      let setup = Evolve.Setup.create ~params ~version:8 ~strategy () in
      let inet = Evolve.Setup.internet setup in
      let num_domains = Topology.Internet.num_domains inet in
      let domains =
        List.map
          (fun tok ->
            match int_of_string_opt (String.trim tok) with
            | Some d when d >= 0 && d < num_domains -> d
            | _ ->
                usage_error "--deploy: %S is not a domain id in [0, %d)" tok
                  num_domains)
          (String.split_on_char ',' deploy_s)
      in
      List.iter (fun d -> Evolve.Setup.deploy setup ~domain:d) domains;
      let hn = Array.length inet.Topology.Internet.endhosts in
      if src < 0 || src >= hn || dst < 0 || dst >= hn || src = dst then
        usage_error "endhosts must be distinct ids in [0, %d)" hn
      else begin
        (* register the destination when the host-advertised strategy
           is requested, as the paper's scheme requires *)
        (if egress = Vnbone.Router.Host_advertised then
           ignore
             (Vnbone.Router.register_endhost (Evolve.Setup.router setup)
                ~endhost:dst));
        let j = Evolve.Setup.send setup ~strategy:egress ~src ~dst () in
        let module T = Vnbone.Transport in
        Printf.printf "strategy %s, deployed domains %s\n" strategy_s
          (String.concat "," (List.map string_of_int domains));
        Printf.printf "endhost %d (domain %d) -> endhost %d (domain %d)\n" src
          (Topology.Internet.endhost inet src).Topology.Internet.hdomain dst
          (Topology.Internet.endhost inet dst).Topology.Internet.hdomain;
        Printf.printf "delivered: %b\n" (T.delivered j);
        (match (j.T.ingress, j.T.egress) with
        | Some i, Some e ->
            Printf.printf "ingress router %d (domain %d); egress router %d (domain %d)\n"
              i (Topology.Internet.router inet i).Topology.Internet.rdomain
              e (Topology.Internet.router inet e).Topology.Internet.rdomain
        | _ -> ());
        Printf.printf "hops: %d total = %d access + %d vN-Bone + %d exit\n"
          (T.total_hops j) (T.access_hops j) (T.vn_hops j) (T.exit_hops j);
        if verbose then Format.printf "%a" (T.pp_journey inet) j
      end)

(* --- incident drills and the looking glass ------------------------- *)

let load_book name file =
  match (name, file) with
  | Some _, Some _ -> usage_error "give --name or --file, not both"
  | Some n, None -> (
      match Ops.Drillbook.find n with
      | Some b -> b
      | None ->
          usage_error "no such drill: %s (catalog: %s)" n
            (String.concat ", "
               (List.map
                  (fun b -> b.Ops.Drillbook.name)
                  Ops.Drillbook.catalog)))
  | None, Some f -> (
      match Ops.Drillbook.load f with
      | Ok b -> b
      | Error e -> usage_error "%s" e)
  | None, None ->
      usage_error
        "give --name <drill> or --file <file>; --list shows the catalog"

let run_drill list_flag report name file =
  if list_flag then
    List.iter
      (fun b ->
        Printf.printf "%-20s %-13s %s\n" b.Ops.Drillbook.name
          (Ops.Drillbook.kind_label b.Ops.Drillbook.kind)
          (Printf.sprintf "%d ticks, fault [%g, %g]" b.Ops.Drillbook.ticks
             b.Ops.Drillbook.fault_at b.Ops.Drillbook.fault_until))
      Ops.Drillbook.catalog
  else begin
    let book = load_book name file in
    let r = Ops.Drill.complete book in
    print_string (Ops.Drill.transcript r);
    if report then begin
      (* where every lost packet went: droptail at a full queue,
         deliberate per-class shedding, or the fault fabrics *)
      let d = Ops.Drill.drop_reasons r in
      print_string "drop reasons:\n";
      Printf.printf "  queue-full     %d\n" d.Ops.Drill.queue_full;
      Printf.printf "  shed (native)  %d\n" d.Ops.Drill.shed_native;
      Printf.printf "  shed (encap)   %d\n" d.Ops.Drill.shed_encap;
      Printf.printf "  shed (control) %d\n" d.Ops.Drill.shed_control;
      Printf.printf "  fault-fabric   %d\n" d.Ops.Drill.fabric
    end;
    let v = Ops.Slo.evaluate r in
    print_string (Ops.Slo.render book v);
    Ops.Drill.close r;
    (* the exit status is the verdict, so CI can run a drill file
       end-to-end and assert its SLOs in one line *)
    if not v.Ops.Slo.pass then exit 1
  end

let drill_name =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "name" ] ~docv:"DRILL" ~doc:"Run the catalog drill $(docv).")

let drill_file =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~docv:"FILE"
        ~doc:"Run the drill described by the s-expression file $(docv).")

let drill_cmd =
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List the built-in drill catalog.")
  in
  let report_flag =
    Arg.(
      value & flag
      & info [ "report" ]
          ~doc:
            "Append the drop-reason breakdown (queue-full vs per-class sheds \
             vs fault-fabric losses).")
  in
  Cmd.v
    (Cmd.info "drill"
       ~doc:
         "Replay an incident drill and grade its recovery SLOs (exit 1 on a \
          missed SLO)")
    Term.(const run_drill $ list_flag $ report_flag $ drill_name $ drill_file)

let run_glass name file at query_words =
  let book = load_book name file in
  match Ops.Glass.parse query_words with
  | Error e -> usage_error "%s" e
  | Ok q ->
      let r = Ops.Drill.prepare book in
      let time =
        match at with
        | Some t -> t
        | None -> float_of_int book.Ops.Drillbook.ticks +. 1.0
      in
      Ops.Drill.run_until r ~time;
      print_endline (Ops.Glass.render r q)

let glass_cmd =
  let at =
    Arg.(
      value
      & opt (some float) None
      & info [ "at" ] ~docv:"T"
          ~doc:
            "Advance the drill to engine time $(docv) before answering (default: \
             the end of the drill).")
  in
  let query_words =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"QUERY")
  in
  Cmd.v
    (Cmd.info "glass"
       ~doc:
         "Looking glass: query a drill's live protocol state (route, rib, \
          fib, tunnels, sessions, health)")
    Term.(const run_glass $ drill_name $ drill_file $ at $ query_words)

let sim_cmd =
  let strategy =
    Arg.(value & opt string "option1" & info [ "strategy" ] ~docv:"S"
           ~doc:"Anycast strategy: option1, option2 or gia:<radius>.")
  in
  let deploy =
    Arg.(value & opt string "5,9,14" & info [ "deploy" ] ~docv:"D,D,..."
           ~doc:"Comma-separated domains that deploy IPv8.")
  in
  let src = Arg.(value & opt int 0 & info [ "src" ] ~docv:"H") in
  let dst = Arg.(value & opt int 50 & info [ "dst" ] ~docv:"H") in
  let egress =
    Arg.(value & opt string "aware" & info [ "egress" ] ~docv:"E"
           ~doc:"Egress strategy: early, aware, proxy or host.")
  in
  let seed = Arg.(value & opt int default_seed & info [ "seed" ] ~docv:"SEED") in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the leg-by-leg trace.")
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Send one IPv8 journey through a custom deployment")
    Term.(const run_sim $ strategy $ deploy $ src $ dst $ egress $ seed $ verbose)

let fig_cmd =
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  Cmd.v (Cmd.info "fig" ~doc:"Replay paper figure N (1-4)")
    Term.(const run_fig $ n)

let exp_cmd =
  let exp_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXP")
  in
  let seed =
    Arg.(value & opt int default_seed & info [ "seed" ] ~docv:"SEED"
           ~doc:
             "Topology seed for experiments built on a random internet. \
              e6, e8, e13, e15, e18, e21, e23 and e25 fix their own \
              topologies or seeds and ignore it, as they ignore $(b,--transit) \
              and $(b,--stubs); e34 and e35 keep their drill books' seeds.")
  in
  let transit =
    Arg.(value & opt int default_transit & info [ "transit" ] ~docv:"N"
           ~doc:"Number of transit (tier-1) domains.")
  in
  let stubs =
    Arg.(value & opt int default_stubs & info [ "stubs" ] ~docv:"N"
           ~doc:"Stub domains per transit.")
  in
  Cmd.v
    (Cmd.info "exp"
       ~doc:
         (Printf.sprintf "Run experiment EXP (e1-e%d, or `list`)"
            (List.length E.registry)))
    Term.(const run_exp $ exp_name $ seed $ transit $ stubs)

let run_report path =
  match Evolve.Report.write ~path with
  | () -> Printf.printf "wrote %s\n" path
  | exception Sys_error e -> usage_error "cannot write %s: %s" path e

let report_cmd =
  let path =
    Arg.(value & opt string "RESULTS.md" & info [ "o"; "output" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run every figure and experiment and write a markdown report")
    Term.(const run_report $ path)

let dot_cmd =
  let what =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"GRAPH")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Emit a GraphViz graph (domains, routers, or fabric) on stdout")
    Term.(const run_dot $ what)

let all_cmd =
  Cmd.v (Cmd.info "all" ~doc:"Run every figure and experiment")
    Term.(const run_all $ const ())

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Narrated end-to-end quickstart")
    Term.(const run_demo $ const ())

let () =
  let info =
    Cmd.info "evolvenet" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Towards an Evolvable Internet Architecture' \
         (SIGCOMM 2005)"
  in
  let code =
    Cmd.eval
      (Cmd.group info
         [
           fig_cmd;
           exp_cmd;
           all_cmd;
           demo_cmd;
           dot_cmd;
           report_cmd;
           sim_cmd;
           drill_cmd;
           glass_cmd;
         ])
  in
  (* malformed flags and unknown subcommands (cmdliner prints the usage
     to stderr) exit 2 like our own operand errors, not 124 *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
