(* The full reproduction harness.

   Part 1 regenerates every figure and experiment table of the paper
   (see DESIGN.md section 3 for the index and EXPERIMENTS.md for the
   recorded results).

   Part 2 runs Bechamel microbenchmarks of the core operations — one
   Test.make per operation — so substrate performance regressions are
   visible. *)

module Scenario = Evolve.Scenario
module E = Evolve.Experiments
module Internet = Topology.Internet
module Forward = Simcore.Forward
module Service = Anycast.Service
module Fabric = Vnbone.Fabric
module Router = Vnbone.Router
module Transport = Vnbone.Transport
module Lpm = Netcore.Lpm
module Prefix = Netcore.Prefix
module Ipv4 = Netcore.Ipv4
module Spt = Routing.Spt
module Bgp = Interdomain.Bgp
module Fib = Simcore.Fib
module Pump = Dataplane.Pump
module Workload = Dataplane.Workload
module Flowcache = Dataplane.Flowcache

let section title =
  print_newline ();
  print_endline ("==== " ^ title ^ " ====");
  print_newline ()

let figures () =
  section "Paper figures (scenario replays)";
  print_endline "Figure 1: seamless spread of deployment";
  Format.printf "%a@." Scenario.pp_fig1 (Scenario.fig1 ());
  print_endline "Figure 2: Option 2 anycast with default routes";
  Format.printf "%a@." Scenario.pp_fig2 (Scenario.fig2 ());
  print_endline "Figure 3: egress selection with BGPv(N-1) import";
  Format.printf "%a@." Scenario.pp_fig3 (Scenario.fig3 ());
  print_endline "Figure 4: advertising-by-proxy";
  Format.printf "%a@." Scenario.pp_fig4 (Scenario.fig4 ())

let experiments () =
  section "Experiments";
  List.iter
    (fun (e : E.entry) ->
      Evolve.Table.print ~title:(E.heading e) ~header:e.E.header
        ~rows:(e.E.run Internet.default_params))
    E.registry

(* ------------------------------------------------------------------ *)
(* Microbenchmarks                                                     *)

open Bechamel
open Toolkit

let bench_lpm_lookup () =
  let rng = Topology.Rng.create 1L in
  let table =
    Lpm.of_list
      (List.init 1000 (fun i ->
           ( Prefix.make
               (Ipv4.of_int (Topology.Rng.int rng 0x3FFFFFFF * 4))
               (8 + Topology.Rng.int rng 17),
             i )))
  in
  let probes = Array.init 64 (fun _ -> Ipv4.of_int (Topology.Rng.int rng 0xFFFFFFF)) in
  let i = ref 0 in
  Test.make ~name:"lpm-lookup (1k prefixes)"
    (Staged.stage (fun () ->
         incr i;
         ignore (Lpm.lookup probes.(!i land 63) table)))

let bench_dijkstra () =
  let inet = Internet.build Internet.default_params in
  let i = ref 0 in
  let n = Internet.num_routers inet in
  Test.make ~name:"dijkstra (full router graph)"
    (Staged.stage (fun () ->
         i := (!i + 37) mod n;
         ignore (Spt.dijkstra inet.Internet.graph ~src:!i)))

let bench_bgp_convergence () =
  let inet = Internet.build Internet.default_params in
  Test.make ~name:"bgp full convergence (28 domains)"
    (Staged.stage (fun () ->
         let bgp = Bgp.create inet in
         Bgp.originate_all_domain_prefixes bgp;
         ignore (Bgp.converge bgp)))

let anycast_fixture =
  lazy
    (let inet = Internet.build Internet.default_params in
     let env = Forward.make_env inet in
     let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
     List.iter
       (fun d ->
         Service.add_participant service ~domain:d
           ~routers:(Array.to_list (Internet.domain inet d).Internet.router_ids))
       [ 5; 9; 14 ];
     service)

let bench_anycast_resolution () =
  let service = Lazy.force anycast_fixture in
  let inet = (Service.env service).Forward.inet in
  let hn = Array.length inet.Internet.endhosts in
  let i = ref 0 in
  Test.make ~name:"anycast resolution (endhost probe)"
    (Staged.stage (fun () ->
         i := (!i + 7) mod hn;
         ignore (Service.resolve_from_endhost service ~endhost:!i)))

let bench_fabric_build () =
  let service = Lazy.force anycast_fixture in
  Test.make ~name:"vn-bone construction (3 domains)"
    (Staged.stage (fun () -> ignore (Fabric.build service)))

let bench_journey () =
  let service = Lazy.force anycast_fixture in
  let router = Router.create (Fabric.build service) in
  let inet = (Service.env service).Forward.inet in
  let hn = Array.length inet.Internet.endhosts in
  let i = ref 0 in
  Test.make ~name:"end-to-end IPvN journey"
    (Staged.stage (fun () ->
         i := (!i + 11) mod (hn - 1);
         ignore
           (Transport.send router ~strategy:Router.Bgp_aware ~src:!i ~dst:(!i + 1)
              ~payload:"bench")))

let bench_internet_build () =
  Test.make ~name:"internet generation (28 domains)"
    (Staged.stage (fun () -> ignore (Internet.build Internet.default_params)))

let bench_bgpvn () =
  let service = Lazy.force anycast_fixture in
  let fabric = Fabric.build service in
  Test.make ~name:"bgpvn convergence (3 domains)"
    (Staged.stage (fun () ->
         let s = Vnbone.Bgpvn.create fabric in
         ignore (Vnbone.Bgpvn.converge s)))

let bench_lsa_flood () =
  let inet = Internet.build Internet.default_params in
  Test.make ~name:"lsa flood (domain of 12 routers)"
    (Staged.stage (fun () ->
         let proto = Simcore.Lsproto.create inet ~domain:0 in
         let engine = Simcore.Engine.create () in
         Simcore.Lsproto.start proto engine;
         ignore (Simcore.Engine.run engine)))

let lossy_everywhere p ~src:_ ~dst:_ = Simcore.Faults.lossy p

let bench_faults_send () =
  let faults = Simcore.Faults.create ~policy:(lossy_everywhere 0.2) 42L in
  let engine = Simcore.Engine.create () in
  Test.make ~name:"fault fabric send+deliver (loss 0.2)"
    (Staged.stage (fun () ->
         ignore
           (Simcore.Faults.send faults engine ~src:0 ~dst:1 ~delay:1.0
              (fun _ -> ()));
         ignore (Simcore.Engine.run engine)))

let bench_faulty_flood () =
  let inet = Internet.build Internet.default_params in
  Test.make ~name:"lsa flood under loss 0.2 (acked, domain of 12)"
    (Staged.stage (fun () ->
         let faults = Simcore.Faults.create ~policy:(lossy_everywhere 0.2) 42L in
         let proto = Simcore.Lsproto.create ~faults inet ~domain:0 in
         let engine = Simcore.Engine.create () in
         Simcore.Lsproto.start proto engine;
         ignore (Simcore.Engine.run engine)))

let bench_bgp_async_boot () =
  let inet = Internet.build Internet.default_params in
  Test.make ~name:"async bgp bootstrap (28 domains)"
    (Staged.stage (fun () ->
         let dyn = Simcore.Bgpdyn.create inet in
         let engine = Simcore.Engine.create () in
         Simcore.Bgpdyn.originate_all_domain_prefixes dyn engine;
         ignore (Simcore.Engine.run engine)))

(* --- data-plane traffic engine ------------------------------------- *)

(* The E21 "large internet" (12 transits x 6 stubs): big enough that an
   uncached longest-prefix walk visibly costs more than a direct-mapped
   cache hit. *)
let dataplane_fixture =
  lazy
    (let params =
       {
         Internet.default_params with
         Internet.transit_domains = 12;
         stubs_per_transit = 6;
       }
     in
     let inet = Internet.build params in
     let env = Forward.make_env inet in
     let pump = Pump.create ~cache_slots:4096 env in
     let uncached = Pump.create ~cache_slots:0 env in
     let fib = Fib.compile env in
     let wl =
       Workload.create ~packets_per_flow:16 inet
         (Workload.Gravity { zipf_s = 1.2 })
         ~seed:7L
     in
     let flows = Array.of_list (Workload.batch wl ~count:256) in
     (inet, pump, uncached, fib, flows))

let flow_dst inet (flows : Workload.flow array) i =
  let n = Array.length flows in
  (Internet.endhost inet flows.(i land (n - 1)).Workload.dst).Internet.haddr

let bench_fib_lookup_uncached () =
  let inet, _, _, fib, flows = Lazy.force dataplane_fixture in
  let table = Fib.table fib ~router:0 in
  let i = ref 0 in
  Test.make ~name:"fib lookup, lpm (large internet)"
    (Staged.stage (fun () ->
         incr i;
         ignore (Lpm.lookup_value (flow_dst inet flows !i) table)))

let bench_fib_lookup_cached () =
  let inet, _, _, fib, flows = Lazy.force dataplane_fixture in
  let table = Fib.table fib ~router:0 in
  let cache = Flowcache.create ~slots:4096 in
  let i = ref 0 in
  Test.make ~name:"fib lookup, flow cache (large internet)"
    (Staged.stage (fun () ->
         incr i;
         ignore
           (Flowcache.find cache (flow_dst inet flows !i)
              ~compute:(fun a -> Lpm.lookup_value a table))))

let bench_pump_send pump name =
  let inet, _, _, _, flows = Lazy.force dataplane_fixture in
  ignore inet;
  let n = Array.length flows in
  let i = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         incr i;
         let f = flows.(!i land (n - 1)) in
         ignore
           (Pump.send_data pump ~src:f.Workload.src ~dst:f.Workload.dst
              ~payload:"x")))

let bench_pump_cached () =
  let _, pump, _, _, _ = Lazy.force dataplane_fixture in
  bench_pump_send pump "pump send, flow cache (large internet)"

let bench_pump_uncached () =
  let _, _, uncached, _, _ = Lazy.force dataplane_fixture in
  bench_pump_send uncached "pump send, lpm only (large internet)"

let measure_tests tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.fold
        (fun name ols_result acc ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> x
            | _ -> nan
          in
          (name, ns) :: acc)
        analyzed []
      |> List.rev)
    tests

let run_benchmarks () =
  section "Microbenchmarks (Bechamel)";
  let rows =
    measure_tests
      [
        bench_lpm_lookup ();
        bench_dijkstra ();
        bench_bgp_convergence ();
        bench_anycast_resolution ();
        bench_fabric_build ();
        bench_journey ();
        bench_internet_build ();
        bench_bgpvn ();
        bench_lsa_flood ();
        bench_bgp_async_boot ();
        bench_faults_send ();
        bench_faulty_flood ();
        bench_fib_lookup_uncached ();
        bench_fib_lookup_cached ();
        bench_pump_uncached ();
        bench_pump_cached ();
      ]
  in
  Evolve.Table.print ~title:"core operation costs"
    ~header:[ "operation"; "ns/run" ]
    ~rows:
      (List.map (fun (name, ns) -> [ name; Printf.sprintf "%.0f" ns ]) rows)

let () =
  figures ();
  experiments ();
  run_benchmarks ()
