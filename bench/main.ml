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
module Domainpool = Multicore.Domainpool

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
  section "Experiments (E1-E32)";
  E.print_e1 (E.e1_deployment_sweep ());
  E.print_e2 (E.e2_default_route_sweep ());
  E.print_e3 (E.e3_egress_comparison ());
  E.print_e4 (E.e3_egress_comparison ~deploy_fraction:0.15 ~pairs:80 ());
  E.print_e5 (E.e5_state_scaling ());
  E.print_e6 (E.e6_adoption ());
  E.print_e7 (E.e7_robustness ());
  E.print_e8 (E.e8_convergence ());
  E.print_e9 (E.e9_host_advertised ());
  E.print_e10 (E.e10_discovery_ablation ());
  E.print_e11 (E.e11_congruence ());
  E.print_e12 (E.e12_gia_sweep ());
  E.print_e13 (E.e13_seed_stability ());
  E.print_e14 (E.e14_proxy_alpha ());
  E.print_e15 (E.e15_viability_sweep ());
  E.print_e16 (E.e16_revenue_gravity ());
  E.print_e17 (E.e17_bgpvn_scaling ());
  E.print_e18 (E.e18_flooding_cost ());
  E.print_e19 (E.e19_mrai_sweep ());
  E.print_e20 (E.e20_anycast_resilience ());
  E.print_e21 (E.e21_size_scaling ());
  E.print_e22 (E.e22_fib_scaling ());
  E.print_e23 (E.e23_topology_robustness ());
  E.print_e24 (E.e24_flow_stability ());
  E.print_e25 (E.e25_coalition_sweep ());
  E.print_e26 (E.e26_encapsulation_overhead ());
  E.print_e27 (E.e27_mixed_igp ());
  E.print_e28 (E.e28_path_hunting ());
  E.print_e29 (E.e29_dataplane_cost ());
  E.print_e30 (E.e30_churn_traffic ());
  E.print_e31 (E.e31_fault_convergence ());
  E.print_e32 (E.e32_flap_traffic ());
  E.print_e33 (E.e33_shard_invariance ());
  E.print_e34 (E.e34_drill_catalog ());
  E.print_e35 (E.e35_hijack_containment ());
  E.print_e36 (E.e36_overload_response ());
  E.print_e37 (E.e37_crash_recovery ())

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
     let uncached = Pump.create ~use_cache:false env in
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

(* --- machine-readable bench output (--json) ------------------------- *)

(* The Bechamel harness above carries a few microseconds of per-run
   overhead (visible on every row of the table), which is fine for the
   relative-cost display but swamps the ~30-200 ns lookup operations
   whose ratio the JSON exists to record. For those we time a plain
   calibrated loop instead. *)
let time_ns ~warmup ~iters f =
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int iters

(* BENCH_*.json are CI artifacts diffed across runs: a truncated or
   non-finite document is worse than a missing one. Every float goes
   through [num], which refuses NaN/inf where it is formatted (so a
   name that merely contains "inf" is fine); the writer renders the
   whole document before [emit_json] writes it to a temp path and
   renames it, so a crash mid-write can never leave a partial file
   behind — and any failure exits nonzero instead of letting the bench
   report success. *)
exception Non_finite of float

let num decimals x =
  if Float.is_finite x then Printf.sprintf "%.*f" decimals x
  else raise (Non_finite x)

let emit_json path json =
  let tmp = path ^ ".tmp" in
  (try
     let oc = open_out tmp in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () -> output_string oc json);
     Sys.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     Printf.eprintf "failed to write %s: %s\n%!" path (Printexc.to_string e);
     exit 1);
  Printf.printf "wrote %s\n%s" path json

let write_bench_json path =
  let inet, pump, uncached, fib, flows = Lazy.force dataplane_fixture in
  let table = Fib.table fib ~router:0 in
  let n = Array.length flows in
  let dsts = Array.map (fun f -> (Internet.endhost inet f.Workload.dst).Internet.haddr) flows in
  let cache = Flowcache.create ~slots:4096 in
  let i = ref 0 in
  let next_dst () =
    incr i;
    dsts.(!i land (n - 1))
  in
  let ns_lpm =
    time_ns ~warmup:10_000 ~iters:200_000 (fun () ->
        Lpm.lookup_value (next_dst ()) table)
  in
  let ns_cached =
    time_ns ~warmup:10_000 ~iters:200_000 (fun () ->
        Flowcache.find cache (next_dst ())
          ~compute:(fun a -> Lpm.lookup_value a table))
  in
  let send p () =
    incr i;
    let f = flows.(!i land (n - 1)) in
    Pump.send_data p ~src:f.Workload.src ~dst:f.Workload.dst ~payload:"x"
  in
  let ns_send_lpm = time_ns ~warmup:1_000 ~iters:20_000 (send uncached) in
  let ns_send = time_ns ~warmup:1_000 ~iters:20_000 (send pump) in
  let json =
    Printf.sprintf
      "{\n\
      \  \"topology\": \"e21-large-internet (12 transits x 6 stubs)\",\n\
      \  \"packets_per_sec\": %s,\n\
      \  \"cache_hit_rate\": %s,\n\
      \  \"ns_per_lookup_uncached\": %s,\n\
      \  \"ns_per_lookup_cached\": %s,\n\
      \  \"lookup_speedup\": %s,\n\
      \  \"ns_per_packet_uncached\": %s,\n\
      \  \"ns_per_packet_cached\": %s\n\
       }\n"
      (num 0 (1e9 /. ns_send))
      (num 4 (Pump.cache_hit_rate pump))
      (num 1 ns_lpm) (num 1 ns_cached)
      (num 2 (ns_lpm /. ns_cached))
      (num 1 ns_send_lpm) (num 1 ns_send)
  in
  emit_json path json

(* The robustness machinery's cost sheet: raw fabric throughput plus
   what loss-hardened convergence costs each protocol (messages, the
   ack/retransmit and keepalive/reset overhead, wall time). *)
let write_faults_json path =
  let faults = Simcore.Faults.create ~policy:(lossy_everywhere 0.2) 42L in
  let engine = Simcore.Engine.create () in
  let ns_send =
    time_ns ~warmup:10_000 ~iters:200_000 (fun () ->
        ignore
          (Simcore.Faults.send faults engine ~src:0 ~dst:1 ~delay:1.0
             (fun _ -> ()));
        Simcore.Engine.run engine)
  in
  let inet = Internet.build Internet.default_params in
  let ls_loss = 0.2 in
  let t0 = Unix.gettimeofday () in
  let lsf = Simcore.Faults.create ~policy:(lossy_everywhere ls_loss) 43L in
  let proto = Simcore.Lsproto.create ~faults:lsf inet ~domain:0 in
  let eng = Simcore.Engine.create () in
  Simcore.Lsproto.start proto eng;
  ignore (Simcore.Engine.run eng);
  let ls_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let ls = Simcore.Lsproto.stats proto in
  let bgp_loss = 0.2 in
  let t0 = Unix.gettimeofday () in
  let bf =
    Simcore.Faults.create ~policy:(lossy_everywhere bgp_loss) ~fifo:true 44L
  in
  let dyn = Simcore.Bgpdyn.create ~faults:bf inet in
  let eng = Simcore.Engine.create () in
  Simcore.Bgpdyn.originate_all_domain_prefixes dyn eng;
  (* without hold timers a lost update means reset + full replay, and
     under permanent loss the replays keep losing messages — so, as in
     E31 and the tests, the injection window must close for the run to
     quiesce; the number reported is boot-through-loss to convergence *)
  Simcore.Engine.schedule_at eng ~time:30.0 (fun _ ->
      Simcore.Faults.set_policy bf (fun ~src:_ ~dst:_ ->
          Simcore.Faults.reliable));
  ignore (Simcore.Engine.run eng);
  let bgp_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let bgp = Simcore.Bgpdyn.stats dyn in
  let json =
    Printf.sprintf
      "{\n\
      \  \"ns_per_fault_send\": %s,\n\
      \  \"ls_loss\": %s,\n\
      \  \"ls_messages\": %d,\n\
      \  \"ls_acks\": %d,\n\
      \  \"ls_retransmits\": %d,\n\
      \  \"ls_flood_ms\": %s,\n\
      \  \"bgp_loss\": %s,\n\
      \  \"bgp_updates\": %d,\n\
      \  \"bgp_resets\": %d,\n\
      \  \"bgp_boot_ms\": %s\n\
       }\n"
      (num 1 ns_send) (num 2 ls_loss) ls.Simcore.Lsproto.messages
      ls.Simcore.Lsproto.acks ls.Simcore.Lsproto.retransmits (num 1 ls_ms)
      (num 2 bgp_loss) bgp.Simcore.Bgpdyn.updates bgp.Simcore.Bgpdyn.resets
      (num 1 bgp_ms)
  in
  emit_json path json

(* The evolvelint cost sheet: what the repo gate costs per run — the
   untyped Parsetree pass, the typed pass (call graph + rule packs),
   the interprocedural effect fixpoint alone, and the arena-bounds
   prover alone — plus the finding counts, so CI can watch both the
   gate's latency and its signal. *)
let write_lint_json path =
  let module L = Lintcore.Lint in
  let module T = Lintcore.Typed in
  let root = if Sys.file_exists "tools/lint/allowlist" then "." else ".." in
  let ms f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    ((Unix.gettimeofday () -. t0) *. 1e3, v)
  in
  let untyped_ms, untyped =
    ms (fun () ->
        L.run_untyped ~root
          ~allow:(L.Allowlist.load (Filename.concat root "tools/lint/allowlist")))
  in
  let tree = T.load_tree ~root in
  let typed_ms, typed_diags =
    ms (fun () -> L.typed_pass ~decls:tree.T.tdecls tree.T.tmods)
  in
  let fixpoint_ms, sums =
    ms (fun () -> Lintcore.Summary.compute (Lintcore.Callgraph.build tree.T.tmods))
  in
  let bounds_ms, (bounds_sites, _) =
    let cg = Lintcore.Callgraph.build tree.T.tmods in
    ms (fun () -> Lintcore.Rules_bounds.analyze ~roots:L.bounds_roots cg)
  in
  let bounds_proven =
    List.length
      (List.filter
         (fun s -> s.Lintcore.Rules_bounds.sp_proven)
         bounds_sites)
  in
  let bindings = Hashtbl.length sums.Lintcore.Summary.full in
  let findings =
    L.run ~root
      ~allow:(L.Allowlist.load (Filename.concat root "tools/lint/allowlist"))
      ~baseline:(L.Allowlist.load (Filename.concat root "tools/lint/baseline"))
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"untyped_ms\": %s,\n\
      \  \"typed_ms\": %s,\n\
      \  \"fixpoint_ms\": %s,\n\
      \  \"bounds_ms\": %s,\n\
      \  \"bindings\": %d,\n\
      \  \"bounds_sites\": %d,\n\
      \  \"bounds_proven\": %d,\n\
      \  \"untyped_findings\": %d,\n\
      \  \"typed_findings_raw\": %d,\n\
      \  \"findings\": %d\n\
       }\n"
      (num 1 untyped_ms) (num 1 typed_ms) (num 1 fixpoint_ms) (num 1 bounds_ms)
      bindings
      (List.length bounds_sites) bounds_proven (List.length untyped)
      (List.length typed_diags) (List.length findings)
  in
  emit_json path json


(* The sharded data plane's headline: packets/sec as the domain pool
   widens, against the serial pump on the identical batch. One-byte
   payloads and the e21 gravity workload, matching the
   BENCH_dataplane.json baseline; best-of-5 runs because a loaded CI
   box jitters far more than the pool does. The pool walks flowlets
   (DESIGN.md §11), which is where the single-worker speedup over the
   per-packet pump comes from; extra domains then scale the walk until
   the core count caps them. *)
let write_shard_json path =
  let inet, _, _, _, _ = Lazy.force dataplane_fixture in
  let env = Forward.make_env inet in
  let wl =
    Workload.create ~packets_per_flow:16 inet
      (Workload.Gravity { zipf_s = 1.2 })
      ~seed:7L
  in
  let flows =
    List.map
      (fun (f : Workload.flow) -> { f with Workload.bytes_per_packet = 1 })
      (Workload.batch wl ~count:16384)
  in
  let npackets =
    List.fold_left (fun a (f : Workload.flow) -> a + f.Workload.packets) 0 flows
  in
  let best_of n run =
    run ();
    (* warm: fill caches, fault in the arena *)
    let best = ref infinity in
    for _ = 1 to n do
      let t0 = Unix.gettimeofday () in
      run ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    float_of_int npackets /. !best
  in
  let pool_pps shards =
    let pool =
      Domainpool.create ~cache_slots:4096 ~ring_capacity:65536 env ~shards
        ~seed:7L
    in
    let pps = best_of 5 (fun () -> Domainpool.run pool flows) in
    Domainpool.close pool;
    pps
  in
  let p1 = pool_pps 1 in
  let p2 = pool_pps 2 in
  let p4 = pool_pps 4 in
  let p8 = pool_pps 8 in
  let pump = Pump.create ~cache_slots:4096 env in
  let baseline = best_of 3 (fun () -> Pump.run_batch pump flows) in
  let json =
    Printf.sprintf
      "{\n\
      \  \"topology\": \"e21-large-internet (12 transits x 6 stubs)\",\n\
      \  \"mode\": \"flowlet-batched domain pool vs per-packet serial pump\",\n\
      \  \"packets_per_batch\": %d,\n\
      \  \"baseline_pump_pps\": %s,\n\
      \  \"pps_domains_1\": %s,\n\
      \  \"pps_domains_2\": %s,\n\
      \  \"pps_domains_4\": %s,\n\
      \  \"pps_domains_8\": %s,\n\
      \  \"speedup_domains_4\": %s\n\
       }\n"
      npackets (num 0 baseline) (num 0 p1) (num 0 p2) (num 0 p4) (num 0 p8)
      (num 2 (p4 /. baseline))
  in
  emit_json path json

(* The incident-drill scorecard: each catalog drill's recovery metrics
   and SLO verdict, plus the per-tick delivery and cumulative
   blackhole-seconds trajectories CI diffs across runs (the drills are
   deterministic, so any drift is a behaviour change). *)
let write_drills_json path =
  let fopt = function
    | None -> "null"
    | Some f -> num 4 f
  in
  let drill_obj b =
    let r = Ops.Drill.complete b in
    let v = Ops.Slo.evaluate r in
    let m = v.Ops.Slo.metrics in
    let rows = Ops.Drill.rows r in
    Ops.Drill.close r;
    let ok_traj =
      String.concat ", "
        (List.map
           (fun (row : Ops.Drill.tick_row) ->
             num 4 row.Ops.Drill.ok)
           rows)
    in
    let blackhole_traj =
      let acc = ref 0.0 in
      String.concat ", "
        (List.map
           (fun (row : Ops.Drill.tick_row) ->
             acc := !acc +. row.Ops.Drill.lost;
             num 4 !acc)
           rows)
    in
    Printf.sprintf
      "    {\n\
      \      \"name\": \"%s\",\n\
      \      \"pass\": %b,\n\
      \      \"detection_s\": %s,\n\
      \      \"reconverge_s\": %s,\n\
      \      \"blackhole_s\": %s,\n\
      \      \"stale_frac\": %s,\n\
      \      \"hijacked_peak\": %s,\n\
      \      \"ok_trajectory\": [%s],\n\
      \      \"blackhole_cumulative_s\": [%s]\n\
      \    }"
      b.Ops.Drillbook.name v.Ops.Slo.pass
      (fopt m.Ops.Slo.detection_s)
      (fopt m.Ops.Slo.reconverge_s)
      (num 4 m.Ops.Slo.blackhole_s) (num 4 m.Ops.Slo.stale_frac)
      (num 4 m.Ops.Slo.hijacked_peak)
      ok_traj blackhole_traj
  in
  let json =
    Printf.sprintf "{\n  \"drills\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" (List.map drill_obj Ops.Drillbook.catalog))
  in
  emit_json path json

(* The overload scorecard (DESIGN.md §13): the E36 goodput-vs-load
   curve through the finite link queues, the two overload drills'
   drop-reason breakdown, and what a supervised shard restart costs in
   wall time — detection (a millisecond-scale poll), respawn, and the
   victim's cold flow caches. *)
let write_overload_json path =
  let curve =
    String.concat ",\n"
      (List.map
         (fun (r : E.e36_row) ->
           Printf.sprintf
             "    { \"load\": %d, \"offered\": %d, \"goodput\": %d, \
              \"goodput_frac\": %s, \"shed_frac\": %s, \"queue_drop\": \
              %d, \"ctrl_ok\": %s, \"mean_delay_ticks\": %s }"
             r.E.load36 r.E.offered36 r.E.goodput36 (num 4 r.E.goodput_frac36)
             (num 4
                (float_of_int r.E.shed36 /. float_of_int (max 1 r.E.offered36)))
             r.E.qdrop36 (num 4 r.E.ctrl_ok36) (num 4 r.E.delay36))
         (E.e36_overload_response ()))
  in
  let drills =
    String.concat ",\n"
      (List.map
         (fun b ->
           let r = Ops.Drill.complete b in
           let d = Ops.Drill.drop_reasons r in
           Ops.Drill.close r;
           Printf.sprintf
             "    { \"name\": \"%s\", \"queue_full\": %d, \"shed_native\": \
              %d, \"shed_encap\": %d, \"shed_control\": %d, \
              \"fault_fabric\": %d }"
             b.Ops.Drillbook.name d.Ops.Drill.queue_full d.Ops.Drill.shed_native
             d.Ops.Drill.shed_encap d.Ops.Drill.shed_control d.Ops.Drill.fabric)
         [ Ops.Drillbook.flash_crowd; Ops.Drillbook.slow_consumer ])
  in
  let inet, _, _, _, _ = Lazy.force dataplane_fixture in
  let env = Forward.make_env inet in
  let wl =
    Workload.create ~packets_per_flow:16 inet
      (Workload.Gravity { zipf_s = 1.2 })
      ~seed:7L
  in
  let flows = Workload.batch wl ~count:4096 in
  let run_ms ~crash =
    let pool =
      Domainpool.create ~cache_slots:4096 ~ring_capacity:65536 env ~shards:4
        ~seed:7L
    in
    Domainpool.run pool flows;
    (* warm *)
    let best = ref infinity in
    for _ = 1 to 5 do
      if crash then
        Multicore.Shard.arm_crash (Domainpool.shard pool 1) ~after:256;
      let t0 = Unix.gettimeofday () in
      Domainpool.run pool flows;
      let dt = (Unix.gettimeofday () -. t0) *. 1e3 in
      if dt < !best then best := dt
    done;
    let restarts = Domainpool.restarts pool in
    Domainpool.close pool;
    (!best, restarts)
  in
  let base_ms, _ = run_ms ~crash:false in
  let crash_ms, restarts = run_ms ~crash:true in
  let json =
    Printf.sprintf
      "{\n\
      \  \"goodput_vs_load\": [\n\
       %s\n\
      \  ],\n\
      \  \"overload_drills\": [\n\
       %s\n\
      \  ],\n\
      \  \"uncrashed_run_ms\": %s,\n\
      \  \"crashed_run_ms\": %s,\n\
      \  \"recovery_overhead_ms\": %s,\n\
      \  \"restarts\": %d\n\
       }\n"
      curve drills (num 3 base_ms) (num 3 crash_ms)
      (num 3 (Float.max 0.0 (crash_ms -. base_ms)))
      restarts
  in
  emit_json path json

let () =
  if Array.exists (fun a -> a = "--json") Sys.argv then begin
    let write writer path =
      try writer path
      with Non_finite x ->
        Printf.eprintf "refusing to write %s: non-finite value %h in output\n%!"
          path x;
        exit 1
    in
    write write_bench_json "BENCH_dataplane.json";
    write write_faults_json "BENCH_faults.json";
    write write_lint_json "BENCH_lint.json";
    write write_shard_json "BENCH_shard.json";
    write write_drills_json "BENCH_drills.json";
    write write_overload_json "BENCH_overload.json"
  end
  else begin
    figures ();
    experiments ();
    run_benchmarks ()
  end
