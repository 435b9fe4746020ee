(* Tests for the data-plane traffic engine: the pump must realize the
   exact paths and verdicts of the Forward.decide oracle (cache on and
   off), the flow cache must behave like a direct-mapped cache, and the
   workload/telemetry plumbing must be deterministic and consistent. *)

module Internet = Topology.Internet
module Rng = Topology.Rng
module Forward = Simcore.Forward
module Fib = Simcore.Fib
module Service = Anycast.Service
module Fabric = Vnbone.Fabric
module Router = Vnbone.Router
module Transport = Vnbone.Transport
module Flowcache = Dataplane.Flowcache
module Linkq = Dataplane.Linkq
module Workload = Dataplane.Workload
module Telemetry = Dataplane.Telemetry
module Pump = Dataplane.Pump
module Packet = Netcore.Packet
module Ipv4 = Netcore.Ipv4

let check = Alcotest.check

let default_setup ?(deploy = [ 5; 9; 14 ]) () =
  let inet = Internet.build Internet.default_params in
  let env = Forward.make_env inet in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  List.iter
    (fun d ->
      Service.add_participant service ~domain:d
        ~routers:(Array.to_list (Internet.domain inet d).Internet.router_ids))
    deploy;
  (inet, env, service)

let fixture = lazy (default_setup ())

let trace_str (t : Forward.trace) =
  let outcome =
    match t.Forward.outcome with
    | Forward.Router_accepted r -> Printf.sprintf "router %d" r
    | Forward.Endhost_accepted h -> Printf.sprintf "endhost %d" h
    | Forward.Dropped Forward.Ttl_expired -> "drop ttl"
    | Forward.Dropped Forward.No_route -> "drop no-route"
    | Forward.Dropped Forward.Stuck -> "drop stuck"
    | Forward.Dropped Forward.Link_down -> "drop link-down"
    | Forward.Dropped Forward.Queue_full -> "drop queue-full"
    | Forward.Dropped Forward.Shed -> "drop shed"
  in
  String.concat ">" (List.map string_of_int t.Forward.hops) ^ " => " ^ outcome

(* sampled (entry, dst) probes covering anycast, unicast and
   inter-domain destinations *)
let sample_probes (inet : Internet.t) env service =
  let rng = Rng.create 99L in
  let hosts = Array.length inet.Internet.endhosts in
  let routers = Internet.num_routers inet in
  List.concat
    [
      (* endhost-to-endhost unicast *)
      List.init 40 (fun _ ->
          let h = Rng.int rng hosts in
          let entry = Rng.int rng routers in
          (entry, (Internet.endhost inet h).Internet.haddr));
      (* router addresses *)
      List.init 20 (fun _ ->
          let r = Rng.int rng routers in
          let entry = Rng.int rng routers in
          (entry, (Internet.router inet r).Internet.raddr));
      (* the anycast address from everywhere *)
      List.init 20 (fun _ -> (Rng.int rng routers, Service.address service));
    ]
  |> fun probes ->
  ignore env;
  probes

let agreement_case ~use_cache () =
  let inet, env, service = Lazy.force fixture in
  let pump = Pump.create ~use_cache env in
  List.iter
    (fun (entry, dst) ->
      let p = Packet.make_data ~src:Ipv4.any ~dst "probe" in
      let oracle = Forward.forward env p ~entry in
      (* twice: the second pass is served from a warm cache *)
      let first = Pump.inject pump p ~entry in
      let second = Pump.inject pump p ~entry in
      check Alcotest.string "pump = oracle (cold)" (trace_str oracle)
        (trace_str first);
      check Alcotest.string "pump = oracle (warm)" (trace_str oracle)
        (trace_str second))
    (sample_probes inet env service)

let test_agreement_cached () = agreement_case ~use_cache:true ()
let test_agreement_uncached () = agreement_case ~use_cache:false ()

let test_agreement_send_data () =
  let inet, env, _ = Lazy.force fixture in
  let pump = Pump.create env in
  let rng = Rng.create 7L in
  let hosts = Array.length inet.Internet.endhosts in
  for _ = 1 to 40 do
    let src = Rng.int rng hosts in
    let dst = Rng.int rng hosts in
    if src <> dst then begin
      let hs = Internet.endhost inet src
      and hd = Internet.endhost inet dst in
      let p =
        Packet.make_data ~src:hs.Internet.haddr ~dst:hd.Internet.haddr "x"
      in
      let oracle = Forward.send_from_endhost env p ~endhost:src in
      let got = Pump.send_data pump ~src ~dst ~payload:"x" in
      check Alcotest.string "send_data = oracle" (trace_str oracle)
        (trace_str got)
    end
  done

let test_vn_agreement_with_transport () =
  let inet, env, service = Lazy.force fixture in
  let pump = Pump.create env in
  let vrouter = Router.create (Fabric.build service) in
  let rng = Rng.create 23L in
  let hosts = Array.length inet.Internet.endhosts in
  for _ = 1 to 25 do
    let src = Rng.int rng hosts in
    let dst = Rng.int rng hosts in
    if src <> dst then begin
      let j =
        Transport.send vrouter ~strategy:Router.Bgp_aware ~src ~dst
          ~payload:"x"
      in
      let d =
        Pump.send_vn pump vrouter ~strategy:Router.Bgp_aware ~src ~dst
          ~payload:"x"
      in
      check Alcotest.bool "delivered agrees" (Transport.delivered j)
        (Pump.vn_delivered d);
      check Alcotest.int "underlay hops agree" (Transport.total_hops j)
        d.Pump.vn_hops
    end
  done

(* ------------------------------------------------------------------ *)
(* Flowcache                                                           *)

let addr i = Ipv4.of_int i

let test_flowcache_hit_miss () =
  let c = Flowcache.create ~slots:8 in
  check Alcotest.(option int) "cold miss" None (Flowcache.lookup c (addr 1));
  Flowcache.insert c (addr 1) 42;
  check Alcotest.(option int) "hit" (Some 42) (Flowcache.lookup c (addr 1));
  let s = Flowcache.stats c in
  check Alcotest.int "one hit" 1 s.Flowcache.hits;
  check Alcotest.int "one miss" 1 s.Flowcache.misses;
  check Alcotest.int "no eviction" 0 s.Flowcache.evictions

let test_flowcache_direct_mapped_eviction () =
  (* a 1-slot cache makes any two distinct addresses collide,
     independent of the slot-hash function *)
  let c = Flowcache.create ~slots:1 in
  check Alcotest.int "one slot" 1 (Flowcache.capacity c);
  Flowcache.insert c (addr 1) 10;
  Flowcache.insert c (addr 9) 90;
  check Alcotest.(option int) "old entry evicted" None
    (Flowcache.lookup c (addr 1));
  check Alcotest.(option int) "new entry present" (Some 90)
    (Flowcache.lookup c (addr 9));
  check Alcotest.int "eviction counted" 1 (Flowcache.stats c).Flowcache.evictions

let test_flowcache_find_and_clear () =
  let c = Flowcache.create ~slots:8 in
  let computes = ref 0 in
  let compute _ =
    incr computes;
    Some 7
  in
  check Alcotest.(option int) "computed" (Some 7)
    (Flowcache.find c (addr 3) ~compute);
  check Alcotest.(option int) "cached" (Some 7)
    (Flowcache.find c (addr 3) ~compute);
  check Alcotest.int "compute ran once" 1 !computes;
  Flowcache.clear c;
  check Alcotest.int "cleared" 0 (Flowcache.stats c).Flowcache.occupied;
  check Alcotest.(option int) "recomputed after clear" (Some 7)
    (Flowcache.find c (addr 3) ~compute);
  check Alcotest.int "compute ran again" 2 !computes

let test_flowcache_negative_not_cached () =
  let c = Flowcache.create ~slots:8 in
  let computes = ref 0 in
  let compute _ =
    incr computes;
    None
  in
  check Alcotest.(option int) "miss" None (Flowcache.find c (addr 5) ~compute);
  check Alcotest.(option int) "still miss" None
    (Flowcache.find c (addr 5) ~compute);
  check Alcotest.int "compute re-ran (None not cached)" 2 !computes

let test_flowcache_churn_stress () =
  (* rapid membership churn: after every [refresh] the flow caches must
     serve the NEW snapshot's actions — a stale cached action after
     refresh returns would desynchronize the pump from the oracle *)
  let inet = Internet.build Internet.default_params in
  let env = Forward.make_env inet in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  let routers_of d = Array.to_list (Internet.domain inet d).Internet.router_ids in
  Service.add_participant service ~domain:5 ~routers:(routers_of 5);
  (* a tiny cache maximizes collisions, so stale survivors would show *)
  let pump = Pump.create ~cache_slots:2 env in
  let rng = Rng.create 101L in
  let hosts = Array.length inet.Internet.endhosts in
  let probes =
    List.init 30 (fun _ ->
        (Rng.int rng (Internet.num_routers inet), Service.address service))
    @ List.init 30 (fun _ ->
          let h = Rng.int rng hosts in
          ( Rng.int rng (Internet.num_routers inet),
            (Internet.endhost inet h).Internet.haddr ))
  in
  let assert_agrees round =
    List.iter
      (fun (entry, dst) ->
        let p = Packet.make_data ~src:Ipv4.any ~dst "churn" in
        let oracle = Forward.forward env p ~entry in
        (* twice: cold fill, then the warm path that a stale entry
           would poison *)
        ignore (Pump.inject pump p ~entry);
        check Alcotest.string
          (Printf.sprintf "round %d: pump = oracle" round)
          (trace_str oracle)
          (trace_str (Pump.inject pump p ~entry)))
      probes
  in
  assert_agrees 0;
  List.iteri
    (fun i d ->
      (* flip the domain's membership, reconverge, refresh — the caches
         must follow instantly *)
      (if Service.is_participant service ~domain:d then
         Service.remove_participant service ~domain:d
       else Service.add_participant service ~domain:d ~routers:(routers_of d));
      Pump.refresh pump;
      assert_agrees (i + 1))
    [ 9; 5; 14; 9; 5; 9 ]

let test_flowcache_rounds_to_power_of_two () =
  check Alcotest.int "5 -> 8" 8 (Flowcache.capacity (Flowcache.create ~slots:5));
  check Alcotest.int "8 -> 8" 8 (Flowcache.capacity (Flowcache.create ~slots:8));
  Alcotest.check_raises "slots = 0 rejected"
    (Invalid_argument "Flowcache.create: slots must be positive") (fun () ->
      ignore (Flowcache.create ~slots:0))

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)

let test_workload_deterministic () =
  let inet, _, _ = Lazy.force fixture in
  let flows seed =
    Workload.batch
      (Workload.create inet (Workload.Gravity { zipf_s = 1.2 }) ~seed)
      ~count:50
  in
  check Alcotest.bool "same seed, same flows" true (flows 5L = flows 5L);
  check Alcotest.bool "different seed, different flows" true
    (flows 5L <> flows 6L)

let test_workload_flows_valid () =
  let inet, _, _ = Lazy.force fixture in
  let hosts = Array.length inet.Internet.endhosts in
  let wl = Workload.create ~packets_per_flow:3 inet Workload.Uniform ~seed:1L in
  List.iter
    (fun (f : Workload.flow) ->
      check Alcotest.bool "src in range" true
        (f.Workload.src >= 0 && f.Workload.src < hosts);
      check Alcotest.bool "dst in range" true
        (f.Workload.dst >= 0 && f.Workload.dst < hosts);
      check Alcotest.bool "src <> dst" true (f.Workload.src <> f.Workload.dst);
      check Alcotest.int "packets per flow" 3 f.Workload.packets;
      check Alcotest.bool "payload from the mix" true
        (List.mem f.Workload.bytes_per_packet [ 64; 512; 1400 ]))
    (Workload.batch wl ~count:60)

let test_workload_total_packets () =
  let inet, _, _ = Lazy.force fixture in
  let wl = Workload.create ~packets_per_flow:5 inet Workload.Uniform ~seed:2L in
  check Alcotest.int "total packets" 50
    (Workload.total_packets (Workload.batch wl ~count:10))

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

let test_telemetry_counters_and_merge () =
  let a = Telemetry.create ~routers:4 in
  Telemetry.record_hop a ~router:1 ~cls:Telemetry.Native ~bytes:100
    ~encap_bytes:0;
  Telemetry.record_hop a ~router:2 ~cls:Telemetry.Encap ~bytes:120
    ~encap_bytes:20;
  Telemetry.record_delivered a ~router:2 ~cls:Telemetry.Encap;
  Telemetry.record_cache a ~router:1 ~cls:Telemetry.Native ~hit:true;
  let b = Telemetry.create ~routers:4 in
  Telemetry.record_drop b ~router:3 ~cls:Telemetry.Native;
  Telemetry.record_ttl_expired b ~router:0 ~cls:Telemetry.Encap;
  let m = Telemetry.merge a b in
  let t = Telemetry.total m in
  check Alcotest.int "packets" 2 t.Telemetry.packets;
  check Alcotest.int "bytes" 220 t.Telemetry.bytes;
  check Alcotest.int "encap bytes" 20 t.Telemetry.encap_bytes;
  check Alcotest.int "delivered" 1 t.Telemetry.delivered;
  check Alcotest.int "dropped" 1 t.Telemetry.dropped;
  check Alcotest.int "ttl expired" 1 t.Telemetry.ttl_expired;
  check Alcotest.int "cache hits" 1 t.Telemetry.cache_hits;
  (* class totals match router totals *)
  let native = Telemetry.cls m Telemetry.Native
  and encap = Telemetry.cls m Telemetry.Encap in
  check Alcotest.int "class packets"
    (native.Telemetry.packets + encap.Telemetry.packets)
    t.Telemetry.packets;
  check Alcotest.int "class delivered"
    (native.Telemetry.delivered + encap.Telemetry.delivered)
    t.Telemetry.delivered;
  (* inputs unchanged *)
  check Alcotest.int "a unchanged" 2 (Telemetry.total a).Telemetry.packets

let test_pump_telemetry_counts () =
  let inet, env, _ = Lazy.force fixture in
  ignore inet;
  let pump = Pump.create env in
  let tr = Pump.send_data pump ~src:0 ~dst:5 ~payload:"abc" in
  let t = Telemetry.total (Pump.telemetry pump) in
  check Alcotest.int "one handling per hop router"
    (List.length tr.Forward.hops)
    t.Telemetry.packets;
  check Alcotest.int "native class only" 0
    (Telemetry.cls (Pump.telemetry pump) Telemetry.Encap).Telemetry.packets;
  check Alcotest.bool "delivered recorded" true (t.Telemetry.delivered = 1)

(* ------------------------------------------------------------------ *)
(* Snapshot semantics                                                  *)

let test_refresh_tracks_control_plane () =
  (* a fresh pump agrees; after a membership change it goes stale and
     refresh restores agreement *)
  let inet, env, service = default_setup () in
  let pump = Pump.create env in
  let addr = Service.address service in
  let agree () =
    List.for_all
      (fun entry ->
        let p = Packet.make_data ~src:Ipv4.any ~dst:addr "probe" in
        trace_str (Forward.forward env p ~entry)
        = trace_str (Pump.inject pump p ~entry))
      (List.init (Internet.num_routers inet) Fun.id)
  in
  check Alcotest.bool "fresh snapshot agrees" true (agree ());
  Service.remove_participant service ~domain:5;
  check Alcotest.bool "stale snapshot disagrees somewhere" false (agree ());
  Pump.refresh pump;
  check Alcotest.bool "refreshed snapshot agrees" true (agree ())

let test_refresh_clears_caches () =
  let _, env, _ = default_setup () in
  let pump = Pump.create env in
  ignore (Pump.send_data pump ~src:0 ~dst:9 ~payload:"x");
  ignore (Pump.send_data pump ~src:0 ~dst:9 ~payload:"x");
  check Alcotest.bool "warm cache hits" true (Pump.cache_hit_rate pump > 0.0);
  let hits_before =
    (Telemetry.total (Pump.telemetry pump)).Telemetry.cache_hits
  in
  Pump.refresh pump;
  ignore (Pump.send_data pump ~src:0 ~dst:9 ~payload:"x");
  let t = Telemetry.total (Pump.telemetry pump) in
  check Alcotest.int "first post-refresh pass misses" hits_before
    t.Telemetry.cache_hits

let same_bindings a b =
  List.equal
    (fun (p, x) (q, y) -> Netcore.Prefix.equal p q && Fib.action_equal x y)
    (Netcore.Lpm.bindings a) (Netcore.Lpm.bindings b)

(* A staged refresh touches exactly the routers it names: after a
   control-plane change, [refresh ~routers:rs] moves the routers in
   [rs] to the new snapshot with cold caches, and every other router
   keeps its old table and its warm cache. *)
let prop_partial_refresh =
  QCheck.Test.make ~name:"refresh ~routers touches exactly the listed routers"
    ~count:15
    QCheck.(small_list (int_bound 10_000))
    (fun picks ->
      let inet, env, service = default_setup () in
      let n = Internet.num_routers inet in
      let rs = List.sort_uniq Int.compare (List.map (fun k -> k mod n) picks) in
      let pump = Pump.create env in
      let tel = Pump.telemetry pump in
      (* a router's own address is Local there, so each probe is one
         lookup at one router and touches only that router's cache *)
      let probe_all () =
        for r = 0 to n - 1 do
          let dst = (Internet.router inet r).Internet.raddr in
          ignore (Pump.inject pump (Packet.make_data ~src:Ipv4.any ~dst "probe") ~entry:r)
        done
      in
      probe_all ();
      let old_tables = Array.init n (fun router -> Pump.table pump ~router) in
      Service.remove_participant service ~domain:5;
      let fresh = Fib.compile env in
      let hits_before =
        Array.init n (fun r -> (Telemetry.router tel r).Telemetry.cache_hits)
      in
      Pump.refresh ~routers:rs pump;
      probe_all ();
      let routers = List.init n Fun.id in
      (* the change must be visible, or "kept the old table" is vacuous *)
      List.exists
        (fun router ->
          not (same_bindings old_tables.(router) (Fib.table fresh ~router)))
        routers
      && List.for_all
           (fun router ->
             let listed = List.mem router rs in
             let warm_hit =
               (Telemetry.router tel router).Telemetry.cache_hits
               > hits_before.(router)
             in
             same_bindings (Pump.table pump ~router)
               (if listed then Fib.table fresh ~router else old_tables.(router))
             && warm_hit = not listed)
           routers)

(* ------------------------------------------------------------------ *)
(* Linkq: finite-capacity link queues (DESIGN.md §13)                  *)

let test_linkq_admission_discipline () =
  (* depth 1000, reserve 100: data plays in [0, 900], control in
     [0, 1000], and a data refusal with reserve room left is a shed *)
  let lq =
    Linkq.create ~control_reserve:100 ~routers:3 ~rate:300 ~depth:1000
      [ (0, 1) ]
  in
  let data = Telemetry.Native and ctl = Telemetry.Control in
  let admit cls bytes = Linkq.admit lq ~src:0 ~dst:1 ~cls ~bytes in
  check Alcotest.bool "600B data fits" true (admit data 600 = Linkq.Admitted);
  check Alcotest.bool "second 600B overflows the depth: droptail" true
    (admit data 600 = Linkq.Rejected_full);
  check Alcotest.bool "350B data only blocked by the reserve: shed" true
    (admit data 350 = Linkq.Rejected_shed);
  check Alcotest.bool "350B control rides the reserve" true
    (admit ctl 350 = Linkq.Admitted);
  check Alcotest.bool "control past the depth still droptails" true
    (admit ctl 100 = Linkq.Rejected_full);
  check Alcotest.bool "unregistered link stays an infinite pipe" true
    (Linkq.admit lq ~src:0 ~dst:2 ~cls:data ~bytes:999_999 = Linkq.Admitted);
  check Alcotest.int "950B queued on the loaded direction" 950
    (Linkq.queued lq ~src:0 ~dst:1);
  check Alcotest.int "reverse direction registered but idle" 0
    (Linkq.queued lq ~src:1 ~dst:0);
  Linkq.tick lq;
  check Alcotest.int "tick drains one rate quantum" 650
    (Linkq.queued lq ~src:0 ~dst:1);
  let s = Linkq.stats lq in
  check Alcotest.int "both directions registered" 2 s.Linkq.links;
  check Alcotest.int "two admissions" 2 s.Linkq.admitted;
  check Alcotest.int "two droptails" 2 s.Linkq.drops_full;
  check Alcotest.int "one precedence shed" 1 s.Linkq.drops_shed;
  check Alcotest.int "queued tracks the drain" 650 s.Linkq.queued;
  check Alcotest.int "high water from before the tick" 950 s.Linkq.high_water;
  check (Alcotest.float 1e-9) "mean delay in ticks" 1.0 s.Linkq.mean_delay

let test_linkq_validation () =
  let invalid msg g =
    match g () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail ("expected Invalid_argument: " ^ msg)
  in
  invalid "zero rate" (fun () ->
      ignore (Linkq.create ~routers:2 ~rate:0 ~depth:10 [ (0, 1) ]));
  invalid "zero depth" (fun () ->
      ignore (Linkq.create ~routers:2 ~rate:1 ~depth:0 [ (0, 1) ]));
  invalid "reserve = depth" (fun () ->
      ignore
        (Linkq.create ~control_reserve:10 ~routers:2 ~rate:1 ~depth:10
           [ (0, 1) ]));
  invalid "endpoint out of range" (fun () ->
      ignore (Linkq.create ~routers:2 ~rate:1 ~depth:10 [ (0, 2) ]))

(* Drive a pump through congested queues and check, class by class,
   that every injected packet is accounted exactly once: delivered +
   dropped + ttl-expired + queue-dropped + shed = injected. *)
let partition_run ~reserve ~load =
  let inet = Internet.build Internet.default_params in
  let env = Forward.make_env inet in
  let hosts =
    Array.init
      (Array.length inet.Internet.endhosts)
      (fun h -> Internet.endhost inet h)
  in
  let nh = Array.length hosts in
  let pump = Pump.create env in
  let lq =
    Linkq.of_internet ~control_reserve:reserve ~rate:3000 ~depth:6000 inet
  in
  Pump.attach_linkq pump lq;
  let payload = String.make 600 'd' in
  let data_in = ref 0 and ctl_in = ref 0 in
  for _tick = 1 to 8 do
    for k = 0 to load - 1 do
      let s = hosts.(k mod nh) and d = hosts.((k + (nh / 2) + 1) mod nh) in
      if s != d then begin
        incr data_in;
        let p =
          Packet.make_data ~src:s.Internet.haddr ~dst:d.Internet.haddr payload
        in
        ignore (Pump.inject pump p ~entry:s.Internet.access_router)
      end
    done;
    for k = 0 to 7 do
      let s = hosts.(k mod nh) and d = hosts.((k + (nh / 3) + 1) mod nh) in
      if s != d then begin
        incr ctl_in;
        let p =
          Packet.make_data ~src:s.Internet.haddr ~dst:d.Internet.haddr "probe"
        in
        ignore
          (Pump.inject ~cls:Telemetry.Control pump p
             ~entry:s.Internet.access_router)
      end
    done;
    Linkq.tick lq
  done;
  (Pump.telemetry pump, !data_in, !ctl_in)

let terminal (c : Telemetry.counters) =
  c.Telemetry.delivered + c.Telemetry.dropped + c.Telemetry.ttl_expired
  + c.Telemetry.queue_dropped + c.Telemetry.shed

let test_class_drop_partition_with_reserve () =
  let tel, data_in, ctl_in = partition_run ~reserve:1200 ~load:64 in
  let dat = Telemetry.cls tel Telemetry.Native in
  let ctl = Telemetry.cls tel Telemetry.Control in
  let enc = Telemetry.cls tel Telemetry.Encap in
  check Alcotest.int "data class partitions" data_in (terminal dat);
  check Alcotest.int "control class partitions" ctl_in (terminal ctl);
  check Alcotest.int "no encap traffic in this run" 0 (terminal enc);
  check Alcotest.int "classes partition the total" (data_in + ctl_in)
    (terminal (Telemetry.total tel));
  check Alcotest.bool "overload actually shed data" true
    (dat.Telemetry.shed > 0);
  check Alcotest.int "control is never shed" 0 ctl.Telemetry.shed;
  check Alcotest.int "the reserve admitted every probe" ctl_in
    ctl.Telemetry.delivered

let test_class_drop_partition_no_reserve () =
  (* without a reserve there is no precedence class: refusals are pure
     droptail, so the shed counter must stay zero everywhere *)
  let tel, data_in, ctl_in = partition_run ~reserve:0 ~load:256 in
  let c = Telemetry.total tel in
  check Alcotest.int "total partitions" (data_in + ctl_in) (terminal c);
  check Alcotest.int "no reserve, no sheds" 0 c.Telemetry.shed;
  check Alcotest.bool "congestion droptailed" true
    (c.Telemetry.queue_dropped > 0)

let () =
  Alcotest.run "dataplane"
    [
      ( "agreement",
        [
          Alcotest.test_case "pump = Forward oracle (cached)" `Quick
            test_agreement_cached;
          Alcotest.test_case "pump = Forward oracle (uncached)" `Quick
            test_agreement_uncached;
          Alcotest.test_case "send_data = send_from_endhost" `Quick
            test_agreement_send_data;
          Alcotest.test_case "send_vn = Transport.send" `Quick
            test_vn_agreement_with_transport;
        ] );
      ( "flowcache",
        [
          Alcotest.test_case "hit/miss counters" `Quick test_flowcache_hit_miss;
          Alcotest.test_case "direct-mapped eviction" `Quick
            test_flowcache_direct_mapped_eviction;
          Alcotest.test_case "find + clear" `Quick test_flowcache_find_and_clear;
          Alcotest.test_case "negative results not cached" `Quick
            test_flowcache_negative_not_cached;
          Alcotest.test_case "power-of-two capacity" `Quick
            test_flowcache_rounds_to_power_of_two;
          Alcotest.test_case "no stale action across churn + refresh" `Quick
            test_flowcache_churn_stress;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "flows valid" `Quick test_workload_flows_valid;
          Alcotest.test_case "total packets" `Quick test_workload_total_packets;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counters and merge" `Quick
            test_telemetry_counters_and_merge;
          Alcotest.test_case "pump records hops" `Quick
            test_pump_telemetry_counts;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "refresh tracks control plane" `Quick
            test_refresh_tracks_control_plane;
          Alcotest.test_case "refresh clears caches" `Quick
            test_refresh_clears_caches;
          QCheck_alcotest.to_alcotest prop_partial_refresh;
        ] );
      ( "linkq",
        [
          Alcotest.test_case "admission discipline" `Quick
            test_linkq_admission_discipline;
          Alcotest.test_case "validation" `Quick test_linkq_validation;
          Alcotest.test_case "per-class drop partition (reserve)" `Quick
            test_class_drop_partition_with_reserve;
          Alcotest.test_case "per-class drop partition (droptail)" `Quick
            test_class_drop_partition_no_reserve;
        ] );
    ]
