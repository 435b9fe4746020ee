(* Tests for the data-plane traffic engine: the pump must realize the
   exact paths and verdicts of the Forward.decide oracle, the flow cache
   bench/perf replays must behave like a direct-mapped cache, and the
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
module Hop = Dataplane.Hop
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

(* Each probe is injected twice, so a walk's leftover kernel state
   (path buffer, verdict fields) must not reach the next walk. *)
let agreement_case pump =
  let inet, env, service = Lazy.force fixture in
  List.iter
    (fun (entry, dst) ->
      let p = Packet.make_data ~src:Ipv4.any ~dst "probe" in
      let oracle = trace_str (Forward.forward env p ~entry) in
      check Alcotest.string "pump = oracle (first)" oracle
        (trace_str (Pump.inject pump p ~entry));
      check Alcotest.string "pump = oracle (again)" oracle
        (trace_str (Pump.inject pump p ~entry)))
    (sample_probes inet env service)

(* "cached": every table recompiled from the per-domain plans the pump
   kept ({!Simcore.Fib.recompiler}); "uncached": a fresh compile. *)
let test_agreement_cached () =
  let _, env, _ = Lazy.force fixture in
  let pump = Pump.create env in
  Pump.refresh pump;
  agreement_case pump

let test_agreement_uncached () =
  let _, env, _ = Lazy.force fixture in
  agreement_case (Pump.create env)

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

let leg_str = function
  | Transport.Access t -> "access " ^ trace_str t
  | Transport.Vn { from_router; to_router; underlay } ->
      Printf.sprintf "vn %d->%d %s" from_router to_router (trace_str underlay)
  | Transport.Exit t -> "exit " ^ trace_str t

let result_str (j : Transport.journey) =
  match j.Transport.result with
  | Ok () -> "delivered"
  | Error Transport.No_ingress -> "no ingress"
  | Error Transport.Vn_unreachable -> "vn unreachable"
  | Error Transport.Exit_failed -> "exit failed"
  | Error Transport.Vttl_expired -> "vttl expired"

let is_tunnel = function Transport.Vn _ -> true | _ -> false

(* a random pair of distinct endhosts *)
let rec host_pair rng hosts =
  let src = Rng.int rng hosts and dst = Rng.int rng hosts in
  if src = dst then host_pair rng hosts else (src, dst)

(* The journey over the pump's compiled tables must be the journey over
   the Forward oracle, leg by leg: same kinds, endpoints, hops and
   verdicts, same ingress, egress and result, under every egress
   strategy. *)
let test_journey_over_pump_equals_oracle () =
  let inet, env, service = Lazy.force fixture in
  let pump = Pump.create env in
  let vrouter = Router.create (Fabric.build service) in
  let rng = Rng.create 23L in
  let hosts = Array.length inet.Internet.endhosts in
  let tunnels = ref 0 in
  List.iter
    (fun strategy ->
      let name = Router.strategy_to_string strategy in
      for _ = 1 to 25 do
        let src, dst = host_pair rng hosts in
        (match strategy with
        | Router.Host_advertised ->
            ignore (Router.register_endhost vrouter ~endhost:dst)
        | Router.Exit_early | Router.Bgp_aware | Router.Proxy -> ());
        let oracle = Transport.send vrouter ~strategy ~src ~dst ~payload:"x" in
        let pumped =
          Transport.send_over vrouter ~forward:(Pump.inject pump) ~strategy
            ~src ~dst ~payload:"x"
        in
        check
          Alcotest.(list string)
          (name ^ ": legs agree")
          (List.map leg_str oracle.Transport.legs)
          (List.map leg_str pumped.Transport.legs);
        check Alcotest.(option int) (name ^ ": ingress agrees")
          oracle.Transport.ingress pumped.Transport.ingress;
        check Alcotest.(option int) (name ^ ": egress agrees")
          oracle.Transport.egress pumped.Transport.egress;
        check Alcotest.string (name ^ ": result agrees") (result_str oracle)
          (result_str pumped);
        tunnels :=
          !tunnels + List.length (List.filter is_tunnel oracle.Transport.legs)
      done)
    [ Router.Exit_early; Router.Bgp_aware; Router.Proxy; Router.Host_advertised ];
  check Alcotest.bool "some journeys crossed the vN-Bone" true (!tunnels > 0)

(* A journey whose tunnel leg fails keeps that leg: the packet crossed
   its hops before the drop, so the journey's hop count includes them. *)
let test_failed_tunnel_leg_kept () =
  let inet, env, service = Lazy.force fixture in
  let vrouter = Router.create (Fabric.build service) in
  let rng = Rng.create 31L in
  let hosts = Array.length inet.Internet.endhosts in
  let send ~forward (src, dst) =
    Transport.send_over vrouter ~forward ~strategy:Router.Bgp_aware ~src ~dst
      ~payload:"x"
  in
  (* a delivered journey over the oracle with at least one tunnel leg *)
  let rec find n =
    if n = 0 then Alcotest.fail "no delivered journey with a tunnel leg"
    else
      let pair = host_pair rng hosts in
      let j = send ~forward:(Forward.forward env) pair in
      match List.find_opt is_tunnel j.Transport.legs with
      | Some (Transport.Vn { to_router; _ }) when Transport.delivered j ->
          (pair, j, to_router)
      | _ -> find (n - 1)
  in
  let pair, ok, far = find 200 in
  let far_addr = (Internet.router inet far).Internet.raddr in
  (* the oracle, except that a packet addressed to the tunnel's far end
     is dropped at the last router it reaches *)
  let forward p ~entry =
    let t = Forward.forward env p ~entry in
    if Ipv4.equal p.Packet.dst far_addr then
      { t with Forward.outcome = Forward.Dropped Forward.Link_down }
    else t
  in
  let failed = send ~forward pair in
  check Alcotest.string "the journey fails in the tunnel" "vn unreachable"
    (result_str failed);
  (match List.rev failed.Transport.legs with
  | Transport.Vn { to_router; underlay; _ } :: _ ->
      check Alcotest.int "the last leg is the failed tunnel" far to_router;
      check Alcotest.bool "its underlay was not delivered" false
        (Forward.delivered underlay);
      check Alcotest.bool "it crossed hops before the drop" true
        (Forward.hop_count underlay > 0)
  | _ -> Alcotest.fail "the failed tunnel leg is missing");
  (* the failed journey crossed the delivered one's legs up to and
     including that tunnel *)
  let rec crossed = function
    | [] -> []
    | (Transport.Vn { to_router; _ } as l) :: _ when to_router = far -> [ l ]
    | l :: rest -> l :: crossed rest
  in
  check Alcotest.int "total_hops counts the failed leg"
    (Transport.total_hops { ok with Transport.legs = crossed ok.Transport.legs })
    (Transport.total_hops failed)

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
  (* rapid membership churn: after every [refresh] the pump must serve
     the NEW snapshot's actions — a stale action after refresh returns
     would desynchronize the pump from the oracle *)
  let inet = Internet.build Internet.default_params in
  let env = Forward.make_env inet in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  let routers_of d = Array.to_list (Internet.domain inet d).Internet.router_ids in
  Service.add_participant service ~domain:5 ~routers:(routers_of 5);
  let pump = Pump.create env in
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
        check Alcotest.string
          (Printf.sprintf "round %d: pump = oracle" round)
          (trace_str oracle)
          (trace_str (Pump.inject pump p ~entry)))
      probes
  in
  assert_agrees 0;
  List.iteri
    (fun i d ->
      (* flip the domain's membership, reconverge, refresh — the
         tables must follow instantly *)
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

(* A count whose power-of-two rounding passes the largest array is
   refused before anything is allocated; doubling past max_int used to
   wrap to 0 and loop for ever. *)
let test_flowcache_huge_slots_rejected () =
  List.iter
    (fun slots ->
      Alcotest.check_raises
        (Printf.sprintf "slots = %d rejected" slots)
        (Invalid_argument "Flowcache.create: slots exceed the largest array")
        (fun () -> ignore (Flowcache.create ~slots)))
    [ max_int; (1 lsl 61) + 1; Sys.max_array_length ]

(* hop.mli: "A walk allocates nothing". Walks toward uniform
   destinations over 1,792 endhosts decode a next hop at most hops and
   an attached endhost at the last. The bound leaves room for the
   measurement itself. *)
let test_walk_allocates_nothing () =
  let inet = Internet.build { Internet.default_params with endhosts_per_domain = 64 } in
  let env = Forward.make_env inet in
  let fib = Fib.compile env in
  let n = Internet.num_routers inet in
  let tables = Array.init n (fun router -> Fib.table fib ~router) in
  let k = Hop.create ~tables ~lo:0 ~hi:n in
  let rng = Rng.create 23L in
  let hosts = Array.length inet.Internet.endhosts in
  let walks = 10_000 in
  let batch () =
    ( Array.init walks (fun _ -> (Internet.endhost inet (Rng.int rng hosts)).Internet.haddr),
      Array.init walks (fun _ -> Rng.int rng n) )
  in
  let run (dsts, entries) =
    for i = 0 to walks - 1 do
      ignore
        (Hop.walk k ~cls:Telemetry.Native ~dst:dsts.(i) ~bytes:100 ~encap_bytes:0
           ~count:1 ~entry:entries.(i) ~ttl:64
          : Hop.verdict)
    done
  in
  let warm = batch () and measured = batch () in
  run warm;
  let w0 = Gc.minor_words () in
  run measured;
  let w1 = Gc.minor_words () in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words over %d walks" (w1 -. w0) walks)
    true
    (w1 -. w0 <= 64.)

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

(* The generator as it was before its draws became binary searches:
   every draw re-adds the domain weights left to right and takes the
   first domain whose running sum passes [u]. Its draws, host picks
   and record construction mirror Workload's one for one, so equal
   seeds must give equal flows. *)
let linear_scan_batch ~packets_per_flow ~payload_mix inet model ~seed ~count =
  let rng = Rng.create seed in
  let n = Internet.num_domains inet in
  let hosts d = (Internet.domain inet d).Internet.endhost_ids in
  let raw =
    Array.init n (fun d ->
        match model with
        | Workload.Uniform -> float_of_int (Array.length (hosts d))
        | Workload.Gravity { zipf_s } ->
            if Array.length (hosts d) = 0 then 0.0
            else 1.0 /. Float.pow (float_of_int (d + 1)) zipf_s)
  in
  let total = Array.fold_left ( +. ) 0.0 raw in
  let weights = Array.map (fun w -> w /. total) raw in
  let pick_domain () =
    let u = Rng.float rng 1.0 in
    let rec go d acc =
      if d >= n - 1 then n - 1
      else
        let acc = acc +. weights.(d) in
        if u < acc then d else go (d + 1) acc
    in
    go 0 0.0
  in
  let rec pick_endhost () =
    let hs = hosts (pick_domain ()) in
    if Array.length hs = 0 then pick_endhost () else hs.(Rng.int rng (Array.length hs))
  in
  let next () =
    let src = pick_endhost () in
    let rec pick_dst () =
      let d = pick_endhost () in
      if d = src then pick_dst () else d
    in
    {
      Workload.src;
      dst = pick_dst ();
      packets = packets_per_flow;
      bytes_per_packet = Rng.pick_array rng payload_mix;
    }
  in
  List.init count (fun _ -> next ())

(* Uniform and gravity workloads over custom internets of 2-12 domains
   with 0-5 endhosts each (so some domains have none, the last one
   included), and over generated transit-stub internets. *)
let prop_workload_equals_linear_scan =
  QCheck.Test.make ~name:"batch = linear-scan reference (binary-search draws)"
    ~count:60
    QCheck.(pair (int_bound 100_000) (int_bound 2))
    (fun (seed, kind) ->
      let rng = Rng.create (Int64.of_int seed) in
      let inet =
        if kind = 0 then
          Internet.build
            {
              Internet.default_params with
              Internet.transit_domains = Rng.int_in rng 2 4;
              stubs_per_transit = Rng.int_in rng 1 3;
              endhosts_per_domain = Rng.int_in rng 1 4;
              seed = Int64.of_int seed;
            }
        else
          let n = Rng.int_in rng 2 12 in
          let specs =
            Array.init n (fun d ->
                {
                  Internet.routers = Rng.int_in rng 1 3;
                  endhosts = (if d < 2 then 1 else Rng.int rng 6);
                  transit = d = 0;
                })
          in
          (* the two sure endhosts sit anywhere, not always up front *)
          Rng.shuffle rng specs;
          let links =
            List.init (n - 1) (fun i ->
                {
                  Internet.a = i + 1;
                  b = Rng.int rng (i + 1);
                  rel_of_b = Topology.Relationship.Provider;
                })
          in
          Internet.build_custom ~seed:(Int64.of_int seed) specs links
      in
      let model =
        if Rng.bool rng then Workload.Uniform
        else Workload.Gravity { zipf_s = Rng.float rng 2.0 }
      in
      let packets_per_flow = Rng.int_in rng 1 5 and payload_mix = [| 64; 512; 1400 |] in
      let seed = Int64.of_int (seed + 1) and count = 500 in
      Workload.batch (Workload.create ~packets_per_flow ~payload_mix inet model ~seed) ~count
      = linear_scan_batch ~packets_per_flow ~payload_mix inet model ~seed ~count)

let test_workload_populations_normalized () =
  let inet = Internet.build Internet.default_params in
  let all = List.init (Internet.num_domains inet) Fun.id in
  List.iter
    (fun model ->
      let t = Workload.create inet model ~seed:1L in
      check (Alcotest.float 1e-9) "sums to 1" 1.0 (Workload.population_share t all))
    [ Workload.Uniform; Workload.Gravity { zipf_s = 1.0 } ]

let test_workload_gravity_skews () =
  let inet = Internet.build Internet.default_params in
  let g = Workload.create inet (Workload.Gravity { zipf_s = 1.0 }) ~seed:1L in
  check Alcotest.bool "zipf head heavier than tail" true
    (Workload.population_share g [ 0 ]
    > Workload.population_share g [ Internet.num_domains inet - 1 ]);
  (* sampled pairs reflect the skew: domain 0 endpoints appear more
     often than under the uniform model *)
  let share_of_domain t =
    let pairs = List.init 400 (fun _ -> Workload.pair t) in
    let hits =
      List.length
        (List.filter
           (fun (s, d) ->
             (Internet.endhost inet s).Internet.hdomain = 0
             || (Internet.endhost inet d).Internet.hdomain = 0)
           pairs)
    in
    float_of_int hits
  in
  let u = Workload.create inet Workload.Uniform ~seed:2L in
  check Alcotest.bool "gravity oversamples the head domain" true
    (share_of_domain g > share_of_domain u)

let test_workload_pairs_valid () =
  let inet = Internet.build Internet.default_params in
  let t = Workload.create inet (Workload.Gravity { zipf_s = 1.2 }) ~seed:3L in
  let hn = Array.length inet.Internet.endhosts in
  for _ = 1 to 200 do
    let s, d = Workload.pair t in
    check Alcotest.bool "distinct" true (s <> d);
    check Alcotest.bool "in range" true (s >= 0 && s < hn && d >= 0 && d < hn)
  done

(* One endhost can never be both ends of a flow: create refuses it
   rather than letting the first draw look for ever. *)
let test_workload_needs_two_endhosts () =
  let one_host =
    Internet.build_custom
      [|
        { Internet.routers = 2; endhosts = 1; transit = true };
        { Internet.routers = 1; endhosts = 0; transit = false };
      |]
      [ { Internet.a = 1; b = 0; rel_of_b = Topology.Relationship.Provider } ]
  in
  check Alcotest.int "one endhost" 1 (Array.length one_host.Internet.endhosts);
  List.iter
    (fun model ->
      Alcotest.check_raises "refused"
        (Invalid_argument "Workload.create: needs at least two endhosts")
        (fun () -> ignore (Workload.create one_host model ~seed:1L)))
    [ Workload.Uniform; Workload.Gravity { zipf_s = 1.2 } ];
  let two_hosts =
    Internet.build_custom
      [|
        { Internet.routers = 2; endhosts = 1; transit = true };
        { Internet.routers = 1; endhosts = 1; transit = false };
      |]
      [ { Internet.a = 1; b = 0; rel_of_b = Topology.Relationship.Provider } ]
  in
  check Alcotest.int "two endhosts draw" 4
    (List.length (Workload.batch (Workload.create two_hosts Workload.Uniform ~seed:1L) ~count:4))

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

let test_telemetry_counters_and_merge () =
  let a = Telemetry.create ~routers:4 in
  Telemetry.record_hop_n a ~router:1 ~cls:Telemetry.Native ~bytes:100
    ~encap_bytes:0 ~count:1;
  Telemetry.record_hop_n a ~router:2 ~cls:Telemetry.Encap ~bytes:120
    ~encap_bytes:20 ~count:1;
  Telemetry.record_delivered_n a ~router:2 ~cls:Telemetry.Encap ~count:1;
  Telemetry.record_cache_n a ~router:1 ~cls:Telemetry.Native ~hits:1
    ~misses:0;
  let b = Telemetry.create ~routers:4 in
  Telemetry.record_drop_n b ~router:3 ~cls:Telemetry.Native ~count:1;
  Telemetry.record_ttl_expired_n b ~router:0 ~cls:Telemetry.Encap ~count:1;
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
(* Hop kernel                                                          *)

(* The flowlet invariant (DESIGN.md §11.2): one walk of count k leaves
   the verdict and every per-router and per-class counter exactly as k
   walks of count 1 do, on a generated internet with a random set of
   dead links. Each side starts from fresh kernel state. *)
let prop_flowlet_equals_singles =
  QCheck.Test.make ~name:"kernel: a count-k walk equals k single walks"
    ~count:100
    QCheck.(
      quad (int_bound 1_000) (pair (int_bound 10_000) (int_bound 10_000))
        (int_range 1 16) (int_bound 1_000))
    (fun (net_seed, (entry, host), k, kill_seed) ->
      let inet =
        Internet.build
          {
            Internet.default_params with
            transit_domains = 2;
            stubs_per_transit = 2;
            seed = Int64.of_int net_seed;
          }
      in
      let env = Forward.make_env inet in
      let fib = Fib.compile env in
      let n = Internet.num_routers inet in
      let tables = Array.init n (fun router -> Fib.table fib ~router) in
      (* kill about an eighth of the links, both directions *)
      let dead = Array.make_matrix n n false in
      let rng = Rng.create (Int64.of_int kill_seed) in
      List.iter
        (fun (a, b, _) ->
          if Rng.int rng 8 = 0 then begin
            dead.(a).(b) <- true;
            dead.(b).(a) <- true
          end)
        (Topology.Graph.edges inet.Internet.graph);
      let fresh () =
        let st = Hop.create ~tables ~lo:0 ~hi:n in
        Hop.set_link_filter st (Some (fun a b -> not dead.(a).(b)));
        st
      in
      let dst =
        (Internet.endhost inet (host mod Array.length inet.Internet.endhosts))
          .Internet.haddr
      in
      let walk st count =
        Hop.walk st ~cls:Telemetry.Native ~dst ~bytes:100 ~encap_bytes:0
          ~count ~entry:(entry mod n) ~ttl:64
      in
      let flowlet = fresh () and singles = fresh () in
      let v = walk flowlet k in
      let vs = List.init k (fun _ -> walk singles 1) in
      let tf = Hop.telemetry flowlet and ts = Hop.telemetry singles in
      List.for_all (fun v' -> v' = v) vs
      && List.for_all
           (fun r -> Telemetry.router tf r = Telemetry.router ts r)
           (List.init n Fun.id)
      && List.for_all
           (fun c -> Telemetry.cls tf c = Telemetry.cls ts c)
           [ Telemetry.Native; Telemetry.Encap; Telemetry.Control ])

(* The kernel installs only inside its own block: [tables] is shared
   with the other blocks' walkers, so a router outside it is refused
   before anything is written. *)
let test_install_outside_block_refused () =
  let module Lpm = Netcore.Lpm in
  let empty = Lpm.freeze ~tag:Fib.tag [] in
  let tables = Array.make 4 empty in
  let k = Hop.create ~tables ~lo:1 ~hi:3 in
  let t = Lpm.freeze ~tag:Fib.tag [ (Netcore.Prefix.of_string "10.0.0.0/8", Fib.Local) ] in
  List.iter
    (fun router ->
      Alcotest.check_raises
        (Printf.sprintf "router %d refused" router)
        (Invalid_argument
           (Printf.sprintf "Hop.install: router %d lies outside the block [1, 3)" router))
        (fun () -> Hop.install k ~router t))
    [ 0; 3; 5; -1 ];
  check Alcotest.bool "nothing written" true (Array.for_all (fun x -> x == empty) tables);
  Hop.install k ~router:2 t;
  check Alcotest.bool "a block router installs" true (tables.(2) == t && Hop.table k ~router:2 == t)

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

(* [b] binds what [a] binds, and looks up as [a] does at each binding's
   first and last address and one past the last: where the binding's
   intervals start and end. Both are compiled tables, and the
   kernel's tag lookup agrees there too. *)
let same_bindings a b =
  let module Lpm = Netcore.Lpm in
  let module Prefix = Netcore.Prefix in
  let lookups_agree addr =
    Lpm.lookup_value addr a = Lpm.lookup_value addr b
    && Lpm.lookup_tag addr a = Lpm.lookup_tag addr b
  in
  List.equal
    (fun (p, x) (q, y) -> Prefix.equal p q && x = y)
    (Lpm.bindings a) (Lpm.bindings b)
  && List.for_all
       (fun (p, _) ->
         let first = Ipv4.to_int (Prefix.network p) in
         let last = first + Prefix.size p - 1 in
         List.for_all
           (fun x -> lookups_agree (Ipv4.of_int x))
           (first :: last :: (if last < 0xFFFF_FFFF then [ last + 1 ] else [])))
       (Lpm.bindings a)

(* The trace of [dst] from [entry] over the pump's installed tables,
   walked afresh: at every hop a hint-free [Lpm.lookup_tag], decoded as
   fib.mli documents {!Fib.tag} (a next hop is the tag itself, -1 local
   delivery, [no_tag] no route, any other tag the endhost [-2 - tag]). *)
let reference_walk pump ~entry ~ttl dst =
  let module Lpm = Netcore.Lpm in
  let rec go r ttl hops =
    let hops = r :: hops in
    let ends outcome = { Forward.hops = List.rev hops; outcome } in
    let tag = Lpm.lookup_tag dst (Pump.table pump ~router:r) in
    if tag >= 0 then
      if ttl <= 1 then ends (Forward.Dropped Forward.Ttl_expired)
      else if tag = r then ends (Forward.Dropped Forward.Stuck)
      else go tag (ttl - 1) hops
    else if tag = -1 then ends (Forward.Router_accepted r)
    else if tag = Lpm.no_tag then ends (Forward.Dropped Forward.No_route)
    else ends (Forward.Endhost_accepted (-2 - tag))
  in
  go entry ttl []

type partial_refresh = {
  holds : bool;
  mixed : int;  (** probes whose walk hops between a refreshed and a kept router of one domain *)
  stale : int;  (** of those, probes where such a hop's hint is the wrong interval *)
}

(* A staged refresh touches exactly the routers it names: after a
   control-plane change, [refresh ~routers:rs] moves the routers in
   [rs] to the new snapshot, and every other router keeps its old
   table. The pump then holds two versions of some domains' tables,
   over two layouts, and the kernel, whose walks carry an interval
   index from hop to hop, must trace every probe as a walk that looks
   each hop up afresh. *)
let partial_refresh_case picks =
  let module Lpm = Netcore.Lpm in
  let inet, env, service = default_setup () in
  let n = Internet.num_routers inet in
  let rs = List.sort_uniq Int.compare (List.map (fun k -> k mod n) picks) in
  let pump = Pump.create env in
  let old_tables = Array.init n (fun router -> Pump.table pump ~router) in
  Service.remove_participant service ~domain:5;
  (* and a /16 goes, so every other domain's prefix list shrinks: a
     refresh that kept a domain's stale plan would bind the wrong
     prefixes *)
  Interdomain.Bgp.withdraw_origin env.Forward.bgp ~domain:2
    (Internet.domain inet 2).Internet.prefix;
  ignore (Forward.reconverge env);
  let fresh = Fib.compile env in
  Pump.refresh ~routers:rs pump;
  let routers = List.init n Fun.id in
  let refreshed = Array.make n false in
  List.iter (fun r -> refreshed.(r) <- true) rs;
  let domain r = (Internet.router inet r).Internet.rdomain in
  let mixed = ref 0 and stale = ref 0 in
  let traced (entry, dst) =
    let p = Packet.make_data ~src:Ipv4.any ~dst "probe" in
    let got = Pump.inject pump p ~entry in
    let crossings =
      let rec hops = function
        | a :: (b :: _ as rest) ->
            if domain a = domain b && refreshed.(a) <> refreshed.(b) then (a, b) :: hops rest
            else hops rest
        | [ _ ] | [] -> []
      in
      hops got.Forward.hops
    in
    let interval r = Lpm.interval (Pump.table pump ~router:r) dst ~near:(-1) in
    if crossings <> [] then incr mixed;
    if List.exists (fun (a, b) -> interval a <> interval b) crossings then incr stale;
    trace_str got = trace_str (reference_walk pump ~entry ~ttl:p.Packet.ttl dst)
  in
  let holds =
    (* the change must be visible, or "kept the old table" is vacuous *)
    List.exists
      (fun router -> not (same_bindings old_tables.(router) (Fib.table fresh ~router)))
      routers
    && List.for_all
         (fun router ->
           same_bindings
             (if List.mem router rs then Fib.table fresh ~router else old_tables.(router))
             (Pump.table pump ~router))
         routers
    && List.for_all traced (sample_probes inet env service)
  in
  { holds; mixed = !mixed; stale = !stale }

let prop_partial_refresh =
  QCheck.Test.make ~name:"refresh ~routers touches exactly the listed routers"
    ~count:15
    QCheck.(small_list (int_bound 10_000))
    (fun picks -> (partial_refresh_case picks).holds)

(* The property's walks reach the case it is there for: a walk that
   hops, inside one domain, between a refreshed table and a kept one,
   where the index the first found is not the second's interval. *)
let test_partial_refresh_reaches_mixed_walks () =
  let inet, _, _ = Lazy.force fixture in
  let n = Internet.num_routers inet in
  let mixed = ref 0 and stale = ref 0 in
  List.iter
    (fun picks ->
      let c = partial_refresh_case picks in
      check Alcotest.bool "the case holds" true c.holds;
      mixed := !mixed + c.mixed;
      stale := !stale + c.stale)
    [ List.init ((n + 1) / 2) (fun i -> 2 * i); List.init (n / 2) Fun.id ];
  Printf.printf "probes crossing versions inside a domain: %d; with a stale hint: %d\n" !mixed
    !stale;
  check Alcotest.bool "walks cross versions" true (!mixed > 0);
  check Alcotest.bool "and carry a stale hint" true (!stale > 0)

(* A refresh that names a router outside the internet is refused
   before it compiles or installs anything: every table stays the very
   one installed before, though the control plane has moved. *)
let test_refused_refresh_installs_nothing () =
  let inet, env, service = default_setup () in
  let n = Internet.num_routers inet in
  let pump = Pump.create env in
  let before = Array.init n (fun router -> Pump.table pump ~router) in
  Service.remove_participant service ~domain:5;
  List.iter
    (fun (bad, routers) ->
      Alcotest.check_raises
        (Printf.sprintf "router %d refused" bad)
        (Invalid_argument (Printf.sprintf "Pump.refresh: router %d outside [0, %d)" bad n))
        (fun () -> Pump.refresh ~routers pump);
      for router = 0 to n - 1 do
        check Alcotest.bool
          (Printf.sprintf "router %d keeps its table" router)
          true
          (Pump.table pump ~router == before.(router))
      done)
    [ (n, [ 0; n ]); (-1, [ -1 ]); (n + 5, [ 0; 1; 2; n + 5 ]) ];
  Pump.refresh pump;
  check Alcotest.bool "a valid refresh then moves a table" true
    (List.exists
       (fun router -> not (same_bindings before.(router) (Pump.table pump ~router)))
       (List.init n Fun.id))

(* A rollout installs, step by step, exactly the ordered slices that
   explicit [refresh ~routers] calls would: [ceil (n / window)] routers
   per step, in the given order, starting over on [restart]. *)
let test_rollout_steps_ordered_slices () =
  let inet, env, service = default_setup () in
  let n = Internet.num_routers inet in
  let order = Array.init n (fun i -> (i * 37) mod n) in
  check Alcotest.int "the order is a permutation" n
    (List.length (List.sort_uniq Int.compare (Array.to_list order)));
  let window = 3 in
  let size = (n + window - 1) / window in
  let slice k =
    List.filteri (fun i _ -> i >= k * size && i < (k + 1) * size) (Array.to_list order)
  in
  let stepped = Pump.create env and explicit = Pump.create env in
  let rollout = Dataplane.Rollout.create ~order ~window in
  let same_tables what =
    for router = 0 to n - 1 do
      check Alcotest.bool
        (Printf.sprintf "%s: router %d" what router)
        true
        (same_bindings (Pump.table stepped ~router) (Pump.table explicit ~router))
    done
  in
  let old_tables = Array.init n (fun router -> Pump.table stepped ~router) in
  Service.remove_participant service ~domain:5;
  (* a new rollout is finished: nothing moves before a restart *)
  Dataplane.Rollout.step rollout stepped;
  check Alcotest.bool "finished before a restart" true
    (Dataplane.Rollout.finished rollout);
  same_tables "no step before a restart";
  (* a partial rollout, then a second change restarts from slice 0 *)
  Dataplane.Rollout.restart rollout;
  Dataplane.Rollout.step rollout stepped;
  Pump.refresh ~routers:(slice 0) explicit;
  same_tables "first slice";
  check (Alcotest.float 1e-12) "one slice of progress"
    (float_of_int size /. float_of_int n)
    (Dataplane.Rollout.progress rollout);
  check Alcotest.bool "the change reached the first slice" true
    (List.exists
       (fun router -> not (same_bindings old_tables.(router) (Pump.table stepped ~router)))
       (slice 0));
  Service.remove_participant service ~domain:9;
  Dataplane.Rollout.restart rollout;
  check (Alcotest.float 0.0) "restart: no progress" 0.0
    (Dataplane.Rollout.progress rollout);
  for k = 0 to window - 1 do
    Dataplane.Rollout.step rollout stepped;
    Pump.refresh ~routers:(slice k) explicit;
    same_tables (Printf.sprintf "step %d" (k + 1));
    check Alcotest.bool
      (Printf.sprintf "finished after step %d" (k + 1))
      (k = window - 1)
      (Dataplane.Rollout.finished rollout)
  done;
  check (Alcotest.float 0.0) "finished: full progress" 1.0
    (Dataplane.Rollout.progress rollout);
  Dataplane.Rollout.step rollout stepped;
  same_tables "a finished rollout installs nothing";
  Alcotest.check_raises "window 0 refused"
    (Invalid_argument "Rollout.create: window must be positive")
    (fun () -> ignore (Dataplane.Rollout.create ~order ~window:0))

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
          Alcotest.test_case "Transport over pump = over oracle" `Quick
            test_journey_over_pump_equals_oracle;
          Alcotest.test_case "failed tunnel leg kept" `Quick
            test_failed_tunnel_leg_kept;
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
          Alcotest.test_case "huge slot counts rejected" `Quick
            test_flowcache_huge_slots_rejected;
          Alcotest.test_case "no stale action across churn + refresh" `Quick
            test_flowcache_churn_stress;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "flows valid" `Quick test_workload_flows_valid;
          Alcotest.test_case "total packets" `Quick test_workload_total_packets;
          QCheck_alcotest.to_alcotest prop_workload_equals_linear_scan;
          Alcotest.test_case "needs two endhosts" `Quick test_workload_needs_two_endhosts;
          Alcotest.test_case "normalized populations" `Quick
            test_workload_populations_normalized;
          Alcotest.test_case "gravity skews sampling" `Quick test_workload_gravity_skews;
          Alcotest.test_case "valid pairs" `Quick test_workload_pairs_valid;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counters and merge" `Quick
            test_telemetry_counters_and_merge;
          Alcotest.test_case "pump records hops" `Quick
            test_pump_telemetry_counts;
        ] );
      ( "kernel",
        [
          QCheck_alcotest.to_alcotest prop_flowlet_equals_singles;
          Alcotest.test_case "a walk allocates nothing, hit or miss" `Quick
            test_walk_allocates_nothing;
          Alcotest.test_case "install refuses a router outside the block" `Quick
            test_install_outside_block_refused;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "refresh tracks control plane" `Quick
            test_refresh_tracks_control_plane;
          QCheck_alcotest.to_alcotest prop_partial_refresh;
          Alcotest.test_case "partial refresh reaches mixed-version walks" `Quick
            test_partial_refresh_reaches_mixed_walks;
          Alcotest.test_case "a refused refresh installs nothing" `Quick
            test_refused_refresh_installs_nothing;
          Alcotest.test_case "rollout steps the ordered slices" `Quick
            test_rollout_steps_ordered_slices;
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
