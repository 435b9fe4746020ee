(* Tests for the event engine and the IPv4 forwarding plane. *)

module Engine = Simcore.Engine
module Forward = Simcore.Forward
module Internet = Topology.Internet
module Relationship = Topology.Relationship
module Packet = Netcore.Packet
module Ipv4 = Netcore.Ipv4
module Addressing = Netcore.Addressing
module Linkstate = Routing.Linkstate

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:3.0 (fun _ -> log := 3 :: !log);
  Engine.schedule e ~delay:1.0 (fun _ -> log := 1 :: !log);
  Engine.schedule e ~delay:2.0 (fun _ -> log := 2 :: !log);
  let n = Engine.run e in
  check Alcotest.int "all ran" 3 n;
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_at_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun _ -> log := i :: !log)
  done;
  ignore (Engine.run e);
  check Alcotest.(list int) "scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun e ->
      log := "a" :: !log;
      Engine.schedule e ~delay:1.0 (fun _ -> log := "c" :: !log);
      Engine.schedule e ~delay:0.5 (fun _ -> log := "b" :: !log));
  ignore (Engine.run e);
  check Alcotest.(list string) "nested order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun _ -> incr count)
  done;
  let ran = Engine.run ~until:5.5 e in
  check Alcotest.int "stopped at limit" 5 ran;
  check Alcotest.int "remaining queued" 5 (Engine.pending e);
  ignore (Engine.run e);
  check Alcotest.int "rest ran" 10 !count

let test_engine_rejects () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.0) (fun _ -> ()));
  Engine.schedule e ~delay:5.0 (fun _ -> ());
  ignore (Engine.run e);
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at e ~time:1.0 (fun _ -> ()))

let test_engine_schedule_at_now () =
  (* ~time:(now t) is the boundary case of "not before now": legal, and
     the callback fires without advancing the clock. *)
  let e = Engine.create () in
  Engine.schedule e ~delay:2.0 (fun _ -> ());
  ignore (Engine.run e);
  let fired_at = ref nan in
  Engine.schedule_at e ~time:(Engine.now e) (fun e -> fired_at := Engine.now e);
  check Alcotest.int "one event ran" 1 (Engine.run e);
  check (Alcotest.float 1e-9) "fired at the current instant" 2.0 !fired_at;
  check (Alcotest.float 1e-9) "clock did not advance" 2.0 (Engine.now e)

let test_engine_fifo_across_until () =
  (* Equal-time FIFO must survive a partial drain: events co-scheduled
     at t=2 but split by run ~until:1 still fire in scheduling order. *)
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun _ -> log := "first" :: !log);
  Engine.schedule e ~delay:1.0 (fun _ -> log := "early" :: !log);
  Engine.schedule e ~delay:2.0 (fun _ -> log := "second" :: !log);
  check Alcotest.int "partial drain stops at until" 1 (Engine.run ~until:1.0 e);
  Engine.schedule e ~delay:1.0 (fun _ -> log := "third" :: !log);
  ignore (Engine.run e);
  check
    (Alcotest.list Alcotest.string)
    "FIFO order preserved across the drain boundary"
    [ "early"; "first"; "second"; "third" ]
    (List.rev !log)

let test_engine_pending_after_partial_drain () =
  let e = Engine.create () in
  for i = 1 to 6 do
    Engine.schedule e ~delay:(float_of_int i) (fun _ -> ())
  done;
  check Alcotest.int "all queued" 6 (Engine.pending e);
  ignore (Engine.run ~until:3.0 e);
  check Alcotest.int "later events remain" 3 (Engine.pending e);
  check (Alcotest.float 1e-9) "clock at last executed event" 3.0 (Engine.now e);
  ignore (Engine.run ~until:3.5 e);
  check Alcotest.int "nothing in (3, 3.5]" 3 (Engine.pending e);
  ignore (Engine.run e);
  check Alcotest.int "drained" 0 (Engine.pending e)

let prop_engine_time_order =
  QCheck.Test.make ~name:"random schedules execute in time order" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_bound 1000))
    (fun delays ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d ->
          Engine.schedule e ~delay:(float_of_int d) (fun e ->
              fired := Engine.now e :: !fired))
        delays;
      ignore (Engine.run e);
      let times = List.rev !fired in
      List.length times = List.length delays
      && List.for_all2
           (fun a b -> a <= b)
           (List.filteri (fun i _ -> i < List.length times - 1) times)
           (List.tl times))

(* ------------------------------------------------------------------ *)
(* Forward                                                             *)

let env_fixture =
  lazy (Forward.make_env (Internet.build Internet.default_params))

let test_forward_router_to_router () =
  let env = Lazy.force env_fixture in
  let inet = env.Forward.inet in
  (* every router can reach every other router's address *)
  let n = Internet.num_routers inet in
  let rng = Topology.Rng.create 17L in
  for _ = 1 to 200 do
    let a = Topology.Rng.int rng n and b = Topology.Rng.int rng n in
    let dst = (Internet.router inet b).Internet.raddr in
    let p = Packet.make_data ~src:Ipv4.any ~dst "x" in
    let trace = Forward.forward env p ~entry:a in
    match trace.Forward.outcome with
    | Forward.Router_accepted r -> check Alcotest.int "right router" b r
    | _ -> Alcotest.fail (Printf.sprintf "router %d -> %d undelivered" a b)
  done

let test_forward_endhost_delivery () =
  let env = Lazy.force env_fixture in
  let inet = env.Forward.inet in
  let hn = Array.length inet.Internet.endhosts in
  let rng = Topology.Rng.create 18L in
  for _ = 1 to 200 do
    let src = Topology.Rng.int rng hn and dst = Topology.Rng.int rng hn in
    let dsta = (Internet.endhost inet dst).Internet.haddr in
    let p = Packet.make_data ~src:(Internet.endhost inet src).Internet.haddr ~dst:dsta "x" in
    let trace = Forward.send_from_endhost env p ~endhost:src in
    match trace.Forward.outcome with
    | Forward.Endhost_accepted h -> check Alcotest.int "right endhost" dst h
    | _ -> Alcotest.fail "endhost pair undelivered"
  done

let test_forward_trace_walks_edges () =
  let env = Lazy.force env_fixture in
  let inet = env.Forward.inet in
  let dst = (Internet.router inet (Internet.num_routers inet - 1)).Internet.raddr in
  let p = Packet.make_data ~src:Ipv4.any ~dst "x" in
  let trace = Forward.forward env p ~entry:0 in
  let rec consecutive = function
    | a :: (b :: _ as rest) ->
        Topology.Graph.has_edge inet.Internet.graph a b && consecutive rest
    | _ -> true
  in
  check Alcotest.bool "hops are real edges" true (consecutive trace.Forward.hops);
  check Alcotest.bool "metric positive" true (Forward.path_metric env trace > 0.0);
  check Alcotest.int "hop count" (List.length trace.Forward.hops - 1)
    (Forward.hop_count trace)

let test_forward_ttl_expiry () =
  let env = Lazy.force env_fixture in
  let inet = env.Forward.inet in
  let dst = (Internet.router inet (Internet.num_routers inet - 1)).Internet.raddr in
  let p = { (Packet.make_data ~src:Ipv4.any ~dst "x") with Packet.ttl = 2 } in
  let trace = Forward.forward env p ~entry:0 in
  (match trace.Forward.outcome with
  | Forward.Dropped Forward.Ttl_expired -> ()
  | Forward.Router_accepted _ ->
      (* entry may be adjacent; retry with ttl 1 and a far target *)
      Alcotest.fail "expected ttl expiry for distant destination"
  | _ -> Alcotest.fail "unexpected outcome");
  check Alcotest.bool "trace cut short" true (List.length trace.Forward.hops <= 2)

let test_forward_no_route () =
  let env = Lazy.force env_fixture in
  (* an address in an unallocated domain block *)
  let dst = Ipv4.of_string "9.9.9.9" in
  let p = Packet.make_data ~src:Ipv4.any ~dst "x" in
  let trace = Forward.forward env p ~entry:0 in
  match trace.Forward.outcome with
  | Forward.Dropped Forward.No_route -> ()
  | _ -> Alcotest.fail "expected no-route drop"

let test_forward_anycast_intra () =
  (* fresh env to avoid polluting the shared fixture's IGPs *)
  let env = Forward.make_env (Internet.build Internet.default_params) in
  let inet = env.Forward.inet in
  let group = Addressing.anycast_global ~group:8 in
  let dom = Internet.domain inet 0 in
  let member = dom.Internet.router_ids.(0) in
  Routing.Igp.advertise_anycast env.Forward.igps.(0) ~group ~member;
  Interdomain.Bgp.originate env.Forward.bgp ~domain:0 group;
  ignore (Forward.reconverge env);
  let dst = Addressing.anycast_address group in
  (* from inside the domain *)
  let local = dom.Internet.router_ids.(Array.length dom.Internet.router_ids - 1) in
  check Alcotest.(option int) "local redirection" (Some member)
    (Forward.anycast_member_reached env ~dst ~entry:local);
  (* from a remote domain: crosses BGP then lands at the member *)
  let remote = (Internet.domain inet 7).Internet.router_ids.(0) in
  check Alcotest.(option int) "remote redirection" (Some member)
    (Forward.anycast_member_reached env ~dst ~entry:remote)

let prop_forward_trace_shape =
  QCheck.Test.make ~name:"traces start at the entry and never self-loop"
    ~count:80
    QCheck.(pair (int_bound 10000) (int_bound 10000))
    (fun (a, b) ->
      let env = Lazy.force env_fixture in
      let inet = env.Forward.inet in
      let entry = a mod Internet.num_routers inet in
      let dst =
        (Internet.endhost inet (b mod Array.length inet.Internet.endhosts))
          .Internet.haddr
      in
      let p = Packet.make_data ~src:Ipv4.any ~dst "x" in
      let trace = Forward.forward env p ~entry in
      let rec no_self_loop = function
        | x :: (y :: _ as rest) -> x <> y && no_self_loop rest
        | _ -> true
      in
      (match trace.Forward.hops with
      | first :: _ -> first = entry
      | [] -> false)
      && no_self_loop trace.Forward.hops)

let prop_forward_universal_reachability =
  QCheck.Test.make ~name:"all endhost pairs deliver on random internets"
    ~count:5
    QCheck.(int_bound 10000)
    (fun seed ->
      let params =
        { Internet.default_params with Internet.seed = Int64.of_int seed }
      in
      let env = Forward.make_env (Internet.build params) in
      let inet = env.Forward.inet in
      let hn = Array.length inet.Internet.endhosts in
      let rng = Topology.Rng.create (Int64.of_int (seed + 1)) in
      List.for_all
        (fun _ ->
          let src = Topology.Rng.int rng hn and dst = Topology.Rng.int rng hn in
          let dsta = (Internet.endhost inet dst).Internet.haddr in
          let p = Packet.make_data ~src:Ipv4.any ~dst:dsta "x" in
          Forward.delivered (Forward.send_from_endhost env p ~endhost:src))
        (List.init 40 Fun.id))

(* ------------------------------------------------------------------ *)
(* Memoised walks (Forward.toward / reach) vs the Forward.forward oracle *)

module Rng = Topology.Rng
module Service = Anycast.Service

type memo_tally = {
  mutable compared : int;
  mutable mismatches : string list;
  mutable delivered : int;
  mutable no_route : int;
  mutable no_route_in_prefix : int;  (* damage-made: the address is routable *)
  mutable expired : int;
  mutable looped : int;  (* expired at TTL 64: the walk never ends *)
}

let new_tally () =
  {
    compared = 0;
    mismatches = [];
    delivered = 0;
    no_route = 0;
    no_route_in_prefix = 0;
    expired = 0;
    looped = 0;
  }

(* every router as entry, at every TTL, with entries in a random order
   so that walks start both on fresh routers and on settled ones *)
let compare_memo tally rng env dst ~ttls =
  let inet = env.Forward.inet in
  let tree = Forward.toward env dst in
  let entries = Array.init (Internet.num_routers inet) Fun.id in
  Rng.shuffle rng entries;
  let in_prefix = Internet.domain_of_addr inet dst <> None in
  Array.iter
    (fun entry ->
      List.iter
        (fun ttl ->
          let p = { (Packet.make_data ~src:Ipv4.any ~dst "x") with Packet.ttl } in
          let trace = Forward.forward env p ~entry in
          let w = Forward.reach tree ~entry ~ttl in
          let metric_ok =
            if Forward.delivered trace then
              Float.equal w.Forward.metric (Forward.path_metric env trace)
            else Float.equal w.Forward.metric infinity
          in
          tally.compared <- tally.compared + 1;
          if
            w.Forward.verdict <> trace.Forward.outcome
            || w.Forward.hop_count <> Forward.hop_count trace
            || not metric_ok
          then
            tally.mismatches <-
              Printf.sprintf "%s from %d at ttl %d" (Ipv4.to_string dst) entry ttl
              :: tally.mismatches;
          match trace.Forward.outcome with
          | Forward.Router_accepted _ | Forward.Endhost_accepted _ ->
              tally.delivered <- tally.delivered + 1
          | Forward.Dropped Forward.No_route ->
              tally.no_route <- tally.no_route + 1;
              if in_prefix then tally.no_route_in_prefix <- tally.no_route_in_prefix + 1
          | Forward.Dropped Forward.Ttl_expired ->
              tally.expired <- tally.expired + 1;
              if ttl = Packet.default_ttl then tally.looped <- tally.looped + 1
          | Forward.Dropped _ -> ())
        ttls)
    entries

(* A generated internet with one anycast service deployed, ~10% of its
   links removed and some touched domains' IGPs recomputed (so walks
   hit No_route), sometimes mid-way through a /16's withdrawal. *)
let damaged_env rng seed =
  let inet =
    if Rng.bool rng then
      Internet.build
        {
          Internet.default_params with
          Internet.transit_domains = Rng.int_in rng 2 4;
          stubs_per_transit = Rng.int_in rng 1 3;
          seed = Int64.of_int seed;
        }
    else
      Internet.build_ba
        {
          Internet.default_ba_params with
          Internet.ba_domains = Rng.int_in rng 6 16;
          ba_seed = Int64.of_int seed;
        }
  in
  let env = Forward.make_env inet in
  let num = Internet.num_domains inet in
  let doms = Rng.sample rng (Rng.int_in rng 1 3) (List.init num Fun.id) in
  let root = List.hd doms in
  let strategy =
    match Rng.int rng 3 with
    | 0 -> Service.Option1
    | 1 -> Service.Option2 { default_domain = root }
    | _ -> Service.Gia { home_domain = root; radius = Rng.int_in rng 1 2 }
  in
  let service = Service.deploy env ~version:8 ~strategy in
  Service.add_participants service
    (List.map
       (fun d ->
         let routers =
           Array.to_list (Internet.domain inet d).Internet.router_ids
         in
         (d, Rng.sample rng (Rng.int_in rng 1 (List.length routers)) routers))
       doms);
  (* damage: links go, and only some touched domains notice *)
  let touched = Hashtbl.create 16 in
  List.iter
    (fun (a, b, _) ->
      if Rng.bernoulli rng 0.1 then begin
        Topology.Graph.remove_edge inet.Internet.graph a b;
        List.iter
          (fun r -> Hashtbl.replace touched (Internet.router inet r).Internet.rdomain ())
          [ a; b ]
      end)
    (Topology.Graph.edges inet.Internet.graph);
  let touched = List.sort Int.compare (Hashtbl.fold (fun d () acc -> d :: acc) touched []) in
  Forward.recompute_igps env
    ~domains:(List.filter (fun _ -> Rng.bool rng) touched);
  if Rng.bernoulli rng 0.4 then begin
    let d = Rng.int rng num in
    Interdomain.Bgp.withdraw_origin env.Forward.bgp ~domain:d
      (Internet.domain inet d).Internet.prefix;
    for _ = 1 to Rng.int_in rng 1 3 do
      ignore (Interdomain.Bgp.step env.Forward.bgp)
    done
  end;
  (env, service)

(* A damaged internet with every destination compared from every
   router. *)
let memo_case seed =
  let rng = Rng.create (Int64.of_int seed) in
  let env, service = damaged_env rng seed in
  let inet = env.Forward.inet in
  let routers = List.init (Internet.num_routers inet) Fun.id in
  let hosts = List.init (Array.length inet.Internet.endhosts) Fun.id in
  let dsts =
    (Service.address service :: Ipv4.of_string "9.9.9.9"
     :: List.map
          (fun r -> (Internet.router inet r).Internet.raddr)
          (Rng.sample rng 3 routers))
    @ List.map
        (fun h -> (Internet.endhost inet h).Internet.haddr)
        (Rng.sample rng 3 hosts)
  in
  let ttls = [ 0; 1; 2; 3; Rng.int_in rng 4 63; Packet.default_ttl ] in
  let tally = new_tally () in
  List.iter (fun dst -> compare_memo tally rng env dst ~ttls) dsts;
  tally

let prop_memo_equals_forward =
  QCheck.Test.make
    ~name:"toward/reach = forward + hop_count + path_metric (damaged internets)"
    ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let t = memo_case seed in
      (match t.mismatches with
      | [] -> ()
      | m :: _ ->
          QCheck.Test.fail_reportf "%d of %d walks differ, e.g. %s"
            (List.length t.mismatches) t.compared m);
      t.delivered > 0 && t.no_route > 0 && t.expired > 0)

(* the property's generator reaches the drops it is meant to: over a
   fixed sweep, damage (not only the unallocated address) makes some
   walk end in No_route *)
let test_memo_covers_damage () =
  let total = new_tally () in
  for seed = 1 to 8 do
    let t = memo_case seed in
    check Alcotest.(list string) "no mismatch" [] t.mismatches;
    total.delivered <- total.delivered + t.delivered;
    total.no_route_in_prefix <- total.no_route_in_prefix + t.no_route_in_prefix;
    total.expired <- total.expired + t.expired
  done;
  check Alcotest.bool "deliveries" true (total.delivered > 0);
  check Alcotest.bool "no-route inside a prefix" true (total.no_route_in_prefix > 0);
  check Alcotest.bool "ttl expiry" true (total.expired > 0)

(* A forwarding loop by hand: stub S2 is multihomed to peers T0 and T1.
   Two synchronous rounds after S2 withdraws its /16, T0 routes it via
   T1 and T1 via T0, so walks from the transits loop until the TTL
   runs out. The memo must terminate and say Ttl_expired, as the
   oracle does, at every TTL. *)
let test_memo_forwarding_loop () =
  let spec r e tr = { Internet.routers = r; endhosts = e; transit = tr } in
  let link a b rel_of_b = { Internet.a; b; rel_of_b } in
  let inet =
    Internet.build_custom ~seed:5L
      [| spec 3 0 true; spec 3 0 true; spec 2 1 false |]
      [
        link 0 1 Relationship.Peer;
        link 2 0 Relationship.Provider;
        link 2 1 Relationship.Provider;
      ]
  in
  let env = Forward.make_env inet in
  Interdomain.Bgp.withdraw_origin env.Forward.bgp ~domain:2
    (Internet.domain inet 2).Internet.prefix;
  ignore (Interdomain.Bgp.step env.Forward.bgp);
  ignore (Interdomain.Bgp.step env.Forward.bgp);
  let dst = (Internet.router inet (Internet.domain inet 2).Internet.router_ids.(0)).Internet.raddr in
  let tally = new_tally () in
  compare_memo tally (Rng.create 7L) env dst ~ttls:(List.init 70 Fun.id);
  check Alcotest.(list string) "memo = oracle" [] tally.mismatches;
  check Alcotest.bool "some walk loops" true (tally.looped > 0)

let test_bgpdyn_rejects_bad_domain () =
  let inet = Internet.small_example () in
  let dyn = Simcore.Bgpdyn.create inet in
  let engine = Engine.create () in
  let g = Addressing.anycast_global ~group:8 in
  let n = Internet.num_domains inet in
  List.iter
    (fun (name, f) ->
      List.iter
        (fun domain ->
          match f dyn engine ~domain g with
          | () -> Alcotest.failf "%s accepted domain %d" name domain
          | exception Invalid_argument msg ->
              check Alcotest.bool "names the function" true
                (String.starts_with ~prefix:("Bgpdyn." ^ name) msg))
        [ -1; n ])
    [ ("originate", Simcore.Bgpdyn.originate); ("withdraw", Simcore.Bgpdyn.withdraw) ]

(* ------------------------------------------------------------------ *)
(* Mixed IGP flavors                                                   *)

let mixed_env =
  lazy
    (Forward.make_env
       ~flavor_of:(fun d ->
         if d mod 2 = 0 then Routing.Igp.Linkstate_igp else Routing.Igp.Distvec_igp)
       (Internet.build Internet.default_params))

let test_mixed_igp_universal_reachability () =
  let env = Lazy.force mixed_env in
  let inet = env.Forward.inet in
  let hn = Array.length inet.Internet.endhosts in
  let rng = Topology.Rng.create 31L in
  for _ = 1 to 150 do
    let src = Topology.Rng.int rng hn and dst = Topology.Rng.int rng hn in
    let dsta = (Internet.endhost inet dst).Internet.haddr in
    let p = Packet.make_data ~src:Ipv4.any ~dst:dsta "x" in
    let trace = Forward.send_from_endhost env p ~endhost:src in
    match trace.Forward.outcome with
    | Forward.Endhost_accepted h -> check Alcotest.int "delivered" dst h
    | _ -> Alcotest.fail "mixed-IGP delivery failed"
  done

let test_mixed_igp_anycast_in_dv_domain () =
  let env = Lazy.force mixed_env in
  let inet = env.Forward.inet in
  (* domain 5 runs distance-vector under the mixed flavoring *)
  check Alcotest.bool "fixture sanity: domain 5 is DV" true
    (Routing.Igp.flavor env.Forward.igps.(5) = Routing.Igp.Distvec_igp);
  let group = Addressing.anycast_global ~group:8 in
  let member = (Internet.domain inet 5).Internet.router_ids.(0) in
  Routing.Igp.advertise_anycast env.Forward.igps.(5) ~group ~member;
  Interdomain.Bgp.originate env.Forward.bgp ~domain:5 group;
  ignore (Forward.reconverge env);
  let dst = Addressing.anycast_address group in
  (* local and remote clients all reach the DV-domain member *)
  check Alcotest.(option int) "local" (Some member)
    (Forward.anycast_member_reached env ~dst
       ~entry:(Internet.domain inet 5).Internet.router_ids.(3));
  check Alcotest.(option int) "remote" (Some member)
    (Forward.anycast_member_reached env ~dst
       ~entry:(Internet.domain inet 8).Internet.router_ids.(0));
  (* DV reveals no member identity to the control plane *)
  check Alcotest.bool "DV hides the member set" true
    (Routing.Igp.anycast_members env.Forward.igps.(5) ~group = None)

(* ------------------------------------------------------------------ *)
(* Lsproto                                                             *)

module Lsproto = Simcore.Lsproto

let ls_fixture ?(n = 10) ?(seed = 3L) () =
  let inet =
    Internet.build_custom ~seed
      [| { Internet.routers = n; endhosts = 1; transit = true } |]
      []
  in
  let proto = Lsproto.create inet ~domain:0 in
  let engine = Engine.create () in
  Lsproto.start proto engine;
  ignore (Engine.run engine);
  (inet, proto, engine)

let test_lsproto_synchronizes () =
  let _, proto, _ = ls_fixture () in
  check Alcotest.bool "all LSDBs identical" true (Lsproto.lsdb_synchronized proto)

let test_lsproto_views_match_linkstate () =
  let inet, proto, _ = ls_fixture () in
  let ls = Linkstate.compute inet ~domain:0 in
  let routers = Linkstate.routers ls in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check (Alcotest.float 1e-9)
            (Printf.sprintf "view %d->%d" a b)
            (Linkstate.distance ls ~src:a ~dst:b)
            (Lsproto.distance_view proto ~router:a ~dst:b))
        routers)
    routers

let test_lsproto_flood_cost_bounded () =
  let inet, proto, _ = ls_fixture () in
  let intra_edges = Topology.Graph.edge_count inet.Internet.graph in
  let n = Array.length (Internet.domain inet 0).Internet.router_ids in
  let s = Lsproto.stats proto in
  check Alcotest.int "one origination per router" n s.Lsproto.originations;
  (* each LSA crosses each link at most twice (once per direction) *)
  check Alcotest.bool "message bound" true
    (s.Lsproto.messages <= n * 2 * intra_edges);
  check Alcotest.bool "messages were sent" true (s.Lsproto.messages > 0)

let test_lsproto_anycast_propagates () =
  let inet, proto, engine = ls_fixture () in
  let group = Addressing.anycast_global ~group:8 in
  let member = (Internet.domain inet 0).Internet.router_ids.(3) in
  Lsproto.advertise_anycast proto engine ~router:member group;
  (* before the flood runs, a remote router may not know yet *)
  let far =
    (Internet.domain inet 0).Internet.router_ids.(7)
  in
  ignore (Engine.run engine);
  check Alcotest.(list int) "everyone sees the member" [ member ]
    (Lsproto.members_view proto ~router:far group);
  check Alcotest.bool "synchronized after flood" true
    (Lsproto.lsdb_synchronized proto);
  (* withdrawal also floods *)
  Lsproto.withdraw_anycast proto engine ~router:member group;
  ignore (Engine.run engine);
  check Alcotest.(list int) "member gone from views" []
    (Lsproto.members_view proto ~router:far group)

let test_lsproto_convergence_latency () =
  (* with unit link delay, an update reaches everyone within the
     origin's eccentricity *)
  let inet, proto, engine = ls_fixture ~n:16 () in
  let group = Addressing.anycast_global ~group:9 in
  let member = (Internet.domain inet 0).Internet.router_ids.(0) in
  let t0 = Engine.now engine in
  Lsproto.advertise_anycast proto engine ~router:member group;
  ignore (Engine.run engine);
  let ecc =
    Routing.Spt.eccentricity inet.Internet.graph ~src:member ~allow:(fun _ -> true)
  in
  let s = Lsproto.stats proto in
  check Alcotest.bool "flood finishes within eccentricity" true
    (s.Lsproto.last_change -. t0 <= float_of_int ecc +. 1e-9)

let test_lsproto_link_failure_reconverges () =
  let inet, proto, engine = ls_fixture ~n:10 ~seed:6L () in
  (* remove a cycle edge so the domain stays connected *)
  let g = inet.Internet.graph in
  let edge =
    List.find_opt
      (fun (a, b, _) ->
        Topology.Graph.remove_edge g a b;
        let still = Topology.Graph.is_connected g in
        if not still then Topology.Graph.add_edge g a b 1.0;
        still)
      (Topology.Graph.edges g)
  in
  match edge with
  | None -> Alcotest.fail "no removable edge"
  | Some (a, b, _) ->
      Lsproto.link_failed proto engine a b;
      ignore (Engine.run engine);
      check Alcotest.bool "synchronized after failure" true
        (Lsproto.lsdb_synchronized proto);
      (* every router's view equals routing recomputed on the mutated
         graph *)
      let ls = Linkstate.compute inet ~domain:0 in
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              check (Alcotest.float 1e-9)
                (Printf.sprintf "post-failure view %d->%d" src dst)
                (Linkstate.distance ls ~src ~dst)
                (Lsproto.distance_view proto ~router:src ~dst))
            (Linkstate.routers ls))
        (Linkstate.routers ls)

(* ------------------------------------------------------------------ *)
(* Fib                                                                 *)

module Fib = Simcore.Fib

let anycast_env () =
  let env = Forward.make_env (Internet.build Internet.default_params) in
  (* some anycast state so group entries are exercised too *)
  let group = Addressing.anycast_global ~group:8 in
  let dom = Internet.domain env.Forward.inet 5 in
  Array.iter
    (fun m -> Routing.Igp.advertise_anycast env.Forward.igps.(5) ~group ~member:m)
    dom.Internet.router_ids;
  Interdomain.Bgp.originate env.Forward.bgp ~domain:5 group;
  ignore (Forward.reconverge env);
  env

let fib_env =
  lazy
    (let env = anycast_env () in
     (env, Fib.compile env))

module Lpm = Netcore.Lpm
module Prefix = Netcore.Prefix

(* [b] binds what [a] binds, and looks up as [a] does at each binding's
   first and last address and one past the last: where a table's
   merged intervals start and end. *)
let same_table a b =
  let lookups_agree addr =
    match (Lpm.lookup_value addr a, Lpm.lookup_value addr b) with
    | Some x, Some y -> Fib.action_equal x y
    | None, None -> true
    | _ -> false
  in
  List.equal
    (fun (p, x) (q, y) -> Prefix.equal p q && Fib.action_equal x y)
    (Lpm.bindings a) (Lpm.bindings b)
  && Lpm.cardinal a = Lpm.cardinal b
  && List.for_all
       (fun (p, _) ->
         let first = Ipv4.to_int (Prefix.network p) in
         let last = first + Prefix.size p - 1 in
         List.for_all
           (fun x -> lookups_agree (Ipv4.of_int x))
           (first :: last :: (if last < 0xFFFF_FFFF then [ last + 1 ] else [])))
       (Lpm.bindings a)

let test_fib_router_table_equals_compile () =
  (* a private env: the membership change below must not leak into the
     shared fixture *)
  let env = anycast_env () in
  let inet = env.Forward.inet in
  let same_tables what =
    let fib = Fib.compile env and c = Fib.compiler env in
    (* descending, so the shared per-domain egress lists are built from
       a different router than in [compile] *)
    for r = Internet.num_routers inet - 1 downto 0 do
      check Alcotest.bool
        (Printf.sprintf "%s: router %d" what r)
        true
        (same_table (Fib.table fib ~router:r) (Fib.router_table c r))
    done
  in
  same_tables "initial";
  (* membership change: domain 5 loses half its members and domain 9
     joins the group, so both IGP anycast and BGP entries move *)
  let group = Addressing.anycast_global ~group:8 in
  Array.iteri
    (fun i m ->
      if i mod 2 = 0 then
        Routing.Igp.withdraw_anycast env.Forward.igps.(5) ~group ~member:m)
    (Internet.domain inet 5).Internet.router_ids;
  Array.iter
    (fun m -> Routing.Igp.advertise_anycast env.Forward.igps.(9) ~group ~member:m)
    (Internet.domain inet 9).Internet.router_ids;
  Interdomain.Bgp.originate env.Forward.bgp ~domain:9 group;
  ignore (Forward.reconverge env);
  same_tables "after membership change"

(* The reference for a compiled table: the binding collection
   [Fib.router_table] made before per-domain plans, one IGP query per
   binding — BGP egress routes (each RIB prefix's [Bgp.egress_link]
   lookup), then anycast groups, then the domain's routers and
   endhosts — added in that order to a trie. Also says whether the
   router binds fewer prefixes than its domain's plan because some
   [Igp.next_hop] answered [None], and whether it binds a prefix
   twice. *)
let model_table (env : Forward.env) r =
  let inet = env.Forward.inet in
  let d = (Internet.router inet r).Internet.rdomain in
  let dom = Internet.domain inet d in
  let igp = env.Forward.igps.(d) in
  let egress =
    List.filter_map
      (fun route ->
        let p = route.Interdomain.Bgp.prefix in
        Option.map
          (fun link -> (p, link))
          (Interdomain.Bgp.egress_link env.Forward.bgp ~domain:d p))
      (Interdomain.Bgp.rib env.Forward.bgp ~domain:d)
  in
  let host a = Prefix.make a 32 in
  let bindings = ref [] and skipped = ref false in
  let add p a = bindings := (p, a) :: !bindings in
  let toward p dst =
    match Routing.Igp.next_hop igp ~src:r ~dst with
    | Some nh -> add p (Fib.Next_hop nh)
    | None -> skipped := true
  in
  List.iter
    (fun (p, link) ->
      if link.Internet.a_router = r then add p (Fib.Next_hop link.Internet.b_router)
      else toward p link.Internet.a_router)
    egress;
  List.iter
    (fun g ->
      match Routing.Igp.anycast_route igp ~src:r ~group:g with
      | Some a when a.Routing.Igp.deliver -> add g Fib.Local
      | Some a -> add g (Fib.Next_hop a.Routing.Igp.next_hop)
      | None -> ())
    (Routing.Igp.groups igp);
  Array.iter
    (fun r2 ->
      let p = host (Internet.router inet r2).Internet.raddr in
      if r2 = r then add p Fib.Local else toward p r2)
    dom.Internet.router_ids;
  Array.iter
    (fun h ->
      let e = Internet.endhost inet h in
      let p = host e.Internet.haddr in
      if e.Internet.access_router = r then add p (Fib.Attached h)
      else toward p e.Internet.access_router)
    dom.Internet.endhost_ids;
  let bindings = List.rev !bindings in
  (* the domain's plan: every prefix any of its routers may bind *)
  let plan =
    List.map fst egress @ Routing.Igp.groups igp
    @ List.map
        (fun r2 -> host (Internet.router inet r2).Internet.raddr)
        (Array.to_list dom.Internet.router_ids)
    @ List.map
        (fun h -> host (Internet.endhost inet h).Internet.haddr)
        (Array.to_list dom.Internet.endhost_ids)
  in
  let distinct ps = List.length (List.sort_uniq Prefix.compare ps) in
  let table = List.fold_left (fun t (p, a) -> Lpm.add p a t) Lpm.empty bindings in
  ( table,
    !skipped && Lpm.cardinal table < distinct plan,
    distinct (List.map fst bindings) < List.length bindings )

type compile_tally = { mutable fewer : int; mutable twice : int; mutable wrong : string list }

(* Every router's table on a damaged internet (the memo generator's)
   against the model; then, after withdrawing one more /16 and adding
   an anycast member in a domain that BGP may already route the group
   to elsewhere (so its routers bind the group's prefix twice), every
   router's table from a [recompiler] of the first compiler, which
   reuses the plans of the domains whose prefix lists did not change. *)
let compile_case seed =
  let rng = Rng.create (Int64.of_int seed) in
  let env, service = damaged_env rng seed in
  let inet = env.Forward.inet in
  let tally = { fewer = 0; twice = 0; wrong = [] } in
  let compare what c =
    for r = 0 to Internet.num_routers inet - 1 do
      let model, fewer, twice = model_table env r in
      if fewer then tally.fewer <- tally.fewer + 1;
      if twice then tally.twice <- tally.twice + 1;
      if not (same_table model (Fib.router_table c r)) then
        tally.wrong <- Printf.sprintf "%s: router %d" what r :: tally.wrong
    done
  in
  let first = Fib.compiler env in
  compare "compile" first;
  let num = Internet.num_domains inet in
  let d = Rng.int rng num in
  Interdomain.Bgp.withdraw_origin env.Forward.bgp ~domain:d
    (Internet.domain inet d).Internet.prefix;
  ignore (Forward.reconverge env);
  let d = Rng.int rng num in
  let routers = (Internet.domain inet d).Internet.router_ids in
  Routing.Igp.advertise_anycast env.Forward.igps.(d) ~group:(Service.group service)
    ~member:routers.(Rng.int rng (Array.length routers));
  compare "recompile" (Fib.recompiler first);
  tally

let prop_compile_equals_model =
  QCheck.Test.make ~name:"compiled tables = sequential-add model (damaged internets)"
    ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      match (compile_case seed).wrong with
      | [] -> true
      | w :: _ as all -> QCheck.Test.fail_reportf "%d tables differ, e.g. %s" (List.length all) w)

(* The property's generator reaches the two cases a per-domain plan
   must handle: a router that binds fewer prefixes than its plan, and
   a prefix bound twice. *)
let test_compile_covers_cases () =
  let fewer = ref 0 and twice = ref 0 in
  for seed = 1 to 12 do
    let t = compile_case seed in
    check Alcotest.(list string) "no table differs" [] t.wrong;
    fewer := !fewer + t.fewer;
    twice := !twice + t.twice
  done;
  Printf.printf "routers binding fewer prefixes than their plan: %d; binding a prefix twice: %d\n"
    !fewer !twice;
  check Alcotest.bool "fewer than the plan" true (!fewer > 0);
  check Alcotest.bool "a prefix bound twice" true (!twice > 0)

let test_fib_agrees_with_decide () =
  let env, fib = Lazy.force fib_env in
  let inet = env.Forward.inet in
  let rng = Topology.Rng.create 21L in
  let samples =
    List.init 300 (fun _ ->
        let entry = Topology.Rng.int rng (Internet.num_routers inet) in
        let dst =
          match Topology.Rng.int rng 4 with
          | 0 ->
              (Internet.router inet (Topology.Rng.int rng (Internet.num_routers inet)))
                .Internet.raddr
          | 1 ->
              (Internet.endhost inet
                 (Topology.Rng.int rng (Array.length inet.Internet.endhosts)))
                .Internet.haddr
          | 2 -> Addressing.anycast_address (Addressing.anycast_global ~group:8)
          | _ -> Ipv4.of_string "9.9.9.9" (* unrouted *)
        in
        (entry, dst))
  in
  match Fib.agrees_with_decide fib env ~samples with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_fib_sizes_sane () =
  let env, fib = Lazy.force fib_env in
  let inet = env.Forward.inet in
  for r = 0 to Internet.num_routers inet - 1 do
    let d = (Internet.router inet r).Internet.rdomain in
    let dom = Internet.domain inet d in
    (* at least: every in-domain router and endhost, plus the external
       prefixes the domain's RIB carries *)
    let minimum =
      Array.length dom.Internet.router_ids
      + Array.length dom.Internet.endhost_ids
    in
    check Alcotest.bool "enough entries" true (Fib.size fib ~router:r >= minimum)
  done;
  check Alcotest.bool "total is the per-router sum" true
    (Fib.total_entries fib
    = List.fold_left ( + ) 0
        (List.init (Internet.num_routers inet) (fun r -> Fib.size fib ~router:r)))

let test_fib_forward_delivers () =
  let env, fib = Lazy.force fib_env in
  let inet = env.Forward.inet in
  let dst = (Internet.endhost inet 40).Internet.haddr in
  let p = Netcore.Packet.make_data ~src:Ipv4.any ~dst "x" in
  let trace = Fib.forward fib env p ~entry:0 in
  match trace.Forward.outcome with
  | Forward.Endhost_accepted 40 -> ()
  | _ -> Alcotest.fail "fib forwarding failed to deliver"

(* ------------------------------------------------------------------ *)
(* Bgpdyn                                                              *)

module Bgpdyn = Simcore.Bgpdyn

let test_bgpdyn_matches_synchronous () =
  let inet = Internet.build Internet.default_params in
  let dyn = Bgpdyn.create inet in
  let engine = Engine.create () in
  Bgpdyn.originate_all_domain_prefixes dyn engine;
  ignore (Engine.run engine);
  (match Bgpdyn.agrees_with_synchronous dyn with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let s = Bgpdyn.stats dyn in
  check Alcotest.bool "updates flowed" true (s.Bgpdyn.updates > 0);
  check Alcotest.bool "every domain changed at least once" true
    (s.Bgpdyn.best_changes >= Internet.num_domains inet)

let test_bgpdyn_matches_synchronous_random_seeds () =
  List.iter
    (fun seed ->
      let params = { Internet.default_params with Internet.seed } in
      let inet = Internet.build params in
      let dyn = Bgpdyn.create ~mrai:1.0 inet in
      let engine = Engine.create () in
      Bgpdyn.originate_all_domain_prefixes dyn engine;
      ignore (Engine.run engine);
      match Bgpdyn.agrees_with_synchronous dyn with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    [ 7L; 1234L; 777L ]

let test_bgpdyn_incremental_origination () =
  let inet = Internet.build Internet.default_params in
  let dyn = Bgpdyn.create inet in
  let engine = Engine.create () in
  Bgpdyn.originate_all_domain_prefixes dyn engine;
  ignore (Engine.run engine);
  (* a new anycast prefix appears later and still reaches everyone *)
  let g = Addressing.anycast_global ~group:8 in
  Bgpdyn.originate dyn engine ~domain:5 g;
  ignore (Engine.run engine);
  for d = 0 to Internet.num_domains inet - 1 do
    match Bgpdyn.best_path dyn ~domain:d g with
    | Some path ->
        check Alcotest.bool "terminates at the origin" true
          (List.nth path (List.length path - 1) = 5)
    | None -> Alcotest.fail (Printf.sprintf "domain %d missing anycast route" d)
  done;
  match Bgpdyn.agrees_with_synchronous dyn with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_bgpdyn_mrai_tradeoff () =
  (* larger MRAI coalesces updates: fewer messages, later quiescence *)
  let run mrai =
    let inet = Internet.build Internet.default_params in
    let dyn = Bgpdyn.create ~mrai inet in
    let engine = Engine.create () in
    Bgpdyn.originate_all_domain_prefixes dyn engine;
    ignore (Engine.run engine);
    Bgpdyn.stats dyn
  in
  let fast = run 0.01 and slow = run 5.0 in
  check Alcotest.bool "mrai reduces update count" true
    (slow.Bgpdyn.updates <= fast.Bgpdyn.updates);
  check Alcotest.bool "mrai delays quiescence" true
    (slow.Bgpdyn.last_change >= fast.Bgpdyn.last_change)

(* ------------------------------------------------------------------ *)
(* Engine timer handles                                                *)

let test_engine_timer_cancel () =
  let e = Engine.create () in
  let fired = ref [] in
  let h1 = Engine.timer e ~delay:1.0 (fun _ -> fired := 1 :: !fired) in
  let h2 = Engine.timer e ~delay:2.0 (fun _ -> fired := 2 :: !fired) in
  let h3 = Engine.timer e ~delay:3.0 (fun _ -> fired := 3 :: !fired) in
  check Alcotest.int "three pending" 3 (Engine.pending e);
  Engine.cancel e h2;
  check Alcotest.bool "cancelled handle not live" false (Engine.live h2);
  check Alcotest.bool "other handles live" true
    (Engine.live h1 && Engine.live h3);
  check Alcotest.int "pending excludes the cancelled event" 2 (Engine.pending e);
  check Alcotest.int "only live events run" 2 (Engine.run e);
  check Alcotest.(list int) "cancelled event never fires" [ 1; 3 ]
    (List.rev !fired);
  check Alcotest.bool "fired handle no longer live" false (Engine.live h1);
  (* double cancel and cancel-after-fire are no-ops *)
  Engine.cancel e h2;
  Engine.cancel e h1;
  check Alcotest.int "queue drained" 0 (Engine.pending e)

let test_engine_cancel_from_action () =
  (* a handler disarming a peer co-scheduled at the same instant — the
     keepalive pattern: the message arrives, the hold timer must die *)
  let e = Engine.create () in
  let fired = ref 0 in
  let peer = ref None in
  let _ =
    Engine.timer e ~delay:1.0 (fun e ->
        incr fired;
        match !peer with Some h -> Engine.cancel e h | None -> ())
  in
  peer := Some (Engine.timer e ~delay:1.0 (fun _ -> incr fired));
  ignore (Engine.run e);
  check Alcotest.int "peer cancelled before its turn" 1 !fired;
  check Alcotest.int "nothing left queued" 0 (Engine.pending e)

let test_engine_timer_rearm () =
  (* cancel + re-arm in a loop, the hold-timer life cycle *)
  let e = Engine.create () in
  let expired = ref 0 in
  let hold = ref None in
  let arm e = hold := Some (Engine.timer e ~delay:3.0 (fun _ -> incr expired)) in
  let rec hello n e =
    (match !hold with Some h -> Engine.cancel e h | None -> ());
    arm e;
    if n > 0 then Engine.schedule e ~delay:1.0 (hello (n - 1))
  in
  hello 5 e;
  ignore (Engine.run e);
  check Alcotest.int "only the last armed timer expires" 1 !expired

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)

module Faults = Simcore.Faults

let flaky ?(dup = 0.0) ?(jitter = 0.0) loss ~src:_ ~dst:_ =
  Faults.lossy ~dup ~jitter loss

let test_faults_deterministic () =
  (* same seed, same sends: identical outcomes, deliveries and stats *)
  let trial () =
    let f = Faults.create ~policy:(flaky ~dup:0.2 ~jitter:1.0 0.3) 99L in
    let e = Engine.create () in
    let log = ref [] in
    for i = 1 to 50 do
      let o =
        Faults.send f e ~src:(i mod 4)
          ~dst:((i + 1) mod 4)
          ~delay:1.0
          (fun e -> log := (i, Engine.now e) :: !log)
      in
      ignore o
    done;
    ignore (Engine.run e);
    (List.rev !log, Faults.stats f)
  in
  let log1, s1 = trial () and log2, s2 = trial () in
  check Alcotest.int "same delivery count" (List.length log1)
    (List.length log2);
  List.iter2
    (fun (i1, t1) (i2, t2) ->
      check Alcotest.int "same delivery order" i1 i2;
      check (Alcotest.float 1e-12) "same delivery time" t1 t2)
    log1 log2;
  check Alcotest.int "same losses" s1.Faults.lost s2.Faults.lost;
  check Alcotest.int "same duplicates" s1.Faults.duplicated
    s2.Faults.duplicated;
  check Alcotest.bool "losses actually happened" true (s1.Faults.lost > 0);
  check Alcotest.bool "duplicates actually happened" true
    (s1.Faults.duplicated > 0)

let test_faults_link_flap () =
  let f = Faults.create 1L in
  let e = Engine.create () in
  let got = ref 0 in
  check Alcotest.bool "links start up" true (Faults.link_up f 0 1);
  Faults.set_link_down f 0 1;
  check Alcotest.bool "down is undirected" false (Faults.link_up f 1 0);
  (match Faults.send f e ~src:0 ~dst:1 ~delay:1.0 (fun _ -> incr got) with
  | Faults.Cut -> ()
  | _ -> Alcotest.fail "send over a down link must report Cut");
  Faults.set_link_up f 0 1;
  (match Faults.send f e ~src:0 ~dst:1 ~delay:1.0 (fun _ -> incr got) with
  | Faults.Sent -> ()
  | _ -> Alcotest.fail "send over a restored link must report Sent");
  ignore (Engine.run e);
  check Alcotest.int "only the post-restore message arrives" 1 !got;
  (* scripted flap: sends inside the window are cut, after it sent *)
  Faults.flap_link f e ~a:2 ~b:3 ~down_at:(Engine.now e +. 1.0)
    ~up_at:(Engine.now e +. 2.0);
  let outcomes = ref [] in
  List.iter
    (fun dt ->
      Engine.schedule e ~delay:dt (fun e ->
          outcomes :=
            Faults.send f e ~src:2 ~dst:3 ~delay:0.1 (fun _ -> ())
            :: !outcomes))
    [ 0.5; 1.5; 2.5 ];
  ignore (Engine.run e);
  match List.rev !outcomes with
  | [ Faults.Sent; Faults.Cut; Faults.Sent ] -> ()
  | _ -> Alcotest.fail "flap window must cut exactly the middle send"

let test_faults_crash_restart () =
  let f = Faults.create 2L in
  let e = Engine.create () in
  let crashes = ref [] and restarts = ref [] in
  Faults.on_crash f (fun _ n -> crashes := n :: !crashes);
  Faults.on_restart f (fun _ n -> restarts := n :: !restarts);
  Faults.schedule_outage f e ~node:7 ~at:1.0 ~duration:2.0;
  let in_flight = ref 0 and late = ref 0 in
  (* sent before the crash, delivered while the receiver is down *)
  Engine.schedule e ~delay:0.5 (fun e ->
      ignore (Faults.send f e ~src:0 ~dst:7 ~delay:1.0 (fun _ -> incr in_flight)));
  (* sent while down: Dead at send time *)
  Engine.schedule e ~delay:2.0 (fun e ->
      match Faults.send f e ~src:0 ~dst:7 ~delay:0.1 (fun _ -> ()) with
      | Faults.Dead -> ()
      | _ -> Alcotest.fail "send to a crashed node must report Dead");
  (* sent after the restart: delivered *)
  Engine.schedule e ~delay:3.5 (fun e ->
      ignore (Faults.send f e ~src:0 ~dst:7 ~delay:0.1 (fun _ -> incr late)));
  ignore (Engine.run e);
  check Alcotest.(list int) "crash handler ran once" [ 7 ] !crashes;
  check Alcotest.(list int) "restart handler ran once" [ 7 ] !restarts;
  check Alcotest.int "in-flight message died with the receiver" 0 !in_flight;
  check Alcotest.int "post-restart message delivered" 1 !late;
  let s = Faults.stats f in
  check Alcotest.int "dead accounting" 2 (s.Faults.dead + s.Faults.cut)

let test_faults_fifo_channel () =
  (* with ~fifo, heavy jitter cannot reorder a directed channel *)
  let f = Faults.create ~policy:(flaky ~jitter:5.0 0.0) ~fifo:true 3L in
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 20 do
    ignore (Faults.send f e ~src:0 ~dst:1 ~delay:0.1 (fun _ -> log := i :: !log))
  done;
  ignore (Engine.run e);
  check Alcotest.(list int) "deliveries in send order"
    (List.init 20 (fun i -> i + 1))
    (List.rev !log)

let test_fifo_never_reorders_prop =
  (* the property behind the drill subsystem's session fabric: however
     the seed, the jitter draws and the send pattern fall, a [~fifo]
     directed channel delivers in send order and counts zero
     reorderings *)
  QCheck.Test.make ~name:"fifo channels never reorder under jitter" ~count:60
    QCheck.(
      pair (int_bound 10000)
        (list_of_size (Gen.int_range 2 50) (pair (int_bound 2) (int_bound 100))))
    (fun (seed, sends) ->
      let f =
        Faults.create
          ~policy:(flaky ~jitter:5.0 0.0)
          ~fifo:true
          (Int64.of_int (seed + 1))
      in
      let e = Engine.create () in
      let log = ref [] in
      List.iteri
        (fun i (src, d) ->
          let delay = 0.01 +. (float_of_int d /. 50.0) in
          ignore
            (Faults.send f e ~src ~dst:9 ~delay (fun _ ->
                 log := (src, i) :: !log)))
        sends;
      ignore (Engine.run e);
      (* per directed channel, send sequence numbers must ascend *)
      let last_seen = Hashtbl.create 4 in
      let in_order =
        List.for_all
          (fun (src, i) ->
            let prev =
              Option.value (Hashtbl.find_opt last_seen src) ~default:(-1)
            in
            Hashtbl.replace last_seen src i;
            prev < i)
          (List.rev !log)
      in
      in_order && (Faults.stats f).Faults.reordered = 0)

let test_faults_reordered_counter () =
  (* the same jitter on a datagram channel must overtake, and the
     fabric must count each overtaking it schedules *)
  let f = Faults.create ~policy:(flaky ~jitter:5.0 0.0) 7L in
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 40 do
    ignore
      (Faults.send f e ~src:0 ~dst:1 ~delay:0.01 (fun _ -> log := i :: !log))
  done;
  ignore (Engine.run e);
  let s = Faults.stats f in
  check Alcotest.bool "jitter reorders without fifo" true (s.Faults.reordered > 0);
  check Alcotest.bool "the log shows the overtakings" false
    (List.equal Int.equal (List.init 40 (fun i -> i + 1)) (List.rev !log));
  check Alcotest.int "every send still lands" 40 s.Faults.delivered

let test_faults_crash_at_delivery_instant () =
  (* verdicts are decided at send time: a message dispatched to a live
     receiver reports Sent even when the receiver crashes at exactly
     the scheduled delivery instant — the crash event, scheduled
     first, wins the tie and the handoff lands dead, not delivered *)
  let f = Faults.create 31L in
  let e = Engine.create () in
  Faults.schedule_outage f e ~node:5 ~at:2.0 ~duration:1.0;
  let got = ref 0 in
  let verdict = ref Faults.Lost in
  Engine.schedule_at e ~time:1.0 (fun e ->
      verdict := Faults.send f e ~src:0 ~dst:5 ~delay:1.0 (fun _ -> incr got));
  (* and one sent after the restart, which must go through *)
  Engine.schedule_at e ~time:3.5 (fun e ->
      ignore (Faults.send f e ~src:0 ~dst:5 ~delay:0.1 (fun _ -> incr got)));
  ignore (Engine.run e);
  (match !verdict with
  | Faults.Sent -> ()
  | _ -> Alcotest.fail "send to a live receiver is verdict Sent");
  let s = Faults.stats f in
  check Alcotest.int "crashed receiver processes nothing at the instant" 1 !got;
  check Alcotest.int "the in-flight handoff lands dead" 1 s.Faults.dead;
  check Alcotest.int "only the post-restart send delivers" 1 s.Faults.delivered

let outcome_str = function
  | Faults.Sent -> "sent"
  | Faults.Lost -> "lost"
  | Faults.Cut -> "cut"
  | Faults.Dead -> "dead"
  | Faults.Shed -> "shed"

let test_faults_flap_train () =
  (* one call scripts the whole train: down at start + i*period, up
     down_for later — what E32 and the flapping-provider drill ride *)
  let f = Faults.create 17L in
  let e = Engine.create () in
  Faults.schedule_flap_train f e ~a:2 ~b:3 ~start:1.0 ~cycles:3 ~period:2.0
    ~down_for:1.0;
  let verdicts = ref [] in
  List.iter
    (fun t ->
      Engine.schedule_at e ~time:t (fun e ->
          let v = Faults.send f e ~src:2 ~dst:3 ~delay:0.01 (fun _ -> ()) in
          verdicts := outcome_str v :: !verdicts))
    [ 0.5; 1.5; 2.5; 3.5; 4.5; 5.5; 6.5 ];
  ignore (Engine.run e);
  check
    Alcotest.(list string)
    "probes alternate with the train"
    [ "sent"; "cut"; "sent"; "cut"; "sent"; "cut"; "sent" ]
    (List.rev !verdicts);
  let invalid g =
    match g () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () ->
      Faults.schedule_flap_train f e ~a:0 ~b:1 ~start:0.0 ~cycles:0 ~period:1.0
        ~down_for:0.5);
  invalid (fun () ->
      Faults.schedule_flap_train f e ~a:0 ~b:1 ~start:0.0 ~cycles:1 ~period:1.0
        ~down_for:1.5);
  invalid (fun () ->
      Faults.schedule_flap_train f e ~a:0 ~b:1 ~start:0.0 ~cycles:1 ~period:1.0
        ~down_for:0.0)

let test_faults_capacity_shed () =
  (* the pure-overload fabric (DESIGN.md §13): a per-pair budget of 2
     per unit-time window, with keepalives allowed twice that — bulk
     sheds first, keepalives ride until the doubled budget is spent,
     and a fresh window restores everything *)
  let f = Faults.create ~policy:(fun ~src:_ ~dst:_ -> Faults.limited 2) 5L in
  let e = Engine.create () in
  let send ?prio () =
    outcome_str (Faults.send ?prio f e ~src:0 ~dst:1 ~delay:0.01 (fun _ -> ()))
  in
  check Alcotest.string "first bulk admitted" "sent" (send ());
  check Alcotest.string "second bulk admitted" "sent" (send ());
  check Alcotest.string "third bulk shed" "shed" (send ());
  check Alcotest.string "keepalive rides the doubled budget" "sent"
    (send ~prio:Faults.Keepalive ());
  check Alcotest.string "second keepalive too" "sent"
    (send ~prio:Faults.Keepalive ());
  check Alcotest.string "doubled budget spent: keepalive shed" "shed"
    (send ~prio:Faults.Keepalive ());
  (* the reverse direction and other pairs have their own budgets *)
  check Alcotest.string "reverse direction unaffected" "sent"
    (outcome_str (Faults.send f e ~src:1 ~dst:0 ~delay:0.01 (fun _ -> ())));
  (* a later window starts a fresh budget *)
  Engine.schedule_at e ~time:1.5 (fun _ ->
      check Alcotest.string "fresh window, fresh budget" "sent" (send ()));
  ignore (Engine.run e);
  let s = Faults.stats f in
  check Alcotest.int "sheds counted" 2 s.Faults.shed;
  check Alcotest.int "sheds not counted as sent" 6 s.Faults.sent;
  match Faults.limited 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "limited 0 must be refused"

(* ------------------------------------------------------------------ *)
(* Bgpdyn under faults                                                 *)

let test_bgpdyn_converges_under_loss () =
  (* loss up to 0.5 with TCP-reset resync (no timers): the final state
     must still equal the synchronous oracle *)
  List.iter
    (fun loss ->
      let inet = Internet.build Internet.default_params in
      let faults = Faults.create ~policy:(flaky loss) ~fifo:true 11L in
      let dyn = Bgpdyn.create ~faults inet in
      let engine = Engine.create () in
      Bgpdyn.originate_all_domain_prefixes dyn engine;
      Engine.schedule_at engine ~time:60.0 (fun _ ->
          Faults.set_policy faults (fun ~src:_ ~dst:_ -> Faults.reliable));
      ignore (Engine.run engine);
      (match Bgpdyn.agrees_with_synchronous dyn with
      | Ok () -> ()
      | Error msg ->
          Alcotest.fail (Printf.sprintf "loss %.1f: %s" loss msg));
      if loss > 0.0 then
        check Alcotest.bool "losses forced session resets" true
          ((Bgpdyn.stats dyn).Bgpdyn.resets > 0))
    [ 0.2; 0.5 ]

let test_bgpdyn_crash_restart_converges () =
  (* ~20% of domains crash and restart under 20% loss, with the full
     keepalive/hold machinery running; after faults cease the state
     must equal the synchronous oracle *)
  let inet = Internet.build Internet.default_params in
  let n = Internet.num_domains inet in
  let faults = Faults.create ~policy:(flaky ~jitter:0.05 0.2) ~fifo:true 13L in
  let dyn = Bgpdyn.create ~jitter:1.0 ~faults inet in
  let engine = Engine.create () in
  Bgpdyn.enable_timers dyn engine ~keepalive:1.0 ~hold:3.5 ~until:40.0;
  Bgpdyn.originate_all_domain_prefixes dyn engine;
  let rng = Topology.Rng.create 14L in
  let victims = Topology.Rng.sample rng (n / 5) (List.init n Fun.id) in
  check Alcotest.bool "a fifth of the domains crash" true
    (List.length victims >= 5);
  List.iteri
    (fun i d ->
      Faults.schedule_outage faults engine ~node:d
        ~at:(8.0 +. float_of_int i)
        ~duration:4.0)
    victims;
  Engine.schedule_at engine ~time:25.0 (fun _ ->
      Faults.set_policy faults (fun ~src:_ ~dst:_ -> Faults.reliable));
  ignore (Engine.run engine);
  (match Bgpdyn.agrees_with_synchronous dyn with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let s = Bgpdyn.stats dyn in
  check Alcotest.bool "keepalives flowed" true (s.Bgpdyn.keepalives > 0);
  check Alcotest.bool "crashes tore sessions down" true (s.Bgpdyn.resets > 0)

let test_bgpdyn_survives_overload () =
  (* a capacity-limited fabric sheds update bursts; shed is overload,
     not failure, so sessions answer with retry/backoff instead of
     resets and the protocol still reaches the synchronous oracle
     once the load clears (DESIGN.md §13) *)
  let inet = Internet.build Internet.default_params in
  let faults =
    Faults.create ~fifo:true
      ~policy:(fun ~src:_ ~dst:_ -> Faults.limited 3)
      19L
  in
  let dyn = Bgpdyn.create ~faults inet in
  let engine = Engine.create () in
  Bgpdyn.originate_all_domain_prefixes dyn engine;
  Engine.schedule_at engine ~time:120.0 (fun _ ->
      Faults.set_policy faults (fun ~src:_ ~dst:_ -> Faults.reliable));
  ignore (Engine.run engine);
  (match Bgpdyn.agrees_with_synchronous dyn with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let s = Bgpdyn.stats dyn in
  let f = Faults.stats faults in
  check Alcotest.bool "the fabric shed update traffic" true (f.Faults.shed > 0);
  check Alcotest.bool "sheds were answered with retries" true
    (s.Bgpdyn.shed_retries > 0);
  check Alcotest.int "overload alone resets no session" 0 s.Bgpdyn.resets

(* ------------------------------------------------------------------ *)
(* Bgpdyn on faulty generated internets vs a fresh Bgp.converge        *)

module Bgp = Interdomain.Bgp

(* what the property's cases exercised, summed over its cases *)
type bgp_tally = {
  mutable cases : int;
  mutable reset : int;  (* cases with a session reset *)
  mutable crashed : int;  (* cases where a domain crashed and restarted *)
  mutable shed : int;  (* cases where the fabric shed a message *)
  mutable withdrew : int;  (* cases that withdrew an originated prefix *)
  mutable refused : int;  (* cases whose filter refused an originated prefix *)
}

let path_string = function
  | None -> "-"
  | Some path -> String.concat "," (List.map string_of_int path)

(* One random case: a transit-stub or preferential-attachment internet,
   a lossy, jittery FIFO fabric (capacity-limited or slow on some cases),
   crashes and restarts, hold timers on some cases, anycast prefixes
   originated and withdrawn at random times, and a fixed random filter
   on some cases. Faults cease at [cease]; every outage ends before it.
   [Error] names the first domain whose route differs from a fresh
   [Bgp.converge] over the origins the case left in place. *)
let bgpdyn_case tally seed =
  let rng = Rng.create (Int64.of_int seed) in
  let inet =
    if Rng.bool rng then
      Internet.build
        {
          Internet.default_params with
          Internet.transit_domains = Rng.int_in rng 2 4;
          stubs_per_transit = Rng.int_in rng 1 3;
          routers_per_transit = 2;
          routers_per_stub = 1;
          endhosts_per_domain = 1;
          seed = Rng.int64 rng;
        }
    else
      Internet.build_ba
        {
          Internet.default_ba_params with
          Internet.ba_domains = Rng.int_in rng 6 16;
          ba_routers_core = 2;
          ba_routers_edge = 1;
          ba_endhosts_per_domain = 1;
          ba_seed = Rng.int64 rng;
        }
  in
  let n = Internet.num_domains inet in
  let cease = 20.0 in
  let anycast = List.init 3 (fun g -> Addressing.anycast_global ~group:(g + 1)) in
  let refusals =
    if Rng.int rng 3 > 0 then []
    else
      List.concat_map
        (fun p ->
          List.filter_map
            (fun d -> if Rng.int rng 4 = 0 then Some (d, p) else None)
            (List.init n Fun.id))
        (anycast @ [ (Internet.domain inet (Rng.int rng n)).Internet.prefix ])
  in
  let same (d, p) (d', p') = d = d' && Netcore.Prefix.equal p p' in
  let refuses d p = List.exists (same (d, p)) refusals in
  let config =
    { Bgp.default_config with Bgp.propagate = (fun d p -> not (refuses d p)) }
  in
  let policy =
    let loss = Rng.float rng 0.3 and jitter = Rng.float rng 0.5 in
    let capacity = if Rng.int rng 4 = 0 then Rng.int_in rng 1 4 else 0 in
    (* long delays on some cases: a hold timer then expires on a live
       peer *)
    let extra_delay = if Rng.int rng 3 = 0 then Rng.float rng 1.0 else 0.0 in
    Faults.lossy ~jitter ~capacity ~extra_delay loss
  in
  let faults = Faults.create ~fifo:true ~policy:(fun ~src:_ ~dst:_ -> policy) (Rng.int64 rng) in
  let dyn =
    Bgpdyn.create ~mrai:(0.1 +. Rng.float rng 2.0) ~jitter:(Rng.float rng 1.0) ~config
      ~faults inet
  in
  let engine = Engine.create () in
  if Rng.bool rng then
    Bgpdyn.enable_timers dyn engine ~keepalive:1.0 ~hold:3.5 ~until:(cease +. 10.0);
  let crashes = ref 0 and restarts = ref 0 in
  Faults.on_crash faults (fun _ _ -> incr crashes);
  Faults.on_restart faults (fun _ _ -> incr restarts);
  Bgpdyn.originate_all_domain_prefixes dyn engine;
  List.iter
    (fun node ->
      Faults.schedule_outage faults engine ~node ~at:(Rng.float rng 12.0)
        ~duration:(0.5 +. Rng.float rng 6.0))
    (Rng.sample rng (Rng.int rng 3) (List.init n Fun.id));
  (* the origins the events leave in place, besides every domain's /16;
     the events pick from a few member domains, so withdrawals often
     hit a prefix the member originates *)
  let origins = ref [] and withdrew = ref false in
  let members = Rng.sample rng 3 (List.init n Fun.id) in
  for _ = 1 to Rng.int_in rng 2 8 do
    let domain = Rng.pick rng members and p = Rng.pick rng anycast in
    let originate = Rng.bool rng in
    Engine.schedule_at engine ~time:(Rng.float rng cease) (fun engine ->
        let held = List.exists (same (domain, p)) !origins in
        if originate then begin
          Bgpdyn.originate dyn engine ~domain p;
          if not held then origins := (domain, p) :: !origins
        end
        else begin
          Bgpdyn.withdraw dyn engine ~domain p;
          if held then begin
            withdrew := true;
            origins := List.filter (fun o -> not (same (domain, p) o)) !origins
          end
        end)
  done;
  Engine.schedule_at engine ~time:cease (fun _ ->
      Faults.set_policy faults (fun ~src:_ ~dst:_ -> Faults.reliable));
  ignore (Engine.run engine);
  let reference = Bgp.create ~config inet in
  Bgp.originate_all_domain_prefixes reference;
  List.iter (fun (domain, p) -> Bgp.originate reference ~domain p) !origins;
  ignore (Bgp.converge reference);
  let prefixes =
    anycast @ List.init n (fun d -> (Internet.domain inet d).Internet.prefix)
  in
  let mismatch =
    List.find_map
      (fun d ->
        List.find_map
          (fun p ->
            let sync =
              Option.map (fun r -> r.Bgp.as_path) (Bgp.route_to reference ~domain:d p)
            and dyn = Bgpdyn.best_path dyn ~domain:d p in
            if Option.equal (List.equal Int.equal) sync dyn then None
            else
              Some
                (Printf.sprintf "domain %d, %s: sync=%s dyn=%s" d
                   (Netcore.Prefix.to_string p) (path_string sync)
                   (path_string dyn)))
          prefixes)
      (List.init n Fun.id)
  in
  let originated p =
    List.exists (fun (_, p') -> Netcore.Prefix.equal p p') !origins
    || List.exists
         (fun d -> Netcore.Prefix.equal p (Internet.domain inet d).Internet.prefix)
         (List.init n Fun.id)
  in
  let count flag = if flag then 1 else 0 in
  tally.cases <- tally.cases + 1;
  tally.reset <- tally.reset + count ((Bgpdyn.stats dyn).Bgpdyn.resets > 0);
  tally.crashed <- tally.crashed + count (!crashes > 0 && !restarts = !crashes);
  tally.shed <- tally.shed + count ((Faults.stats faults).Faults.shed > 0);
  tally.withdrew <- tally.withdrew + count !withdrew;
  tally.refused <-
    tally.refused + count (List.exists (fun (_, p) -> originated p) refusals);
  match (mismatch, Bgpdyn.agrees_with_synchronous dyn) with
  | Some msg, _ | None, Error msg -> Error msg
  | None, Ok () -> Ok ()

let test_bgpdyn_faulty_internets () =
  let tally =
    { cases = 0; reset = 0; crashed = 0; shed = 0; withdrew = 0; refused = 0 }
  in
  QCheck.Test.check_exn
    (QCheck.Test.make
       ~name:"Bgpdyn = fresh Bgp.converge (faulty generated internets)"
       ~count:250
       QCheck.(int_bound 1_000_000)
       (fun seed ->
         match bgpdyn_case tally seed with
         | Ok () -> true
         | Error msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg));
  (* the cases reached every fault the property is meant to cover *)
  List.iter
    (fun (what, cases) ->
      check Alcotest.bool (Printf.sprintf "%s (%d cases)" what cases) true (cases > 0))
    [
      ("session resets", tally.reset);
      ("crashes and restarts", tally.crashed);
      ("sheds", tally.shed);
      ("withdrawals", tally.withdrew);
      ("a refusing filter", tally.refused);
    ]

(* An origin whose own filter refuses its prefix holds no route for it,
   so nobody learns one: the filter is read where a route is chosen,
   originations included, as in [Bgp]. *)
let test_bgpdyn_origin_refuses_own_prefix () =
  let inet = Internet.small_example () in
  let g = Addressing.anycast_global ~group:0 in
  let config =
    {
      Bgp.default_config with
      Bgp.propagate = (fun d p -> not (d = 3 && Netcore.Prefix.equal p g));
    }
  in
  let dyn = Bgpdyn.create ~config inet in
  let engine = Engine.create () in
  Bgpdyn.originate_all_domain_prefixes dyn engine;
  Bgpdyn.originate dyn engine ~domain:3 g;
  ignore (Engine.run engine);
  (match Bgpdyn.agrees_with_synchronous dyn with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  for d = 0 to Internet.num_domains inet - 1 do
    check Alcotest.string
      (Printf.sprintf "no route at domain %d" d)
      "-"
      (path_string (Bgpdyn.best_path dyn ~domain:d g))
  done

(* A neighbour's withdrawal is lost on the FIFO session, which resets:
   the receiver must drop what the neighbour told it and recompute, or
   it keeps (and passes on) a route whose origin is gone. *)
let test_bgpdyn_lost_withdrawal () =
  let stub = { Internet.routers = 1; endhosts = 1; transit = false } in
  let inet =
    Internet.build_custom ~seed:5L
      [| { Internet.routers = 2; endhosts = 1; transit = true }; stub; stub |]
      [
        { Internet.a = 1; b = 0; rel_of_b = Relationship.Provider };
        { Internet.a = 2; b = 0; rel_of_b = Relationship.Provider };
      ]
  in
  let faults = Faults.create ~fifo:true 3L in
  let dyn = Bgpdyn.create ~faults inet in
  let engine = Engine.create () in
  let g = Addressing.anycast_global ~group:4 in
  Bgpdyn.originate_all_domain_prefixes dyn engine;
  Bgpdyn.originate dyn engine ~domain:1 g;
  ignore (Engine.run engine);
  check Alcotest.string "the provider learned the route" "0,1"
    (path_string (Bgpdyn.best_path dyn ~domain:0 g));
  (* lose exactly the next message from 1 to 0: the withdrawal *)
  let armed = ref true in
  Faults.set_policy faults (fun ~src ~dst ->
      if !armed && src = 1 && dst = 0 then begin
        armed := false;
        Faults.lossy 1.0
      end
      else Faults.reliable);
  Bgpdyn.withdraw dyn engine ~domain:1 g;
  ignore (Engine.run engine);
  check Alcotest.int "the withdrawal was lost" 1 (Faults.stats faults).Faults.lost;
  check Alcotest.bool "the session reset" true ((Bgpdyn.stats dyn).Bgpdyn.resets > 0);
  for d = 0 to Internet.num_domains inet - 1 do
    check Alcotest.string
      (Printf.sprintf "no stale route at domain %d" d)
      "-"
      (path_string (Bgpdyn.best_path dyn ~domain:d g))
  done;
  match Bgpdyn.agrees_with_synchronous dyn with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* An announcement is in flight when its session resets, and its
   origin withdraws before the re-advertisement: the reset connection
   must not deliver the announcement, or the provider keeps a route
   nobody will ever withdraw. *)
let test_bgpdyn_update_crossing_a_reset () =
  let inet =
    Internet.build_custom ~seed:5L
      [|
        { Internet.routers = 2; endhosts = 1; transit = true };
        { Internet.routers = 1; endhosts = 1; transit = false };
      |]
      [ { Internet.a = 1; b = 0; rel_of_b = Relationship.Provider } ]
  in
  let faults = Faults.create ~fifo:true 3L in
  let dyn = Bgpdyn.create ~faults inet in
  let engine = Engine.create () in
  Bgpdyn.originate_all_domain_prefixes dyn engine;
  ignore (Engine.run engine);
  let g = Addressing.anycast_global ~group:4 and h = Addressing.anycast_global ~group:5 in
  (* the next message from 0 to 1 is lost: a transport failure resets
     both halves of the session *)
  let armed = ref true in
  Faults.set_policy faults (fun ~src ~dst ->
      if !armed && src = 0 && dst = 1 then begin
        armed := false;
        Faults.lossy 1.0
      end
      else Faults.reliable);
  (* well after the boot, when no MRAI gate holds a flush back: 1
     announces g, which lands a session delay (0.1) later *)
  let t0 = Engine.now engine +. 10.0 in
  Engine.schedule_at engine ~time:t0 (fun engine ->
      Bgpdyn.originate dyn engine ~domain:1 g);
  Engine.schedule_at engine ~time:(t0 +. 0.05) (fun engine ->
      Bgpdyn.originate dyn engine ~domain:0 h);
  (* before the MRAI lets 1 re-advertise, it withdraws g again *)
  Engine.schedule_at engine ~time:(t0 +. 1.0) (fun engine ->
      Bgpdyn.withdraw dyn engine ~domain:1 g);
  ignore (Engine.run engine);
  check Alcotest.int "the announcement of h was lost" 1 (Faults.stats faults).Faults.lost;
  check Alcotest.int "both halves reset" 2 (Bgpdyn.stats dyn).Bgpdyn.resets;
  check Alcotest.string "the provider holds no route for g" "-"
    (path_string (Bgpdyn.best_path dyn ~domain:0 g));
  check Alcotest.string "the customer learned h after the resync" "1,0"
    (path_string (Bgpdyn.best_path dyn ~domain:1 h));
  match Bgpdyn.agrees_with_synchronous dyn with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* One message from a live peer is held up far longer than the hold
   time, and the FIFO channel queues every later one behind it: the
   provider's hold expires while the customer is alive. The expiry must
   close both halves, or the customer keeps believing the provider
   holds its routes and never re-sends them. *)
let test_bgpdyn_hold_expiry_on_a_live_peer () =
  let inet =
    Internet.build_custom ~seed:5L
      [|
        { Internet.routers = 2; endhosts = 1; transit = true };
        { Internet.routers = 1; endhosts = 1; transit = false };
      |]
      [ { Internet.a = 1; b = 0; rel_of_b = Relationship.Provider } ]
  in
  let faults = Faults.create ~fifo:true 3L in
  let dyn = Bgpdyn.create ~faults inet in
  let engine = Engine.create () in
  Bgpdyn.enable_timers dyn engine ~keepalive:1.0 ~hold:3.5 ~until:40.0;
  Bgpdyn.originate_all_domain_prefixes dyn engine;
  ignore (Engine.run ~until:10.0 engine);
  let customer = (Internet.domain inet 1).Internet.prefix in
  check Alcotest.string "the provider learned the customer's prefix" "0,1"
    (path_string (Bgpdyn.best_path dyn ~domain:0 customer));
  let armed = ref true in
  Faults.set_policy faults (fun ~src ~dst ->
      if !armed && src = 1 && dst = 0 then begin
        armed := false;
        Faults.lossy ~jitter:1000.0 0.0
      end
      else Faults.reliable);
  ignore (Engine.run engine);
  let s = Faults.stats faults in
  check Alcotest.int "nothing was lost" 0 (s.Faults.lost + s.Faults.cut + s.Faults.dead);
  check Alcotest.bool "a hold expired" true ((Bgpdyn.stats dyn).Bgpdyn.resets > 0);
  check Alcotest.string "the provider relearned the customer's prefix" "0,1"
    (path_string (Bgpdyn.best_path dyn ~domain:0 customer));
  match Bgpdyn.agrees_with_synchronous dyn with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Lsproto under faults                                                *)

let test_lsproto_crash_restart_reconverges () =
  (* 20% of routers crash and restart while 30% of LSAs drop; the acked
     flooding and database re-exchange must still reach the oracle *)
  let inet =
    Internet.build_custom ~seed:21L
      [| { Internet.routers = 24; endhosts = 1; transit = true } |]
      []
  in
  let faults = Faults.create ~policy:(flaky ~jitter:0.2 0.3) 22L in
  let proto = Lsproto.create ~faults inet ~domain:0 in
  let engine = Engine.create () in
  Lsproto.start proto engine;
  let rids = (Internet.domain inet 0).Internet.router_ids in
  let rng = Topology.Rng.create 23L in
  let victims =
    Topology.Rng.sample rng (Array.length rids / 5) (Array.to_list rids)
  in
  List.iteri
    (fun i r ->
      Faults.schedule_outage faults engine ~node:r
        ~at:(20.0 +. (2.0 *. float_of_int i))
        ~duration:6.0)
    victims;
  Engine.schedule_at engine ~time:45.0 (fun _ ->
      Faults.set_policy faults (fun ~src:_ ~dst:_ -> Faults.reliable));
  ignore (Engine.run engine);
  check Alcotest.bool "LSDBs re-synchronize" true
    (Lsproto.lsdb_synchronized proto);
  let ls = Linkstate.compute inet ~domain:0 in
  let routers = Linkstate.routers ls in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check (Alcotest.float 1e-9)
            (Printf.sprintf "post-fault view %d->%d" a b)
            (Linkstate.distance ls ~src:a ~dst:b)
            (Lsproto.distance_view proto ~router:a ~dst:b))
        routers)
    routers;
  let s = Lsproto.stats proto in
  check Alcotest.bool "retransmits repaired the losses" true
    (s.Lsproto.retransmits > 0);
  check Alcotest.bool "every transmission is acked" true (s.Lsproto.acks > 0)

let prop_lsproto_eventual_consistency =
  QCheck.Test.make
    ~name:"lsproto views equal linkstate after faults cease (any seed, loss < 1)"
    ~count:8
    QCheck.(pair (int_bound 10_000) (int_bound 8))
    (fun (seed, loss_tenths) ->
      let loss = float_of_int loss_tenths /. 10.0 in
      let inet =
        Internet.build_custom
          ~seed:(Int64.of_int (seed + 1))
          [| { Internet.routers = 12; endhosts = 1; transit = true } |]
          []
      in
      let faults =
        Faults.create ~policy:(flaky ~jitter:0.5 loss) (Int64.of_int seed)
      in
      let proto = Lsproto.create ~faults inet ~domain:0 in
      let engine = Engine.create () in
      Lsproto.start proto engine;
      Engine.schedule_at engine ~time:40.0 (fun _ ->
          Faults.set_policy faults (fun ~src:_ ~dst:_ -> Faults.reliable));
      ignore (Engine.run engine);
      let ls = Linkstate.compute inet ~domain:0 in
      let routers = Linkstate.routers ls in
      Lsproto.lsdb_synchronized proto
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 Float.abs
                   (Lsproto.distance_view proto ~router:a ~dst:b
                   -. Linkstate.distance ls ~src:a ~dst:b)
                 <= 1e-9)
               routers)
           routers)

let () =
  Alcotest.run "simcore"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "fifo at equal time" `Quick test_engine_fifo_at_same_time;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "rejects bad input" `Quick test_engine_rejects;
          Alcotest.test_case "schedule_at now" `Quick test_engine_schedule_at_now;
          Alcotest.test_case "fifo across until" `Quick
            test_engine_fifo_across_until;
          Alcotest.test_case "pending after partial drain" `Quick
            test_engine_pending_after_partial_drain;
          Alcotest.test_case "timer cancel" `Quick test_engine_timer_cancel;
          Alcotest.test_case "cancel from a running action" `Quick
            test_engine_cancel_from_action;
          Alcotest.test_case "timer re-arm" `Quick test_engine_timer_rearm;
          qcheck prop_engine_time_order;
        ] );
      ( "faults",
        [
          Alcotest.test_case "deterministic replay" `Quick
            test_faults_deterministic;
          Alcotest.test_case "link flaps" `Quick test_faults_link_flap;
          Alcotest.test_case "crash and restart" `Quick
            test_faults_crash_restart;
          Alcotest.test_case "fifo channels" `Quick test_faults_fifo_channel;
          qcheck test_fifo_never_reorders_prop;
          Alcotest.test_case "reordered counter" `Quick
            test_faults_reordered_counter;
          Alcotest.test_case "crash at the delivery instant" `Quick
            test_faults_crash_at_delivery_instant;
          Alcotest.test_case "flap train" `Quick test_faults_flap_train;
          Alcotest.test_case "capacity budget sheds" `Quick
            test_faults_capacity_shed;
        ] );
      ( "forward",
        [
          Alcotest.test_case "router to router" `Quick test_forward_router_to_router;
          Alcotest.test_case "endhost delivery" `Quick test_forward_endhost_delivery;
          Alcotest.test_case "trace walks real edges" `Quick
            test_forward_trace_walks_edges;
          Alcotest.test_case "ttl expiry" `Quick test_forward_ttl_expiry;
          Alcotest.test_case "no route" `Quick test_forward_no_route;
          Alcotest.test_case "intra+inter anycast" `Quick test_forward_anycast_intra;
          qcheck prop_forward_trace_shape;
          qcheck prop_forward_universal_reachability;
        ] );
      ( "toward",
        [
          qcheck prop_memo_equals_forward;
          Alcotest.test_case "covers damage-made drops" `Quick
            test_memo_covers_damage;
          Alcotest.test_case "forwarding loop expires" `Quick
            test_memo_forwarding_loop;
        ] );
      ( "mixed-igp",
        [
          Alcotest.test_case "universal reachability" `Quick
            test_mixed_igp_universal_reachability;
          Alcotest.test_case "anycast in a DV domain" `Quick
            test_mixed_igp_anycast_in_dv_domain;
        ] );
      ( "lsproto",
        [
          Alcotest.test_case "LSDBs synchronize" `Quick test_lsproto_synchronizes;
          Alcotest.test_case "views match linkstate" `Quick
            test_lsproto_views_match_linkstate;
          Alcotest.test_case "flood cost bounded" `Quick test_lsproto_flood_cost_bounded;
          Alcotest.test_case "anycast propagates" `Quick test_lsproto_anycast_propagates;
          Alcotest.test_case "convergence latency" `Quick
            test_lsproto_convergence_latency;
          Alcotest.test_case "link failure re-converges" `Quick
            test_lsproto_link_failure_reconverges;
          Alcotest.test_case "crash/restart under loss reconverges" `Quick
            test_lsproto_crash_restart_reconverges;
          qcheck prop_lsproto_eventual_consistency;
        ] );
      ( "fib",
        [
          Alcotest.test_case "agrees with decide" `Quick test_fib_agrees_with_decide;
          Alcotest.test_case "sizes sane" `Quick test_fib_sizes_sane;
          Alcotest.test_case "forwarding delivers" `Quick test_fib_forward_delivers;
          Alcotest.test_case "per-router compile = full compile" `Quick
            test_fib_router_table_equals_compile;
          qcheck prop_compile_equals_model;
          Alcotest.test_case "compile property reaches its cases" `Quick
            test_compile_covers_cases;
        ] );
      ( "bgpdyn",
        [
          Alcotest.test_case "matches synchronous engine" `Quick
            test_bgpdyn_matches_synchronous;
          Alcotest.test_case "matches across seeds" `Quick
            test_bgpdyn_matches_synchronous_random_seeds;
          Alcotest.test_case "incremental origination" `Quick
            test_bgpdyn_incremental_origination;
          Alcotest.test_case "MRAI trade-off" `Quick test_bgpdyn_mrai_tradeoff;
          Alcotest.test_case "rejects an out-of-range domain" `Quick
            test_bgpdyn_rejects_bad_domain;
          Alcotest.test_case "converges under loss" `Quick
            test_bgpdyn_converges_under_loss;
          Alcotest.test_case "crash/restart with timers converges" `Quick
            test_bgpdyn_crash_restart_converges;
          Alcotest.test_case "survives overload via shed retries" `Quick
            test_bgpdyn_survives_overload;
          Alcotest.test_case "an origin's filter refuses its own prefix" `Quick
            test_bgpdyn_origin_refuses_own_prefix;
          Alcotest.test_case "a lost withdrawal is dropped on reset" `Quick
            test_bgpdyn_lost_withdrawal;
          Alcotest.test_case "a reset drops the updates in flight" `Quick
            test_bgpdyn_update_crossing_a_reset;
          Alcotest.test_case "agrees with Bgp on faulty generated internets"
            `Quick test_bgpdyn_faulty_internets;
          Alcotest.test_case "a hold expiry on a live peer closes both halves"
            `Quick test_bgpdyn_hold_expiry_on_a_live_peer;
        ] );
    ]
