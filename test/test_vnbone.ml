(* Tests for vN-Bone construction, routing and end-to-end transport. *)

module Internet = Topology.Internet
module Graph = Topology.Graph
module Rng = Topology.Rng
module Forward = Simcore.Forward
module Service = Anycast.Service
module Fabric = Vnbone.Fabric
module Router = Vnbone.Router
module Transport = Vnbone.Transport
module Ipvn = Netcore.Ipvn
module Ipv4 = Netcore.Ipv4

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

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

(* ------------------------------------------------------------------ *)
(* Fabric                                                              *)

let test_fabric_nodes_are_members () =
  let _, _, service = default_setup () in
  let fabric = Fabric.build service in
  let members = Fabric.members fabric in
  check Alcotest.int "one node per member"
    (List.length (Service.members service))
    (Array.length members);
  Array.iteri
    (fun i r ->
      check Alcotest.(option int) "index_of inverse" (Some i)
        (Fabric.index_of fabric r))
    members

let test_fabric_connected_and_anchored () =
  let _, _, service = default_setup () in
  let fabric = Fabric.build service in
  check Alcotest.bool "connected" true (Fabric.is_connected fabric);
  check Alcotest.(option int) "anchor is first participant" (Some 5)
    (Fabric.anchor_domain fabric)

let test_fabric_unanchored_disconnected () =
  (* three mutually unlinked stubs: without anchoring no inter tunnels *)
  let _, _, service = default_setup () in
  let fabric = Fabric.build ~anchored:false service in
  check Alcotest.bool "stub islands disconnect" false (Fabric.is_connected fabric)

let test_fabric_tunnel_endpoints_are_members () =
  let _, _, service = default_setup () in
  let fabric = Fabric.build service in
  let members = Service.members service in
  List.iter
    (fun tn ->
      check Alcotest.bool "from is member" true
        (List.mem tn.Fabric.from_router members);
      check Alcotest.bool "to is member" true (List.mem tn.Fabric.to_router members);
      check Alcotest.bool "metric finite and positive" true
        (tn.Fabric.underlay_metric >= 0.0 && tn.Fabric.underlay_metric < infinity))
    (Fabric.tunnels fabric)

let test_fabric_intra_edges_stay_in_domain () =
  let inet, _, service = default_setup () in
  let fabric = Fabric.build service in
  List.iter
    (fun tn ->
      let da = (Internet.router inet tn.Fabric.from_router).Internet.rdomain in
      let db = (Internet.router inet tn.Fabric.to_router).Internet.rdomain in
      match tn.Fabric.kind with
      | `Intra -> check Alcotest.int "intra stays inside" da db
      | `Inter_policy | `Inter_bootstrap ->
          check Alcotest.bool "inter crosses domains" true (da <> db)
      | `Manual -> Alcotest.fail "automatic build must not emit manual tunnels")
    (Fabric.tunnels fabric)

let test_fabric_vn_path_walks_edges () =
  let _, _, service = default_setup () in
  let fabric = Fabric.build service in
  let members = Array.to_list (Fabric.members fabric) in
  let a = List.hd members and b = List.nth members (List.length members - 1) in
  match Fabric.vn_path fabric a b with
  | None -> Alcotest.fail "no vn path on connected fabric"
  | Some nodes ->
      check Alcotest.bool "starts at a" true (List.hd nodes = a);
      check Alcotest.bool "ends at b" true (List.nth nodes (List.length nodes - 1) = b);
      let rec ok = function
        | x :: (y :: _ as rest) -> (
            match (Fabric.index_of fabric x, Fabric.index_of fabric y) with
            | Some ix, Some iy -> Graph.has_edge (Fabric.graph fabric) ix iy && ok rest
            | _ -> false)
        | _ -> true
      in
      check Alcotest.bool "walks vn edges" true (ok nodes);
      check Alcotest.bool "distance consistent" true
        (Fabric.vn_distance fabric a b < infinity)

let test_fabric_partial_domain_deployment () =
  (* only half the routers of a domain deploy: intra rule must still
     connect them *)
  let inet = Internet.build Internet.default_params in
  let env = Forward.make_env inet in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  let dom = Internet.domain inet 5 in
  let half =
    Array.to_list (Array.sub dom.Internet.router_ids 0
       (max 1 (Array.length dom.Internet.router_ids / 2)))
  in
  Service.add_participant service ~domain:5 ~routers:half;
  let fabric = Fabric.build service in
  check Alcotest.bool "partial domain still connected" true
    (Fabric.is_connected fabric)

let prop_fabric_anchored_always_connected =
  QCheck.Test.make ~name:"anchored fabric connected on random deployments"
    ~count:10
    QCheck.(pair (int_bound 10000) (int_bound 5))
    (fun (seed, extra) ->
      let params =
        { Internet.default_params with Internet.seed = Int64.of_int seed }
      in
      let inet = Internet.build params in
      let env = Forward.make_env inet in
      let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let doms =
        Rng.sample rng (2 + extra)
          (List.init (Internet.num_domains inet) Fun.id)
      in
      List.iter
        (fun d ->
          Service.add_participant service ~domain:d
            ~routers:
              (Array.to_list (Internet.domain inet d).Internet.router_ids))
        doms;
      Fabric.is_connected (Fabric.build service))

let test_fabric_anycast_walk_discovery () =
  (* footnote-2 fallback: joiners tunnel to the nearest already-joined
     member; the result is a tree per domain (n-1 intra edges) and the
     fabric is still connected *)
  let inet, _, service = default_setup () in
  let fabric = Fabric.build ~discovery:Fabric.Anycast_walk service in
  check Alcotest.bool "walk fabric connected" true (Fabric.is_connected fabric);
  List.iter
    (fun d ->
      let members = Service.members_in service ~domain:d in
      let intra_edges =
        List.filter
          (fun t ->
            t.Fabric.kind = `Intra
            && (Internet.router inet t.Fabric.from_router).Internet.rdomain = d)
          (Fabric.tunnels fabric)
      in
      check Alcotest.int
        (Printf.sprintf "domain %d join tree has n-1 edges" d)
        (List.length members - 1)
        (List.length intra_edges))
    [ 5; 9; 14 ]

let test_fabric_stretch_bounds () =
  let _, _, service = default_setup () in
  let lsdb = Fabric.build ~k:3 service in
  let walk = Fabric.build ~discovery:Fabric.Anycast_walk service in
  let s_lsdb = Fabric.mean_vn_stretch lsdb in
  let s_walk = Fabric.mean_vn_stretch walk in
  check Alcotest.bool "stretch >= 1" true (s_lsdb >= 1.0 -. 1e-9);
  check Alcotest.bool "richer topology, no worse stretch" true
    (s_lsdb <= s_walk +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Router                                                              *)

let test_router_exit_early_is_ingress () =
  let inet, _, service = default_setup () in
  let router = Router.create (Fabric.build service) in
  let ingress = List.hd (Service.members service) in
  let dest = (Internet.endhost inet 0).Internet.haddr in
  check Alcotest.(option int) "exit early = ingress" (Some ingress)
    (Router.egress_for router ~strategy:Router.Exit_early ~ingress ~dest)

let test_router_bgp_aware_minimizes_domain_path () =
  let inet, _, service = default_setup () in
  let router = Router.create (Fabric.build service) in
  let ingress = List.hd (Service.members service) in
  (* destination inside a participant's customer cone is closest to
     that participant *)
  let dest = (Internet.endhost inet 0).Internet.haddr in
  match Router.egress_for router ~strategy:Router.Bgp_aware ~ingress ~dest with
  | None -> Alcotest.fail "no egress"
  | Some egress ->
      let score m = Router.domain_path_length router ~member:m ~dest in
      let best =
        List.filter_map score (Service.members service)
        |> List.fold_left min max_int
      in
      check Alcotest.(option int) "egress achieves the min AS-path" (Some best)
        (score egress)

let test_router_egress_to_vn_domain () =
  let _, _, service = default_setup () in
  let router = Router.create (Fabric.build service) in
  let ingress = List.hd (Service.members service) in
  match Router.egress_to_vn_domain router ~ingress ~domain:9 with
  | Some egress ->
      let inet = (Service.env service).Forward.inet in
      check Alcotest.int "egress inside target domain" 9
        (Internet.router inet egress).Internet.rdomain
  | None -> Alcotest.fail "no egress into participant domain"

let test_router_host_advertised_lifecycle () =
  let inet, _, service = default_setup () in
  let router = Router.create (Fabric.build service) in
  (* a destination in a non-participant domain registers *)
  let dst = (Internet.domain inet 20).Internet.endhost_ids.(0) in
  check Alcotest.(option int) "unregistered" None
    (Router.registered_advertiser router ~endhost:dst);
  (match Router.register_endhost router ~endhost:dst with
  | None -> Alcotest.fail "registration failed"
  | Some advertiser ->
      check Alcotest.bool "advertiser is a member" true
        (List.mem advertiser (Service.members service));
      check Alcotest.(option int) "recorded" (Some advertiser)
        (Router.registered_advertiser router ~endhost:dst);
      check Alcotest.bool "fresh registration not stale" false
        (Router.registration_stale router ~endhost:dst);
      (* the advertiser becomes the journey's egress *)
      let src = (Internet.domain inet 1).Internet.endhost_ids.(0) in
      let j =
        Transport.send router ~strategy:Router.Host_advertised ~src ~dst
          ~payload:"x"
      in
      check Alcotest.bool "delivered via advertiser" true (Transport.delivered j);
      check Alcotest.(option int) "egress = advertiser" (Some advertiser)
        j.Transport.egress;
      (* fate-sharing: kill the advertiser, do not re-register *)
      Service.remove_member service ~router:advertiser;
      check Alcotest.bool "now stale" true
        (Router.registration_stale router ~endhost:dst);
      let j2 =
        Transport.send router ~strategy:Router.Host_advertised ~src ~dst
          ~payload:"x"
      in
      check Alcotest.bool "stale route black-holes" false (Transport.delivered j2);
      (* re-registration heals it *)
      (match Router.register_endhost router ~endhost:dst with
      | None -> Alcotest.fail "re-registration failed"
      | Some advertiser2 ->
          check Alcotest.bool "new advertiser" true (advertiser2 <> advertiser));
      let j3 =
        Transport.send router ~strategy:Router.Host_advertised ~src ~dst
          ~payload:"x"
      in
      check Alcotest.bool "healed" true (Transport.delivered j3);
      Router.deregister_endhost router ~endhost:dst;
      check Alcotest.(option int) "deregistered" None
        (Router.registered_advertiser router ~endhost:dst))

let test_router_host_advertised_fallback () =
  let inet, _, service = default_setup () in
  let router = Router.create (Fabric.build service) in
  (* with no registration, host-advertised behaves like exit-early *)
  let src = (Internet.domain inet 1).Internet.endhost_ids.(0) in
  let dst = (Internet.domain inet 20).Internet.endhost_ids.(0) in
  let j =
    Transport.send router ~strategy:Router.Host_advertised ~src ~dst ~payload:"x"
  in
  let j_early =
    Transport.send router ~strategy:Router.Exit_early ~src ~dst ~payload:"x"
  in
  check Alcotest.bool "delivered" true (Transport.delivered j);
  check Alcotest.(option int) "same egress as exit-early" j_early.Transport.egress
    j.Transport.egress

let test_fabric_manual_tunnel () =
  let _, _, service = default_setup () in
  let fabric = Fabric.build service in
  (* pick two members in different domains without a direct tunnel *)
  let members = Array.to_list (Fabric.members fabric) in
  let linked a b =
    match (Fabric.index_of fabric a, Fabric.index_of fabric b) with
    | Some ia, Some ib -> Graph.has_edge (Fabric.graph fabric) ia ib
    | _ -> true
  in
  let pair =
    List.find_opt
      (fun (a, b) -> a <> b && not (linked a b))
      (List.concat_map (fun a -> List.map (fun b -> (a, b)) members) members)
  in
  match pair with
  | None -> Alcotest.fail "fixture is a clique; enlarge it"
  | Some (a, b) ->
      let before = Fabric.vn_distance fabric a b in
      Fabric.add_manual_tunnel fabric a b;
      check Alcotest.bool "edge exists" true (linked a b);
      check Alcotest.bool "manual kind recorded" true
        (List.exists
           (fun t -> t.Fabric.kind = `Manual)
           (Fabric.tunnels fabric));
      check Alcotest.bool "distance improved or equal" true
        (Fabric.vn_distance fabric a b <= before);
      Alcotest.check_raises "non-member rejected"
        (Invalid_argument "Fabric.add_manual_tunnel: router is not a member")
        (fun () -> Fabric.add_manual_tunnel fabric a 999999)

(* ------------------------------------------------------------------ *)
(* Bgpvn: the distributed protocol vs the oracle                       *)

module Bgpvn = Vnbone.Bgpvn

let test_bgpvn_converges_with_aggregates () =
  let _, _, service = default_setup () in
  let fabric = Fabric.build service in
  let speaker = Bgpvn.create fabric in
  let rounds = Bgpvn.converge speaker in
  check Alcotest.bool "did some work" true (rounds > 0);
  (* every member ends up with a route to every participant domain *)
  Array.iter
    (fun m ->
      List.iter
        (fun d ->
          match Bgpvn.route speaker ~at:m (Bgpvn.Vn_domain d) with
          | Some r ->
              check Alcotest.bool "egress in target domain" true
                ((Internet.router
                    (Service.env service).Forward.inet r.Bgpvn.egress)
                   .Internet.rdomain = d)
          | None -> Alcotest.fail "missing aggregate route")
        (Service.participants service))
    (Fabric.members fabric)

let test_bgpvn_agrees_with_oracle_on_domains () =
  let _, _, service = default_setup () in
  let fabric = Fabric.build service in
  let oracle = Router.create ~mode:Router.Oracle fabric in
  let proto = Router.create ~mode:Router.Protocol fabric in
  Array.iter
    (fun ingress ->
      List.iter
        (fun d ->
          let a = Router.egress_to_vn_domain oracle ~ingress ~domain:d in
          let b = Router.egress_to_vn_domain proto ~ingress ~domain:d in
          check Alcotest.(option int)
            (Printf.sprintf "ingress %d -> domain %d" ingress d)
            a b)
        (Service.participants service))
    (Fabric.members fabric)

let test_bgpvn_agrees_with_oracle_on_proxy () =
  let inet, _, service = default_setup () in
  let fabric = Fabric.build service in
  let oracle = Router.create ~mode:Router.Oracle fabric in
  let proto = Router.create ~mode:Router.Protocol fabric in
  let dests =
    [ 0; 2; 8; 16; 25 ]
    |> List.map (fun d -> (Internet.domain inet d).Internet.endhost_ids.(0))
    |> List.map (fun h -> (Internet.endhost inet h).Internet.haddr)
  in
  Array.iter
    (fun ingress ->
      List.iter
        (fun dest ->
          let a = Router.egress_for oracle ~strategy:Router.Proxy ~ingress ~dest in
          let b = Router.egress_for proto ~strategy:Router.Proxy ~ingress ~dest in
          check Alcotest.(option int) "proxy egress agrees" a b)
        dests)
    (Fabric.members fabric)

let test_bgpvn_external_validation () =
  let _, _, service = default_setup () in
  let fabric = Fabric.build service in
  let speaker = Bgpvn.create fabric in
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Bgpvn.originate_external: negative cost") (fun () ->
      Bgpvn.originate_external speaker
        ~member:(Fabric.members fabric).(0)
        ~prefix:(Netcore.Prefix.of_string "10.0.0.0/16")
        ~exit_cost:(-1.0));
  Alcotest.check_raises "non-member"
    (Invalid_argument "Bgpvn: router is not a vN-Bone member") (fun () ->
      Bgpvn.originate_external speaker ~member:999999
        ~prefix:(Netcore.Prefix.of_string "10.0.0.0/16")
        ~exit_cost:1.0)

let test_bgpvn_survives_member_failures () =
  (* ~20% of the vN-Bone's member routers die: the fabric repairs its
     tunnel mesh (probe + re-anchor), BGPvN purges routes through the
     dead, and the re-converged costs must equal the centralized
     cheapest paths over the repaired fabric *)
  let inet, _, service = default_setup () in
  let fabric = Fabric.build service in
  let members = Array.to_list (Fabric.members fabric) in
  let rng = Rng.create 77L in
  let dead = Rng.sample rng (max 1 (List.length members / 5)) members in
  let alive r = not (List.mem r dead) in
  let removed = Fabric.probe_tunnels fabric ~alive in
  check Alcotest.bool "dead endpoints lose their tunnels" true (removed > 0);
  let added = Fabric.reanchor fabric ~alive in
  ignore added;
  (* every pair of live members must be reconnected by the repair *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if alive a && alive b then
            check Alcotest.bool
              (Printf.sprintf "live members %d and %d reconnected" a b)
              true
              (Float.is_finite (Fabric.vn_distance fabric a b)))
        members)
    members;
  let speaker = Bgpvn.create fabric in
  Bgpvn.fail_members speaker ~alive;
  ignore (Bgpvn.converge speaker);
  List.iter
    (fun d ->
      let live_in_d =
        List.filter
          (fun m -> alive m && (Internet.router inet m).Internet.rdomain = d)
          members
      in
      let expected at =
        List.fold_left
          (fun acc m -> Float.min acc (Fabric.vn_distance fabric at m))
          infinity live_in_d
      in
      List.iter
        (fun m ->
          if alive m then
            match Bgpvn.route speaker ~at:m (Bgpvn.Vn_domain d) with
            | Some r ->
                check (Alcotest.float 1e-9)
                  (Printf.sprintf "member %d -> domain %d cost" m d)
                  (expected m) r.Bgpvn.cost
            | None ->
                check Alcotest.bool
                  (Printf.sprintf "member %d -> domain %d only dark when no \
                                   live member" m d)
                  false
                  (Float.is_finite (expected m)))
        members)
    (Service.participants service);
  (* the dead speak no routes *)
  List.iter
    (fun m ->
      check Alcotest.int
        (Printf.sprintf "dead member %d holds no routes" m)
        0
        (Bgpvn.table_size speaker ~at:m))
    dead

let test_protocol_mode_journeys_deliver () =
  let inet, _, service = default_setup () in
  let router = Router.create ~mode:Router.Protocol (Fabric.build service) in
  let src = (Internet.domain inet 1).Internet.endhost_ids.(0) in
  List.iter
    (fun dst_domain ->
      let dst = (Internet.domain inet dst_domain).Internet.endhost_ids.(0) in
      List.iter
        (fun strategy ->
          let j = Transport.send router ~strategy ~src ~dst ~payload:"p" in
          check Alcotest.bool
            (Printf.sprintf "%s to domain %d"
               (Router.strategy_to_string strategy)
               dst_domain)
            true (Transport.delivered j))
        [ Router.Exit_early; Router.Bgp_aware; Router.Proxy ])
    [ 9 (* participant *); 20 (* non-participant *) ]

(* ------------------------------------------------------------------ *)
(* vN forwarding, hop by hop over BGPvN's own tables                   *)

(* The member sequence from [m] to a destination, following each
   member's route [next] until a route ends there ([next = None]); a
   dead end or a revisited member fails. *)
let vn_walk speaker ~from_:m dest =
  let rec go at acc =
    if List.mem at acc then Alcotest.failf "forwarding loop at member %d" at
    else
      match Bgpvn.route speaker ~at dest with
      | None -> Alcotest.failf "no route at member %d" at
      | Some { Bgpvn.next = None; _ } -> List.rev (at :: acc)
      | Some { Bgpvn.next = Some nh; _ } -> go nh (at :: acc)
  in
  go m []

let test_vn_fib_walk_reaches_egress () =
  let _, _, service = default_setup () in
  let fabric = Fabric.build service in
  let speaker = Bgpvn.create fabric in
  ignore (Bgpvn.converge speaker);
  let multi_hop = ref 0 in
  Array.iter
    (fun m ->
      List.iter
        (fun (r : Bgpvn.route) ->
          let path = vn_walk speaker ~from_:m r.Bgpvn.rdest in
          if List.length path > 1 then incr multi_hop;
          check Alcotest.int "walk starts at the source" m (List.hd path);
          check Alcotest.int "walk ends at the route's egress" r.Bgpvn.egress
            (List.nth path (List.length path - 1)))
        (Bgpvn.routes speaker ~at:m))
    (Fabric.members fabric);
  check Alcotest.bool "some walk crosses a tunnel" true (!multi_hop > 0)

let test_vn_fib_sizes () =
  let _, _, service = default_setup () in
  let fabric = Fabric.build service in
  let speaker = Bgpvn.create fabric in
  ignore (Bgpvn.converge speaker);
  let aggregates = List.length (Service.participants service) in
  Array.iter
    (fun m ->
      check Alcotest.int "one entry per aggregate" aggregates
        (Bgpvn.table_size speaker ~at:m);
      check Alcotest.int "the routes are the table" aggregates
        (List.length (Bgpvn.routes speaker ~at:m)))
    (Fabric.members fabric);
  check Alcotest.int "a non-member holds no routes" 0
    (List.length (Bgpvn.routes speaker ~at:999999))

(* ------------------------------------------------------------------ *)
(* Transport                                                           *)

let test_vn_addresses () =
  let inet, _, service = default_setup () in
  (* endhost in participant domain 5 gets a provider address *)
  let h5 = (Internet.domain inet 5).Internet.endhost_ids.(0) in
  let a5 = Transport.vn_address_of_endhost service ~endhost:h5 in
  check Alcotest.bool "provider-addressed" false (Ipvn.is_self a5);
  check Alcotest.(option int) "right domain" (Some 5) (Ipvn.domain a5);
  (* endhost in a non-participant domain self-addresses, embedding v4 *)
  let h0 = (Internet.domain inet 0).Internet.endhost_ids.(0) in
  let a0 = Transport.vn_address_of_endhost service ~endhost:h0 in
  check Alcotest.bool "self-addressed" true (Ipvn.is_self a0);
  check Alcotest.(option string) "embeds v4"
    (Some (Ipv4.to_string (Internet.endhost inet h0).Internet.haddr))
    (Option.map Ipv4.to_string (Ipvn.embedded_ipv4 a0))

let journey_fixture strategy =
  let inet, _, service = default_setup () in
  let router = Router.create (Fabric.build service) in
  (* src in non-participant domain 1, dst in non-participant domain 20 *)
  let src = (Internet.domain inet 1).Internet.endhost_ids.(0) in
  let dst = (Internet.domain inet 20).Internet.endhost_ids.(0) in
  (inet, Transport.send router ~strategy ~src ~dst ~payload:"test")

let test_transport_delivers_all_strategies () =
  List.iter
    (fun strategy ->
      let _, j = journey_fixture strategy in
      check Alcotest.bool (Router.strategy_to_string strategy) true
        (Transport.delivered j))
    [ Router.Exit_early; Router.Bgp_aware; Router.Proxy ]

let test_transport_journey_structure () =
  let inet, j = journey_fixture Router.Bgp_aware in
  (* leg structure: access first, exit last, vn in between *)
  (match j.Transport.legs with
  | Transport.Access _ :: rest ->
      let rec middle = function
        | [ Transport.Exit _ ] -> true
        | Transport.Vn _ :: rest -> middle rest
        | _ -> false
      in
      check Alcotest.bool "access, vn*, exit" true (middle rest)
  | _ -> Alcotest.fail "journey must start with an access leg");
  (* ingress/egress are members in the right domains *)
  (match (j.Transport.ingress, j.Transport.egress) with
  | Some i, Some e ->
      check Alcotest.bool "ingress is vN router" true
        (List.mem (Internet.router inet i).Internet.rdomain [ 5; 9; 14 ]);
      check Alcotest.bool "egress is vN router" true
        (List.mem (Internet.router inet e).Internet.rdomain [ 5; 9; 14 ])
  | _ -> Alcotest.fail "missing ingress/egress");
  check Alcotest.int "hops add up"
    (Transport.total_hops j)
    (Transport.access_hops j + Transport.vn_hops j + Transport.exit_hops j);
  check Alcotest.bool "fraction in [0,1]" true
    (Transport.vn_fraction j >= 0.0 && Transport.vn_fraction j <= 1.0)

let test_transport_vn_legs_follow_vn_path () =
  let _, j = journey_fixture Router.Bgp_aware in
  (* consecutive vn legs are contiguous: each leg starts where the
     previous ended, and the first starts at the ingress *)
  let vn_endpoints =
    List.filter_map
      (function
        | Transport.Vn { from_router; to_router; _ } -> Some (from_router, to_router)
        | Transport.Access _ | Transport.Exit _ -> None)
      j.Transport.legs
  in
  let rec contiguous = function
    | (_, b) :: ((c, _) :: _ as rest) -> b = c && contiguous rest
    | _ -> true
  in
  check Alcotest.bool "vn legs contiguous" true (contiguous vn_endpoints);
  match (vn_endpoints, j.Transport.ingress) with
  | (first, _) :: _, Some i -> check Alcotest.int "starts at ingress" i first
  | [], _ -> () (* ingress = egress: no vn legs *)
  | _, None -> Alcotest.fail "delivered journey without ingress"

let test_transport_to_participant_domain () =
  let inet, _, service = default_setup () in
  let router = Router.create (Fabric.build service) in
  let src = (Internet.domain inet 1).Internet.endhost_ids.(0) in
  let dst = (Internet.domain inet 9).Internet.endhost_ids.(0) in
  let j = Transport.send router ~strategy:Router.Exit_early ~src ~dst ~payload:"x" in
  check Alcotest.bool "delivered" true (Transport.delivered j);
  (* the egress must be inside the destination's own (participant)
     domain regardless of strategy *)
  match j.Transport.egress with
  | Some e -> check Alcotest.int "egress in dst domain" 9
      (Internet.router inet e).Internet.rdomain
  | None -> Alcotest.fail "no egress"

let test_transport_no_members_fails_cleanly () =
  let inet = Internet.build Internet.default_params in
  let env = Forward.make_env inet in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  let router = Router.create (Fabric.build service) in
  let j = Transport.send router ~strategy:Router.Exit_early ~src:0 ~dst:5 ~payload:"x" in
  check Alcotest.bool "not delivered" false (Transport.delivered j);
  match j.Transport.result with
  | Error Transport.No_ingress -> ()
  | _ -> Alcotest.fail "expected No_ingress"

let test_transport_relabel_on_adoption () =
  (* §3.3.2: self-addresses "are very likely temporary and such
     endhosts will have to relabel if and when their access providers
     do adopt IPvN". The relabel must be transparent to traffic. *)
  let inet = Internet.build Internet.default_params in
  let env = Forward.make_env inet in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  Service.add_participant service ~domain:5
    ~routers:(Array.to_list (Internet.domain inet 5).Internet.router_ids);
  let dst = (Internet.domain inet 20).Internet.endhost_ids.(0) in
  let before = Transport.vn_address_of_endhost service ~endhost:dst in
  check Alcotest.bool "self-addressed before adoption" true (Ipvn.is_self before);
  let router = Router.create (Fabric.build service) in
  let j1 = Transport.send router ~strategy:Router.Bgp_aware ~src:0 ~dst ~payload:"x" in
  check Alcotest.bool "delivered before adoption" true (Transport.delivered j1);
  (* the destination's provider adopts: address relabels to
     provider-assigned, and traffic keeps flowing *)
  Service.add_participant service ~domain:20
    ~routers:(Array.to_list (Internet.domain inet 20).Internet.router_ids);
  let after = Transport.vn_address_of_endhost service ~endhost:dst in
  check Alcotest.bool "provider-addressed after adoption" false (Ipvn.is_self after);
  check Alcotest.(option int) "provider is the home domain" (Some 20)
    (Ipvn.domain after);
  let router2 = Router.create (Fabric.build service) in
  let j2 =
    Transport.send router2 ~strategy:Router.Bgp_aware ~src:0 ~dst ~payload:"x"
  in
  check Alcotest.bool "delivered after relabel" true (Transport.delivered j2);
  (* and now the packet terminates natively in the adopted domain *)
  match j2.Transport.egress with
  | Some e ->
      check Alcotest.int "native delivery" 20
        (Internet.router inet e).Internet.rdomain
  | None -> Alcotest.fail "no egress"

let test_transport_concurrent_generations () =
  (* two IP generations evolve side by side over the same substrate,
     each with its own anycast group and vN-Bone *)
  let inet = Internet.build Internet.default_params in
  let env = Forward.make_env inet in
  let v8 = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  let v9 = Service.deploy env ~version:9 ~strategy:Service.Option1 in
  Service.add_participant v8 ~domain:5
    ~routers:(Array.to_list (Internet.domain inet 5).Internet.router_ids);
  Service.add_participant v9 ~domain:9
    ~routers:(Array.to_list (Internet.domain inet 9).Internet.router_ids);
  check Alcotest.bool "distinct anycast groups" false
    (Netcore.Prefix.equal (Service.group v8) (Service.group v9));
  let r8 = Router.create (Fabric.build v8) in
  let r9 = Router.create (Fabric.build v9) in
  let j8 = Transport.send r8 ~strategy:Router.Bgp_aware ~src:0 ~dst:50 ~payload:"v8" in
  let j9 = Transport.send r9 ~strategy:Router.Bgp_aware ~src:0 ~dst:50 ~payload:"v9" in
  check Alcotest.bool "v8 delivered" true (Transport.delivered j8);
  check Alcotest.bool "v9 delivered" true (Transport.delivered j9);
  check Alcotest.int "v8 packet tagged 8" 8 j8.Transport.packet.Netcore.Packet.version;
  check Alcotest.int "v9 packet tagged 9" 9 j9.Transport.packet.Netcore.Packet.version;
  (* each generation rides its own deployment *)
  (match (j8.Transport.ingress, j9.Transport.ingress) with
  | Some i8, Some i9 ->
      check Alcotest.int "v8 ingress in its domain" 5
        (Internet.router inet i8).Internet.rdomain;
      check Alcotest.int "v9 ingress in its domain" 9
        (Internet.router inet i9).Internet.rdomain
  | _ -> Alcotest.fail "missing ingress")

let test_transport_vttl_expires_on_marathon_paths () =
  (* failure injection: a 70-domain provider chain, one router each,
     forces a vN-Bone path longer than the vTTL budget *)
  let n = 70 in
  let specs =
    Array.init n (fun _ -> { Internet.routers = 1; endhosts = 1; transit = false })
  in
  let links =
    List.init (n - 1) (fun i ->
        { Internet.a = i; b = i + 1; rel_of_b = Topology.Relationship.Provider })
  in
  let inet = Internet.build_custom ~seed:3L specs links in
  let env = Forward.make_env inet in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  Service.add_participants service
    (List.init n (fun d ->
         (d, Array.to_list (Internet.domain inet d).Internet.router_ids)));
  let router = Router.create (Fabric.build service) in
  let src = (Internet.domain inet 0).Internet.endhost_ids.(0) in
  let dst = (Internet.domain inet (n - 1)).Internet.endhost_ids.(0) in
  let j = Transport.send router ~strategy:Router.Exit_early ~src ~dst ~payload:"x" in
  (match j.Transport.result with
  | Error Transport.Vttl_expired -> ()
  | Ok () -> Alcotest.fail "expected vTTL expiry on a 69-tunnel path"
  | Error _ -> Alcotest.fail "wrong failure mode");
  (* a nearby destination still works fine on the same fabric *)
  let near = (Internet.domain inet 5).Internet.endhost_ids.(0) in
  let j2 = Transport.send router ~strategy:Router.Exit_early ~src ~dst:near ~payload:"x" in
  check Alcotest.bool "short journey unaffected" true (Transport.delivered j2)

let test_transport_pp_journey () =
  let inet, j = journey_fixture Router.Bgp_aware in
  let b = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer b in
  Transport.pp_journey inet fmt j;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents b in
  let has needle =
    let nl = String.length needle and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "shows the access leg" true (has "access (anycast)");
  check Alcotest.bool "shows the exit leg" true (has "exit (IPv(N-1))");
  check Alcotest.bool "reports delivery" true (has "delivered:")

let prop_transport_delivers_on_random_internets =
  QCheck.Test.make ~name:"journeys deliver across random deployments" ~count:8
    QCheck.(int_bound 10000)
    (fun seed ->
      let params =
        { Internet.default_params with Internet.seed = Int64.of_int seed }
      in
      let inet = Internet.build params in
      let env = Forward.make_env inet in
      let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
      let rng = Rng.create (Int64.of_int (seed + 2)) in
      let doms =
        Rng.sample rng 4 (List.init (Internet.num_domains inet) Fun.id)
      in
      List.iter
        (fun d ->
          Service.add_participant service ~domain:d
            ~routers:
              (Array.to_list (Internet.domain inet d).Internet.router_ids))
        doms;
      let router = Router.create (Fabric.build service) in
      let hn = Array.length inet.Internet.endhosts in
      List.for_all
        (fun strategy ->
          List.for_all
            (fun _ ->
              let src = Rng.int rng hn in
              let dst = (src + 1 + Rng.int rng (hn - 1)) mod hn in
              Transport.delivered
                (Transport.send router ~strategy ~src ~dst ~payload:"p"))
            (List.init 10 Fun.id))
        [ Router.Exit_early; Router.Bgp_aware; Router.Proxy ])

let () =
  Alcotest.run "vnbone"
    [
      ( "fabric",
        [
          Alcotest.test_case "nodes are members" `Quick test_fabric_nodes_are_members;
          Alcotest.test_case "connected and anchored" `Quick
            test_fabric_connected_and_anchored;
          Alcotest.test_case "unanchored disconnects" `Quick
            test_fabric_unanchored_disconnected;
          Alcotest.test_case "tunnel endpoints" `Quick
            test_fabric_tunnel_endpoints_are_members;
          Alcotest.test_case "intra edges stay in domain" `Quick
            test_fabric_intra_edges_stay_in_domain;
          Alcotest.test_case "vn path walks edges" `Quick test_fabric_vn_path_walks_edges;
          Alcotest.test_case "partial domain deployment" `Quick
            test_fabric_partial_domain_deployment;
          Alcotest.test_case "anycast-walk discovery" `Quick
            test_fabric_anycast_walk_discovery;
          Alcotest.test_case "stretch bounds" `Quick test_fabric_stretch_bounds;
          Alcotest.test_case "manual tunnels" `Quick test_fabric_manual_tunnel;
          qcheck prop_fabric_anchored_always_connected;
        ] );
      ( "router",
        [
          Alcotest.test_case "exit early is ingress" `Quick
            test_router_exit_early_is_ingress;
          Alcotest.test_case "host-advertised lifecycle" `Quick
            test_router_host_advertised_lifecycle;
          Alcotest.test_case "host-advertised fallback" `Quick
            test_router_host_advertised_fallback;
          Alcotest.test_case "bgp-aware minimizes AS path" `Quick
            test_router_bgp_aware_minimizes_domain_path;
          Alcotest.test_case "egress into vn domain" `Quick test_router_egress_to_vn_domain;
        ] );
      ( "bgpvn",
        [
          Alcotest.test_case "converges with aggregates" `Quick
            test_bgpvn_converges_with_aggregates;
          Alcotest.test_case "protocol = oracle (domains)" `Quick
            test_bgpvn_agrees_with_oracle_on_domains;
          Alcotest.test_case "protocol = oracle (proxy)" `Quick
            test_bgpvn_agrees_with_oracle_on_proxy;
          Alcotest.test_case "validation" `Quick test_bgpvn_external_validation;
          Alcotest.test_case "survives member failures" `Quick
            test_bgpvn_survives_member_failures;
          Alcotest.test_case "protocol-mode journeys" `Quick
            test_protocol_mode_journeys_deliver;
          Alcotest.test_case "vn-fib walk reaches egress" `Quick
            test_vn_fib_walk_reaches_egress;
          Alcotest.test_case "vn-fib sizes" `Quick test_vn_fib_sizes;
        ] );
      ( "transport",
        [
          Alcotest.test_case "vn addresses" `Quick test_vn_addresses;
          Alcotest.test_case "delivers (all strategies)" `Quick
            test_transport_delivers_all_strategies;
          Alcotest.test_case "journey structure" `Quick test_transport_journey_structure;
          Alcotest.test_case "vn legs contiguous" `Quick
            test_transport_vn_legs_follow_vn_path;
          Alcotest.test_case "to participant domain" `Quick
            test_transport_to_participant_domain;
          Alcotest.test_case "no members fails cleanly" `Quick
            test_transport_no_members_fails_cleanly;
          Alcotest.test_case "relabel on adoption" `Quick
            test_transport_relabel_on_adoption;
          Alcotest.test_case "concurrent generations" `Quick
            test_transport_concurrent_generations;
          Alcotest.test_case "vttl expiry (failure injection)" `Quick
            test_transport_vttl_expires_on_marathon_paths;
          Alcotest.test_case "journey pretty-printer" `Quick test_transport_pp_journey;
          qcheck prop_transport_delivers_on_random_internets;
        ] );
    ]
