(* Tests for the anycast redirection service: both inter-domain
   options, policy gating, and the stretch/share metrics. *)

module Internet = Topology.Internet
module Relationship = Topology.Relationship
module Forward = Simcore.Forward
module Service = Anycast.Service
module Metrics = Anycast.Metrics
module Policy = Anycast.Policy
module Bgp = Interdomain.Bgp
module Prefix = Netcore.Prefix
module Addressing = Netcore.Addressing

let check = Alcotest.check

let spec r e tr = { Internet.routers = r; endhosts = e; transit = tr }
let link a b rel_of_b = { Internet.a; b; rel_of_b }

(* T0 -- T1 peers; S2 -> T0; S3 -> T1; each domain has endhosts *)
let small_internet () =
  Internet.build_custom ~seed:77L
    [| spec 4 2 true; spec 4 2 true; spec 3 2 false; spec 3 2 false |]
    [
      link 0 1 Relationship.Peer;
      link 2 0 Relationship.Provider;
      link 3 1 Relationship.Provider;
    ]

let fresh_env () = Forward.make_env (small_internet ())

let domain_routers env d =
  Array.to_list (Internet.domain env.Forward.inet d).Internet.router_ids

let endhosts_in env d =
  Array.to_list (Internet.domain env.Forward.inet d).Internet.endhost_ids

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)

let test_policy_defaults () =
  let p = Policy.create () in
  let any24 = Addressing.anycast_global ~group:1 in
  check Alcotest.bool "default allows" true (Policy.propagates p ~domain:3 ~prefix:any24);
  Policy.set_propagates p ~domain:3 ~prefix:any24 false;
  check Alcotest.bool "explicit refusal" false
    (Policy.propagates p ~domain:3 ~prefix:any24);
  check Alcotest.bool "other domains unaffected" true
    (Policy.propagates p ~domain:2 ~prefix:any24)

let test_policy_refuse_nonroutable () =
  let p = Policy.create () in
  Policy.refuse_all_nonroutable p ~domains:[ 1 ];
  let any24 = Addressing.anycast_global ~group:1 in
  let big = Prefix.of_string "10.0.0.0/16" in
  check Alcotest.bool "refuses /24" false (Policy.propagates p ~domain:1 ~prefix:any24);
  check Alcotest.bool "carries /16" true (Policy.propagates p ~domain:1 ~prefix:big);
  check Alcotest.bool "explicit override wins" true
    (Policy.set_propagates p ~domain:1 ~prefix:any24 true;
     Policy.propagates p ~domain:1 ~prefix:any24)

(* bgp_config promises that later policy writes reach BGP: the next
   converge must act on them although no origination changed. *)
let test_policy_flip_reconverges () =
  let policy = Policy.create () in
  let inet = Internet.build Internet.default_params in
  let env = Forward.make_env ~config:(Policy.bgp_config policy) inet in
  let bgp = env.Forward.bgp in
  let has_route d p = Bgp.route_to bgp ~domain:d p <> None in
  let p5 = (Internet.domain inet 5).Internet.prefix in
  check Alcotest.bool "carried before" true (has_route 0 p5);
  Policy.set_propagates policy ~domain:0 ~prefix:p5 false;
  check Alcotest.int "refusal rounds" 3 (Forward.reconverge env);
  check Alcotest.bool "refused" false (has_route 0 p5);
  Policy.set_propagates policy ~domain:0 ~prefix:p5 true;
  check Alcotest.bool "flip back reconverges" true (Forward.reconverge env > 0);
  check Alcotest.bool "carried again" true (has_route 0 p5);
  let g = Addressing.anycast_global ~group:1 in
  Bgp.originate bgp ~domain:5 g;
  ignore (Forward.reconverge env);
  check Alcotest.bool "anycast carried" true (has_route 0 g);
  Policy.refuse_all_nonroutable policy ~domains:[ 0 ];
  check Alcotest.bool "refuse_all_nonroutable reconverges" true
    (Forward.reconverge env > 0);
  check Alcotest.bool "anycast refused" false (has_route 0 g);
  check Alcotest.bool "unicast still carried" true (has_route 0 p5)

(* ------------------------------------------------------------------ *)
(* Service: Option 1                                                   *)

let test_opt1_deploy_and_resolve () =
  let env = fresh_env () in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  check Alcotest.bool "no members yet" true (Service.members service = []);
  Service.add_participant service ~domain:2 ~routers:(domain_routers env 2);
  check Alcotest.bool "participant" true (Service.is_participant service ~domain:2);
  check Alcotest.int "members" 3 (List.length (Service.members service));
  (* every endhost, in every domain, reaches a member in S2 *)
  List.iter
    (fun d ->
      List.iter
        (fun h ->
          match Service.ingress_for_endhost service ~endhost:h with
          | Some m ->
              check Alcotest.int "lands in S2" 2
                (Internet.router env.Forward.inet m).Internet.rdomain
          | None -> Alcotest.fail "universal access broken")
        (endhosts_in env d))
    [ 0; 1; 2; 3 ]

let test_opt1_closest_wins () =
  let env = fresh_env () in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  Service.add_participant service ~domain:2 ~routers:(domain_routers env 2);
  Service.add_participant service ~domain:3 ~routers:(domain_routers env 3);
  (* clients in S3 must now be served by S3's own members *)
  List.iter
    (fun h ->
      match Service.ingress_for_endhost service ~endhost:h with
      | Some m ->
          check Alcotest.int "local members win" 3
            (Internet.router env.Forward.inet m).Internet.rdomain
      | None -> Alcotest.fail "dropped")
    (endhosts_in env 3);
  (* stretch for S3 clients is 1: they already get the best member *)
  List.iter
    (fun h ->
      match Metrics.stretch service ~endhost:h with
      | Some s -> check (Alcotest.float 1e-9) "stretch 1" 1.0 s
      | None -> Alcotest.fail "no stretch")
    (endhosts_in env 3)

let test_opt1_policy_blocks_transit () =
  (* T1 refuses anycast prefixes: S3 (single-homed behind T1) loses
     access — the scenario motivating Option 2 *)
  let policy = Policy.create () in
  let env = Forward.make_env ~config:(Policy.bgp_config policy) (small_internet ()) in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  Policy.set_propagates policy ~domain:1 ~prefix:(Service.group service) false;
  Service.add_participant service ~domain:2 ~routers:(domain_routers env 2);
  List.iter
    (fun h ->
      check Alcotest.bool "S3 blocked" true
        (Service.ingress_for_endhost service ~endhost:h = None))
    (endhosts_in env 3);
  List.iter
    (fun h ->
      check Alcotest.bool "S2 locals fine" true
        (Service.ingress_for_endhost service ~endhost:h <> None))
    (endhosts_in env 2)

let test_opt1_remove_participant () =
  let env = fresh_env () in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  Service.add_participant service ~domain:2 ~routers:(domain_routers env 2);
  Service.add_participant service ~domain:3 ~routers:(domain_routers env 3);
  Service.remove_participant service ~domain:2;
  check Alcotest.(list int) "only S3 left" [ 3 ] (Service.participants service);
  (* S2 clients are now redirected to S3 *)
  List.iter
    (fun h ->
      match Service.ingress_for_endhost service ~endhost:h with
      | Some m ->
          check Alcotest.int "redirected to S3" 3
            (Internet.router env.Forward.inet m).Internet.rdomain
      | None -> Alcotest.fail "dropped after withdrawal")
    (endhosts_in env 2)

let test_service_validation () =
  let env = fresh_env () in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  Alcotest.check_raises "empty routers"
    (Invalid_argument "Service.add_participant: no routers") (fun () ->
      Service.add_participant service ~domain:2 ~routers:[]);
  Alcotest.check_raises "foreign router"
    (Invalid_argument "Service.add_participant: router outside the domain")
    (fun () ->
      Service.add_participant service ~domain:2 ~routers:(domain_routers env 3));
  Alcotest.check_raises "bad version"
    (Invalid_argument "Service.deploy: version out of [1, 63]") (fun () ->
      ignore (Service.deploy env ~version:64 ~strategy:Service.Option1))

(* ------------------------------------------------------------------ *)
(* Service: Option 2                                                   *)

let test_opt2_routes_to_default () =
  let env = fresh_env () in
  let service =
    Service.deploy env ~version:8 ~strategy:(Service.Option2 { default_domain = 2 })
  in
  check Alcotest.bool "prefix inside default's space" true
    (Prefix.subsumes (Internet.domain env.Forward.inet 2).Internet.prefix
       (Service.group service));
  Service.add_participant service ~domain:2 ~routers:(domain_routers env 2);
  (* plain unicast routing carries every client to the default domain,
     with no BGP change at all *)
  List.iter
    (fun d ->
      List.iter
        (fun h ->
          match Service.ingress_for_endhost service ~endhost:h with
          | Some m ->
              check Alcotest.int "lands at default" 2
                (Internet.router env.Forward.inet m).Internet.rdomain
          | None -> Alcotest.fail "option2 universal access broken")
        (endhosts_in env d))
    [ 0; 1; 2; 3 ];
  check (Alcotest.float 1e-9) "default share 100%" 1.0
    (Metrics.termination_share service ~domain:2)

let test_opt2_second_participant_serves_locally () =
  let env = fresh_env () in
  let service =
    Service.deploy env ~version:8 ~strategy:(Service.Option2 { default_domain = 2 })
  in
  Service.add_participant service ~domain:2 ~routers:(domain_routers env 2);
  Service.add_participant service ~domain:3 ~routers:(domain_routers env 3);
  (* S3's clients are served inside S3: the anycast packet meets a
     member before leaving the domain *)
  List.iter
    (fun h ->
      match Service.ingress_for_endhost service ~endhost:h with
      | Some m ->
          check Alcotest.int "served locally" 3
            (Internet.router env.Forward.inet m).Internet.rdomain
      | None -> Alcotest.fail "dropped")
    (endhosts_in env 3);
  (* but T1's clients still default to D because nothing advertised *)
  List.iter
    (fun h ->
      match Service.ingress_for_endhost service ~endhost:h with
      | Some m ->
          check Alcotest.int "T1 defaults to D" 2
            (Internet.router env.Forward.inet m).Internet.rdomain
      | None -> Alcotest.fail "dropped")
    (endhosts_in env 1)

let test_opt2_peering_advertisement () =
  let env = fresh_env () in
  let service =
    Service.deploy env ~version:8 ~strategy:(Service.Option2 { default_domain = 2 })
  in
  Service.add_participant service ~domain:2 ~routers:(domain_routers env 2);
  Service.add_participant service ~domain:3 ~routers:(domain_routers env 3);
  (* Q(=S3) advertises to its neighbor T1: T1's clients switch to S3 *)
  Service.advertise_to_neighbor service ~from_:3 ~to_:1;
  List.iter
    (fun h ->
      match Service.ingress_for_endhost service ~endhost:h with
      | Some m ->
          check Alcotest.int "T1 now lands at S3" 3
            (Internet.router env.Forward.inet m).Internet.rdomain
      | None -> Alcotest.fail "dropped")
    (endhosts_in env 1);
  (* withdrawal restores the default route *)
  Service.withdraw_neighbor_advertisement service ~from_:3 ~to_:1;
  List.iter
    (fun h ->
      match Service.ingress_for_endhost service ~endhost:h with
      | Some m ->
          check Alcotest.int "back to default" 2
            (Internet.router env.Forward.inet m).Internet.rdomain
      | None -> Alcotest.fail "dropped")
    (endhosts_in env 1)

let test_opt2_requires_participant_advertiser () =
  let env = fresh_env () in
  let service =
    Service.deploy env ~version:8 ~strategy:(Service.Option2 { default_domain = 2 })
  in
  Service.add_participant service ~domain:2 ~routers:(domain_routers env 2);
  Alcotest.check_raises "non-participant cannot advertise"
    (Invalid_argument "Service.advertise_to_neighbor: advertiser is not a participant")
    (fun () -> Service.advertise_to_neighbor service ~from_:3 ~to_:1);
  let service1 = Service.deploy env ~version:9 ~strategy:Service.Option1 in
  Service.add_participant service1 ~domain:2 ~routers:(domain_routers env 2);
  Alcotest.check_raises "option1 has no peering advertisements"
    (Invalid_argument
       "Service.advertise_to_neighbor: peering advertisements are an Option 2 \
        mechanism") (fun () -> Service.advertise_to_neighbor service1 ~from_:2 ~to_:0)

let test_opt2_empty_default_drops () =
  (* GIA's rule: the home domain must include at least one member; with
     none, option-2 packets reaching the default domain die there *)
  let env = fresh_env () in
  let service =
    Service.deploy env ~version:8 ~strategy:(Service.Option2 { default_domain = 2 })
  in
  Service.add_participant service ~domain:3 ~routers:(domain_routers env 3);
  List.iter
    (fun h ->
      check Alcotest.bool "T0 clients dropped at memberless default" true
        (Service.ingress_for_endhost service ~endhost:h = None))
    (endhosts_in env 0)

let test_opt1_batch_equals_sequential () =
  let env_a = fresh_env () in
  let sa = Service.deploy env_a ~version:8 ~strategy:Service.Option1 in
  Service.add_participant sa ~domain:2 ~routers:(domain_routers env_a 2);
  Service.add_participant sa ~domain:3 ~routers:(domain_routers env_a 3);
  let env_b = fresh_env () in
  let sb = Service.deploy env_b ~version:8 ~strategy:Service.Option1 in
  Service.add_participants sb
    [ (2, domain_routers env_b 2); (3, domain_routers env_b 3) ];
  check Alcotest.(list int) "same participants" (Service.participants sa)
    (Service.participants sb);
  check Alcotest.(list int) "same members" (Service.members sa) (Service.members sb);
  (* same redirection decisions everywhere *)
  List.iter
    (fun d ->
      List.iter
        (fun h ->
          check Alcotest.(option int) "same ingress"
            (Service.ingress_for_endhost sa ~endhost:h)
            (Service.ingress_for_endhost sb ~endhost:h))
        (endhosts_in env_a d))
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Service: GIA                                                        *)

let test_gia_r0_behaves_like_option2 () =
  let env = fresh_env () in
  let gia =
    Service.deploy env ~version:8
      ~strategy:(Service.Gia { home_domain = 2; radius = 0 })
  in
  check Alcotest.bool "prefix rooted at home" true
    (Prefix.subsumes (Internet.domain env.Forward.inet 2).Internet.prefix
       (Service.group gia));
  Service.add_participant gia ~domain:2 ~routers:(domain_routers env 2);
  Service.add_participant gia ~domain:3 ~routers:(domain_routers env 3);
  (* T1's clients still default to the home domain: radius 0 makes no
     one discoverable beyond its own borders *)
  List.iter
    (fun h ->
      match Service.ingress_for_endhost gia ~endhost:h with
      | Some m ->
          check Alcotest.int "defaults to home" 2
            (Internet.router env.Forward.inet m).Internet.rdomain
      | None -> Alcotest.fail "dropped")
    (endhosts_in env 1)

let test_gia_radius_recovers_proximity () =
  let env = fresh_env () in
  let gia =
    Service.deploy env ~version:9
      ~strategy:(Service.Gia { home_domain = 2; radius = 1 })
  in
  Service.add_participant gia ~domain:2 ~routers:(domain_routers env 2);
  Service.add_participant gia ~domain:3 ~routers:(domain_routers env 3);
  (* with radius 1, S3's advertisement reaches its provider T1, so
     T1's clients are served at S3 instead of trekking to the home *)
  List.iter
    (fun h ->
      match Service.ingress_for_endhost gia ~endhost:h with
      | Some m ->
          check Alcotest.int "served at nearby participant" 3
            (Internet.router env.Forward.inet m).Internet.rdomain
      | None -> Alcotest.fail "dropped")
    (endhosts_in env 1);
  (* home-domain delivery still works everywhere *)
  check (Alcotest.float 1e-9) "universal delivery" 1.0
    (Metrics.delivery_rate gia)

let test_gia_validation () =
  let env = fresh_env () in
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Service.deploy: negative GIA radius") (fun () ->
      ignore
        (Service.deploy env ~version:8
           ~strategy:(Service.Gia { home_domain = 0; radius = -1 })));
  let gia =
    Service.deploy env ~version:8
      ~strategy:(Service.Gia { home_domain = 2; radius = 1 })
  in
  Service.add_participant gia ~domain:2 ~routers:(domain_routers env 2);
  Alcotest.check_raises "no peering advertisements under GIA"
    (Invalid_argument
       "Service.advertise_to_neighbor: peering advertisements are an Option 2 \
        mechanism") (fun () -> Service.advertise_to_neighbor gia ~from_:2 ~to_:0)

(* ------------------------------------------------------------------ *)
(* Metrics helpers                                                     *)

let test_metrics_stats () =
  check Alcotest.bool "mean of empty is nan" true (Float.is_nan (Metrics.mean []));
  check (Alcotest.float 1e-9) "mean" 2.0 (Metrics.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "p50" 2.0 (Metrics.percentile 0.5 [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "p100" 9.0 (Metrics.percentile 1.0 [ 9.0; 1.0 ]);
  check (Alcotest.float 1e-9) "p0 clamps" 1.0 (Metrics.percentile 0.0 [ 9.0; 1.0 ])

let test_metrics_stretch_at_full_deployment () =
  let env = fresh_env () in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  List.iter
    (fun d -> Service.add_participant service ~domain:d ~routers:(domain_routers env d))
    [ 0; 1; 2; 3 ];
  check (Alcotest.float 1e-9) "full deployment -> stretch 1" 1.0
    (Metrics.mean_stretch service);
  check (Alcotest.float 1e-9) "full delivery" 1.0 (Metrics.delivery_rate service)

let () =
  Alcotest.run "anycast"
    [
      ( "policy",
        [
          Alcotest.test_case "defaults" `Quick test_policy_defaults;
          Alcotest.test_case "refuse non-routable" `Quick test_policy_refuse_nonroutable;
          Alcotest.test_case "flips reach BGP" `Quick test_policy_flip_reconverges;
        ] );
      ( "option1",
        [
          Alcotest.test_case "deploy and resolve" `Quick test_opt1_deploy_and_resolve;
          Alcotest.test_case "closest member wins" `Quick test_opt1_closest_wins;
          Alcotest.test_case "policy blocks transit" `Quick
            test_opt1_policy_blocks_transit;
          Alcotest.test_case "remove participant" `Quick test_opt1_remove_participant;
          Alcotest.test_case "batch = sequential enrollment" `Quick
            test_opt1_batch_equals_sequential;
          Alcotest.test_case "validation" `Quick test_service_validation;
        ] );
      ( "option2",
        [
          Alcotest.test_case "routes to default" `Quick test_opt2_routes_to_default;
          Alcotest.test_case "second participant serves locally" `Quick
            test_opt2_second_participant_serves_locally;
          Alcotest.test_case "peering advertisement" `Quick
            test_opt2_peering_advertisement;
          Alcotest.test_case "advertiser validation" `Quick
            test_opt2_requires_participant_advertiser;
          Alcotest.test_case "memberless default drops" `Quick
            test_opt2_empty_default_drops;
        ] );
      ( "gia",
        [
          Alcotest.test_case "r=0 behaves like option2" `Quick
            test_gia_r0_behaves_like_option2;
          Alcotest.test_case "radius recovers proximity" `Quick
            test_gia_radius_recovers_proximity;
          Alcotest.test_case "validation" `Quick test_gia_validation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "stats helpers" `Quick test_metrics_stats;
          Alcotest.test_case "stretch at full deployment" `Quick
            test_metrics_stretch_at_full_deployment;
        ] );
    ]
