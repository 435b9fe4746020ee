(* Tests for the BGP-like path-vector protocol and its policies. *)

module Internet = Topology.Internet
module Relationship = Topology.Relationship
module Bgp = Interdomain.Bgp
module Prefix = Netcore.Prefix
module Addressing = Netcore.Addressing

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let spec r e tr = { Internet.routers = r; endhosts = e; transit = tr }
let link a b rel_of_b = { Internet.a; b; rel_of_b }

(* a small policy playground:
     T0 -- T1 (peers), S2 -> T0, S3 -> T1, S4 -> T0 and T1 (multihomed) *)
let playground () =
  Internet.build_custom ~seed:5L
    [| spec 3 0 true; spec 3 0 true; spec 2 1 false; spec 2 1 false; spec 2 1 false |]
    [
      link 0 1 Relationship.Peer;
      link 2 0 Relationship.Provider;
      link 3 1 Relationship.Provider;
      link 4 0 Relationship.Provider;
      link 4 1 Relationship.Provider;
    ]

let converged_playground () =
  let inet = playground () in
  let bgp = Bgp.create inet in
  Bgp.originate_all_domain_prefixes bgp;
  ignore (Bgp.converge bgp);
  (inet, bgp)

let test_full_reachability () =
  let inet, bgp = converged_playground () in
  let n = Internet.num_domains inet in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let p = (Internet.domain inet dst).Internet.prefix in
      match Bgp.route_to bgp ~domain:src p with
      | Some r ->
          check Alcotest.bool "path starts at src" true (List.hd r.Bgp.as_path = src);
          check Alcotest.bool "path ends at origin" true
            (List.nth r.Bgp.as_path (List.length r.Bgp.as_path - 1) = dst)
      | None -> Alcotest.fail (Printf.sprintf "no route %d -> %d" src dst)
    done
  done

let test_convergence_stable () =
  let _, bgp = converged_playground () in
  check Alcotest.bool "no change after convergence" false (Bgp.step bgp)

let test_loop_free_paths () =
  let inet, bgp = converged_playground () in
  for d = 0 to Internet.num_domains inet - 1 do
    List.iter
      (fun r ->
        let sorted = List.sort_uniq Int.compare r.Bgp.as_path in
        check Alcotest.int "no repeated domain" (List.length r.Bgp.as_path)
          (List.length sorted))
      (Bgp.rib bgp ~domain:d)
  done

(* valley-free: once a path goes "down" (provider->customer) or sideways
   (peer), it may never go "up" (customer->provider) or sideways again.
   We walk each chosen as_path from the origin toward the owner. *)
let valley_free inet path =
  (* path: owner first ... origin last; traverse origin -> owner, each
     step is an export from [from_] to [to_] *)
  let rec ok seen_down = function
    | from_ :: (to_ :: _ as rest) -> (
        match Internet.relationship inet ~of_:from_ ~to_ with
        | None -> false
        | Some rel ->
            (* [rel] is the role of [to_] seen from [from_]: Customer
               means the route flows provider->customer (down); Peer is
               sideways; Provider is up (customer->provider). *)
            let down = rel = Relationship.Customer in
            let up = rel = Relationship.Provider in
            let sideways = rel = Relationship.Peer in
            if seen_down && (up || sideways) then false
            else ok (seen_down || down || sideways) rest)
    | _ -> true
  in
  ok false (List.rev path)

let test_valley_free () =
  let inet, bgp = converged_playground () in
  for d = 0 to Internet.num_domains inet - 1 do
    List.iter
      (fun r ->
        check Alcotest.bool
          ("valley-free: "
          ^ String.concat "," (List.map string_of_int r.Bgp.as_path))
          true (valley_free inet r.Bgp.as_path))
      (Bgp.rib bgp ~domain:d)
  done

let prop_valley_free_random_internets =
  QCheck.Test.make ~name:"all chosen paths valley-free (random internets)"
    ~count:10
    QCheck.(int_bound 10000)
    (fun seed ->
      let params =
        { Internet.default_params with Internet.seed = Int64.of_int seed }
      in
      let inet = Internet.build params in
      let bgp = Bgp.create inet in
      Bgp.originate_all_domain_prefixes bgp;
      ignore (Bgp.converge bgp);
      List.for_all
        (fun d ->
          List.for_all
            (fun r -> valley_free inet r.Bgp.as_path)
            (Bgp.rib bgp ~domain:d))
        (List.init (Internet.num_domains inet) Fun.id))

let test_customer_preference () =
  (* S4 is multihomed to T0 and T1. A prefix originated by S4 must be
     reached from T0 via its customer link, not via peer T1. *)
  let inet, bgp = converged_playground () in
  let p = (Internet.domain inet 4).Internet.prefix in
  match Bgp.route_to bgp ~domain:0 p with
  | Some r ->
      check Alcotest.(list int) "direct customer path" [ 0; 4 ] r.Bgp.as_path;
      check Alcotest.int "customer pref"
        Relationship.(local_preference Customer)
        r.Bgp.pref
  | None -> Alcotest.fail "T0 has no route to its customer S4"

let test_anycast_multi_origin () =
  (* both S2 and S3 originate the same anycast prefix; each domain
     routes to the policy-closest origin *)
  let inet, bgp = converged_playground () in
  let g = Addressing.anycast_global ~group:8 in
  Bgp.originate bgp ~domain:2 g;
  Bgp.originate bgp ~domain:3 g;
  ignore (Bgp.converge bgp);
  let origin d =
    match Bgp.route_to bgp ~domain:d g with
    | Some r -> List.nth r.Bgp.as_path (List.length r.Bgp.as_path - 1)
    | None -> -1
  in
  check Alcotest.int "T0 picks its customer S2" 2 (origin 0);
  check Alcotest.int "T1 picks its customer S3" 3 (origin 1);
  check Alcotest.int "S2 uses itself" 2 (origin 2);
  check Alcotest.int "S3 uses itself" 3 (origin 3);
  ignore inet

let test_propagation_filter_blocks () =
  let inet = playground () in
  let g = Addressing.anycast_global ~group:8 in
  (* T1 refuses to carry the anycast prefix *)
  let config =
    { Bgp.propagate = (fun d p -> not (d = 1 && Prefix.equal p g)) }
  in
  let bgp = Bgp.create ~config inet in
  Bgp.originate_all_domain_prefixes bgp;
  Bgp.originate bgp ~domain:2 g;
  ignore (Bgp.converge bgp);
  (* S3 hangs off T1 only: the refusal cuts it off from the anycast *)
  check Alcotest.bool "T1 has no anycast route" true
    (Bgp.route_to bgp ~domain:1 g = None);
  check Alcotest.bool "S3 blocked by its transit" true
    (Bgp.route_to bgp ~domain:3 g = None);
  (* but S4 is multihomed to T0 and still reaches it *)
  check Alcotest.bool "S4 reaches via T0" true
    (Bgp.route_to bgp ~domain:4 g <> None);
  (* unicast routes are unaffected *)
  check Alcotest.bool "unicast unaffected" true
    (Bgp.route_to bgp ~domain:3 (Internet.domain inet 2).Internet.prefix <> None)

let test_scoped_advertisement () =
  let _inet, bgp = converged_playground () in
  let g = Addressing.anycast_in_domain ~domain:2 ~group:8 in
  (* S3 advertises the (option-2) anycast /24 to its transit T1 only *)
  Bgp.advertise_scoped bgp ~from_:3 ~to_:1 g;
  ignore (Bgp.converge bgp);
  (match Bgp.route_to bgp ~domain:1 g with
  | Some r ->
      check Alcotest.bool "no-export flagged" true r.Bgp.no_export;
      check Alcotest.(list int) "one-hop path" [ 1; 3 ] r.Bgp.as_path
  | None -> Alcotest.fail "scoped route not installed");
  (* and crucially it is NOT re-exported to T0 or its customers *)
  check Alcotest.bool "not re-exported to T0" true
    (Bgp.route_to bgp ~domain:0 g = None);
  check Alcotest.bool "not re-exported to S2" true
    (Bgp.route_to bgp ~domain:2 g = None);
  Bgp.withdraw_scoped bgp ~from_:3 ~to_:1 g;
  ignore (Bgp.converge bgp);
  check Alcotest.bool "withdrawn" true (Bgp.route_to bgp ~domain:1 g = None)

let test_limited_origin_radius () =
  (* playground distances from S2: T0 = 1 hop, T1 and S4 = 2, S3 = 3 *)
  let _inet, bgp = converged_playground () in
  let g = Addressing.anycast_global ~group:11 in
  let reaches d = Bgp.route_to bgp ~domain:d g <> None in
  (* radius 0: local only *)
  Bgp.originate_limited bgp ~domain:2 ~radius:0 g;
  ignore (Bgp.converge bgp);
  check Alcotest.bool "r0 local" true (reaches 2);
  check Alcotest.bool "r0 not at provider" false (reaches 0);
  Bgp.withdraw_limited bgp ~domain:2 g;
  (* radius 1: provider T0 hears it, nobody further *)
  Bgp.originate_limited bgp ~domain:2 ~radius:1 g;
  ignore (Bgp.converge bgp);
  check Alcotest.bool "r1 provider" true (reaches 0);
  check Alcotest.bool "r1 not at peer's side" false (reaches 1);
  check Alcotest.bool "r1 not 2 hops" false (reaches 3);
  Bgp.withdraw_limited bgp ~domain:2 g;
  (* radius 2: T1 and S4 hear it, S3 (3 hops) does not *)
  Bgp.originate_limited bgp ~domain:2 ~radius:2 g;
  ignore (Bgp.converge bgp);
  check Alcotest.bool "r2 peer transit" true (reaches 1);
  check Alcotest.bool "r2 multihomed stub" true (reaches 4);
  check Alcotest.bool "r2 not 3 hops" false (reaches 3);
  (* withdraw clears everywhere *)
  Bgp.withdraw_limited bgp ~domain:2 g;
  ignore (Bgp.converge bgp);
  for d = 0 to 4 do
    check Alcotest.bool "withdrawn" false (reaches d)
  done

let test_limited_origin_rejects_negative () =
  let inet = playground () in
  let bgp = Bgp.create inet in
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Bgp.originate_limited: negative radius") (fun () ->
      Bgp.originate_limited bgp ~domain:0 ~radius:(-1)
        (Addressing.anycast_global ~group:1))

let test_scoped_requires_link () =
  let inet = playground () in
  let bgp = Bgp.create inet in
  Alcotest.check_raises "not linked"
    (Invalid_argument "Bgp.advertise_scoped: domains not directly linked")
    (fun () ->
      Bgp.advertise_scoped bgp ~from_:2 ~to_:3
        (Addressing.anycast_global ~group:1))

let test_lookup_lpm () =
  let _inet, bgp = converged_playground () in
  (* an address inside S3's /16 resolves to S3's prefix by LPM *)
  let addr = Addressing.endhost_address ~domain:3 ~index:0 in
  match Bgp.lookup bgp ~domain:2 addr with
  | Some r ->
      check Alcotest.bool "covers addr" true (Prefix.mem addr r.Bgp.prefix);
      check Alcotest.int "originates at S3" 3
        (List.nth r.Bgp.as_path (List.length r.Bgp.as_path - 1))
  | None -> Alcotest.fail "no LPM route"

let test_withdraw_origin () =
  let inet, bgp = converged_playground () in
  let g = Addressing.anycast_global ~group:9 in
  Bgp.originate bgp ~domain:2 g;
  ignore (Bgp.converge bgp);
  check Alcotest.bool "present" true (Bgp.route_to bgp ~domain:1 g <> None);
  Bgp.withdraw_origin bgp ~domain:2 g;
  ignore (Bgp.converge bgp);
  for d = 0 to Internet.num_domains inet - 1 do
    check Alcotest.bool "gone everywhere" true (Bgp.route_to bgp ~domain:d g = None)
  done

let test_rib_size_accounting () =
  let inet, bgp = converged_playground () in
  let n = Internet.num_domains inet in
  for d = 0 to n - 1 do
    check Alcotest.int "one entry per domain prefix" n (Bgp.rib_size bgp ~domain:d)
  done;
  Bgp.originate bgp ~domain:2 (Addressing.anycast_global ~group:8);
  ignore (Bgp.converge bgp);
  for d = 0 to n - 1 do
    check Alcotest.int "anycast adds one" (n + 1) (Bgp.rib_size bgp ~domain:d)
  done

let test_egress_link_and_domain_path () =
  let inet, bgp = converged_playground () in
  let p3 = (Internet.domain inet 3).Internet.prefix in
  (match Bgp.egress_link bgp ~domain:0 p3 with
  | Some l ->
      check Alcotest.int "egress starts at src domain" 0 l.Internet.a_domain;
      check Alcotest.int "toward next hop" 1 l.Internet.b_domain
  | None -> Alcotest.fail "no egress link");
  (* self prefix: no egress *)
  check Alcotest.bool "self has no egress" true
    (Bgp.egress_link bgp ~domain:3 p3 = None);
  match Bgp.domain_path bgp ~src:0 (Prefix.network p3) with
  | Some path -> check Alcotest.(list int) "domain path" [ 0; 1; 3 ] path
  | None -> Alcotest.fail "no domain path"

let prop_lookup_consistent_with_route_to =
  QCheck.Test.make ~name:"lookup = route_to of the covering prefix" ~count:10
    QCheck.(int_bound 10000)
    (fun seed ->
      let params =
        { Internet.default_params with Internet.seed = Int64.of_int seed }
      in
      let inet = Internet.build params in
      let bgp = Bgp.create inet in
      Bgp.originate_all_domain_prefixes bgp;
      ignore (Bgp.converge bgp);
      let n = Internet.num_domains inet in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              let addr = Addressing.endhost_address ~domain:dst ~index:0 in
              match Bgp.lookup bgp ~domain:src addr with
              | None -> false
              | Some r ->
                  Prefix.mem addr r.Bgp.prefix
                  && Bgp.route_to bgp ~domain:src r.Bgp.prefix = Some r)
            (List.init n Fun.id))
        (List.init (min n 6) Fun.id))

let prop_egress_links_per_prefix =
  QCheck.Test.make ~name:"egress_links = egress_link per RIB prefix" ~count:10
    QCheck.(int_bound 10000)
    (fun seed ->
      let params =
        { Internet.default_params with Internet.seed = Int64.of_int seed }
      in
      let inet = Internet.build params in
      let bgp = Bgp.create inet in
      Bgp.originate_all_domain_prefixes bgp;
      Bgp.originate bgp ~domain:(seed mod Internet.num_domains inet)
        (Addressing.anycast_global ~group:8);
      ignore (Bgp.converge bgp);
      List.for_all
        (fun domain ->
          Bgp.egress_links bgp ~domain
          = List.filter_map
              (fun r ->
                Option.map
                  (fun l -> (r.Bgp.prefix, l))
                  (Bgp.egress_link bgp ~domain r.Bgp.prefix))
              (Bgp.rib bgp ~domain))
        (List.init (Internet.num_domains inet) Fun.id))

let () =
  Alcotest.run "interdomain"
    [
      ( "bgp-core",
        [
          Alcotest.test_case "full reachability" `Quick test_full_reachability;
          Alcotest.test_case "stable after convergence" `Quick test_convergence_stable;
          Alcotest.test_case "loop-free paths" `Quick test_loop_free_paths;
          Alcotest.test_case "valley-free paths" `Quick test_valley_free;
          qcheck prop_valley_free_random_internets;
          Alcotest.test_case "customer preference" `Quick test_customer_preference;
          Alcotest.test_case "LPM lookup" `Quick test_lookup_lpm;
          Alcotest.test_case "RIB accounting" `Quick test_rib_size_accounting;
          Alcotest.test_case "egress link / domain path" `Quick
            test_egress_link_and_domain_path;
          qcheck prop_lookup_consistent_with_route_to;
          qcheck prop_egress_links_per_prefix;
        ] );
      ( "bgp-anycast",
        [
          Alcotest.test_case "multi-origin anycast" `Quick test_anycast_multi_origin;
          Alcotest.test_case "propagation filter blocks" `Quick
            test_propagation_filter_blocks;
          Alcotest.test_case "scoped advertisement" `Quick test_scoped_advertisement;
          Alcotest.test_case "scoped requires link" `Quick test_scoped_requires_link;
          Alcotest.test_case "limited-radius origination" `Quick
            test_limited_origin_radius;
          Alcotest.test_case "limited radius validation" `Quick
            test_limited_origin_rejects_negative;
          Alcotest.test_case "withdraw origin" `Quick test_withdraw_origin;
        ] );
    ]
