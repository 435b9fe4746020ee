(* Tests for intra-domain routing: Dijkstra, link-state and
   distance-vector anycast. *)

module Graph = Topology.Graph
module Rng = Topology.Rng
module Internet = Topology.Internet
module Spt = Routing.Spt
module Linkstate = Routing.Linkstate
module Distvec = Routing.Distvec
module Addressing = Netcore.Addressing

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let group = Addressing.anycast_global ~group:8

let random_connected_graph seed n extra =
  let rng = Rng.create (Int64.of_int seed) in
  let g = Graph.create ~n in
  for i = 1 to n - 1 do
    Graph.add_edge g i (Rng.int rng i) (1.0 +. Rng.float rng 9.0)
  done;
  for _ = 1 to extra do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then Graph.add_edge g u v (1.0 +. Rng.float rng 9.0)
  done;
  g

(* reference all-pairs Bellman-Ford *)
let bellman_ford g ~src =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  dist.(src) <- 0.0;
  for _ = 1 to n do
    List.iter
      (fun (u, v, w) ->
        if dist.(u) +. w < dist.(v) then dist.(v) <- dist.(u) +. w;
        if dist.(v) +. w < dist.(u) then dist.(u) <- dist.(v) +. w)
      (Graph.edges g)
  done;
  dist

(* ------------------------------------------------------------------ *)
(* Spt                                                                 *)

let prop_dijkstra_matches_bellman_ford =
  QCheck.Test.make ~name:"dijkstra distances = bellman-ford" ~count:50
    QCheck.(pair (int_bound 10000) (int_bound 20))
    (fun (seed, n) ->
      let n = n + 2 in
      let g = random_connected_graph seed n (2 * n) in
      let src = seed mod n in
      let spt = Spt.dijkstra g ~src in
      let ref_dist = bellman_ford g ~src in
      Array.for_all2
        (fun a b -> Float.abs (a -. b) < 1e-9)
        spt.Spt.dist ref_dist)

let prop_dijkstra_paths_valid =
  QCheck.Test.make ~name:"dijkstra paths walk real edges with right cost"
    ~count:50
    QCheck.(pair (int_bound 10000) (int_bound 20))
    (fun (seed, n) ->
      let n = n + 2 in
      let g = random_connected_graph seed n (2 * n) in
      let src = seed mod n in
      let spt = Spt.dijkstra g ~src in
      List.for_all
        (fun dst ->
          match Spt.path spt dst with
          | None -> false
          | Some nodes ->
              let rec cost = function
                | a :: (b :: _ as rest) -> (
                    match Graph.edge_weight g a b with
                    | Some w -> w +. cost rest
                    | None -> infinity)
                | _ -> 0.0
              in
              List.hd nodes = src
              && List.nth nodes (List.length nodes - 1) = dst
              && Float.abs (cost nodes -. Spt.distance spt dst) < 1e-9)
        (List.init n Fun.id))

let test_spt_filtered () =
  let g = Graph.create ~n:4 in
  (* 0 - 1 - 2, and 0 - 3 - 2 with 3 forbidden *)
  Graph.add_edge g 0 1 5.0;
  Graph.add_edge g 1 2 5.0;
  Graph.add_edge g 0 3 1.0;
  Graph.add_edge g 3 2 1.0;
  let spt = Spt.dijkstra_filtered g ~src:0 ~allow:(fun v -> v <> 3) in
  check (Alcotest.float 1e-9) "detour distance" 10.0 (Spt.distance spt 2);
  check Alcotest.bool "forbidden unreachable" false (Spt.reachable spt 3)

let test_spt_next_hop () =
  let g = Graph.create ~n:3 in
  Graph.add_edge g 0 1 1.0;
  Graph.add_edge g 1 2 1.0;
  let spt = Spt.dijkstra g ~src:0 in
  check Alcotest.(option int) "next hop" (Some 1) (Spt.next_hop spt 2);
  check Alcotest.(option int) "self" None (Spt.next_hop spt 0)

let test_spt_hops_and_eccentricity () =
  let g = Graph.create ~n:4 in
  Graph.add_edge g 0 1 10.0;
  Graph.add_edge g 1 2 10.0;
  Graph.add_edge g 2 3 10.0;
  check Alcotest.(option int) "hops ignore weights" (Some 3) (Spt.hops g ~src:0 ~dst:3);
  check Alcotest.int "eccentricity" 3 (Spt.eccentricity g ~src:0 ~allow:(fun _ -> true));
  check Alcotest.int "filtered ecc" 1
    (Spt.eccentricity g ~src:0 ~allow:(fun v -> v < 2))

(* ------------------------------------------------------------------ *)
(* Shared fixture: one domain of an internet                           *)

let single_domain_inet ?(n = 12) ?(seed = 3L) () =
  Internet.build_custom ~seed
    [| { Internet.routers = n; endhosts = 2; transit = true } |]
    []

(* ------------------------------------------------------------------ *)
(* Linkstate                                                           *)

let test_ls_distance_symmetric () =
  let inet = single_domain_inet () in
  let ls = Linkstate.compute inet ~domain:0 in
  let routers = Linkstate.routers ls in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check (Alcotest.float 1e-9) "symmetric"
            (Linkstate.distance ls ~src:a ~dst:b)
            (Linkstate.distance ls ~src:b ~dst:a))
        routers)
    routers

let test_ls_anycast_closest () =
  let inet = single_domain_inet () in
  let ls = Linkstate.compute inet ~domain:0 in
  let routers = Linkstate.routers ls in
  let m1 = List.nth routers 0 and m2 = List.nth routers (List.length routers - 1) in
  Linkstate.advertise_anycast ls ~group ~member:m1;
  Linkstate.advertise_anycast ls ~group ~member:m2;
  List.iter
    (fun src ->
      match Linkstate.anycast_route ls ~src ~group with
      | None -> Alcotest.fail "no anycast route"
      | Some Linkstate.Deliver ->
          check Alcotest.bool "deliver only at members" true (src = m1 || src = m2)
      | Some (Linkstate.Toward { member; metric; _ }) ->
          let best =
            Float.min
              (Linkstate.distance ls ~src ~dst:m1)
              (Linkstate.distance ls ~src ~dst:m2)
          in
          check (Alcotest.float 1e-9) "routes to closest member" best metric;
          check (Alcotest.float 1e-9) "member is the argmin" best
            (Linkstate.distance ls ~src ~dst:member))
    routers

let test_ls_pseudo_node_encoding_equivalent () =
  (* the paper's two LS encodings (§3.2) must agree: explicit member
     listing vs a high-cost link to a pseudo-node *)
  let inet = single_domain_inet ~n:12 ~seed:8L () in
  let ls = Linkstate.compute inet ~domain:0 in
  let routers = Linkstate.routers ls in
  Linkstate.advertise_anycast ls ~group ~member:2;
  Linkstate.advertise_anycast ls ~group ~member:9;
  List.iter
    (fun src ->
      match
        ( Linkstate.anycast_route ls ~src ~group,
          Linkstate.anycast_route_pseudo_node ls ~src ~group )
      with
      | Some Linkstate.Deliver, Some Linkstate.Deliver -> ()
      | ( Some (Linkstate.Toward { metric = m1; member = mem1; _ }),
          Some (Linkstate.Toward { metric = m2; member = mem2; _ }) ) ->
          check (Alcotest.float 1e-6) "same metric" m1 m2;
          (* on ties the encodings may pick different members, but both
             picks must achieve the metric *)
          check (Alcotest.float 1e-9) "listing's member achieves it" m1
            (Linkstate.distance ls ~src ~dst:mem1);
          check (Alcotest.float 1e-6) "pseudo-node's member achieves it" m1
            (Linkstate.distance ls ~src ~dst:mem2)
      | a, b ->
          Alcotest.fail
            (Printf.sprintf "encodings disagree structurally at %d (%b vs %b)"
               src (a <> None) (b <> None)))
    routers

let test_ls_members_visible () =
  let inet = single_domain_inet () in
  let ls = Linkstate.compute inet ~domain:0 in
  check Alcotest.(list int) "no members yet" [] (Linkstate.anycast_members ls ~group);
  Linkstate.advertise_anycast ls ~group ~member:2;
  Linkstate.advertise_anycast ls ~group ~member:0;
  Linkstate.advertise_anycast ls ~group ~member:2 (* duplicate ignored *);
  check Alcotest.(list int) "sorted members" [ 0; 2 ]
    (Linkstate.anycast_members ls ~group);
  Linkstate.withdraw_anycast ls ~group ~member:0;
  check Alcotest.(list int) "after withdraw" [ 2 ]
    (Linkstate.anycast_members ls ~group);
  Linkstate.withdraw_anycast ls ~group ~member:2;
  check Alcotest.int "group gone" 0 (List.length (Linkstate.groups ls))

let test_ls_domain_scoped () =
  let inet = Internet.small_example () in
  let ls = Linkstate.compute inet ~domain:0 in
  let foreign =
    (Internet.domain inet 1).Internet.router_ids.(0)
  in
  check Alcotest.bool "foreign unreachable" true
    (Linkstate.distance ls ~src:(List.hd (Linkstate.routers ls)) ~dst:foreign
    = infinity);
  Alcotest.check_raises "cannot advertise foreign member"
    (Invalid_argument "Linkstate.advertise_anycast: router not in domain")
    (fun () -> Linkstate.advertise_anycast ls ~group ~member:foreign)

(* ------------------------------------------------------------------ *)
(* Distvec                                                             *)

let test_dv_agrees_with_ls () =
  let inet = single_domain_inet ~n:10 () in
  let ls = Linkstate.compute inet ~domain:0 in
  let dv = Distvec.create inet ~domain:0 in
  let rounds = Distvec.converge dv in
  check Alcotest.bool "converged in >0 rounds" true (rounds > 0);
  check Alcotest.bool "stable after convergence" false (Distvec.step dv);
  let routers = Linkstate.routers ls in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check (Alcotest.float 1e-9) "dv distance = ls distance"
            (Linkstate.distance ls ~src:a ~dst:b)
            (Distvec.distance dv ~src:a ~dst:b))
        routers)
    routers

let prop_dv_agrees_with_ls_any_seed =
  QCheck.Test.make ~name:"dv = ls distances over random domains" ~count:15
    QCheck.(pair (int_bound 1000) (int_bound 10))
    (fun (seed, n) ->
      let n = n + 3 in
      let inet = single_domain_inet ~n ~seed:(Int64.of_int seed) () in
      let ls = Linkstate.compute inet ~domain:0 in
      let dv = Distvec.create inet ~domain:0 in
      ignore (Distvec.converge dv);
      let routers = Linkstate.routers ls in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Float.abs
                (Linkstate.distance ls ~src:a ~dst:b
                -. Distvec.distance dv ~src:a ~dst:b)
              < 1e-9)
            routers)
        routers)

let test_dv_anycast_distance () =
  let inet = single_domain_inet ~n:10 () in
  let ls = Linkstate.compute inet ~domain:0 in
  let dv = Distvec.create inet ~domain:0 in
  ignore (Distvec.converge dv);
  let routers = Linkstate.routers ls in
  let m1 = List.nth routers 1 and m2 = List.nth routers 7 in
  Linkstate.advertise_anycast ls ~group ~member:m1;
  Linkstate.advertise_anycast ls ~group ~member:m2;
  Distvec.advertise_anycast dv ~group ~member:m1;
  Distvec.advertise_anycast dv ~group ~member:m2;
  ignore (Distvec.converge dv);
  List.iter
    (fun src ->
      let expected =
        Float.min
          (Linkstate.distance ls ~src ~dst:m1)
          (Linkstate.distance ls ~src ~dst:m2)
      in
      check (Alcotest.float 1e-9) "dv anycast distance" expected
        (Distvec.anycast_distance dv ~src ~group);
      match Distvec.anycast_route dv ~src ~group with
      | Some Distvec.Deliver ->
          check Alcotest.bool "deliver at member" true (src = m1 || src = m2)
      | Some (Distvec.Toward { metric; _ }) ->
          check (Alcotest.float 1e-9) "toward metric" expected metric
      | None -> Alcotest.fail "no dv anycast route")
    routers

let test_dv_withdraw_propagates () =
  let inet = single_domain_inet ~n:8 () in
  let dv = Distvec.create inet ~domain:0 in
  ignore (Distvec.converge dv);
  Distvec.advertise_anycast dv ~group ~member:0;
  Distvec.advertise_anycast dv ~group ~member:5;
  ignore (Distvec.converge dv);
  Distvec.withdraw_anycast dv ~group ~member:0;
  let rounds = Distvec.converge dv in
  check Alcotest.bool "withdrawal needs rounds" true (rounds > 0);
  (* everyone now routes to member 5 *)
  let ls = Linkstate.compute inet ~domain:0 in
  List.iter
    (fun src ->
      if src <> 5 then
        check (Alcotest.float 1e-9) "post-withdraw distance"
          (Linkstate.distance ls ~src ~dst:5)
          (Distvec.anycast_distance dv ~src ~group))
    (Linkstate.routers ls)

(* A link failure in a DV domain is installed the way E32 and the
   blackout drill install one: the graph loses the edge and the domain's
   IGP is recomputed over it (Forward.recompute_igps, via Igp.compute). *)
let test_dv_link_failure_reconverges () =
  let inet = single_domain_inet ~n:10 ~seed:6L () in
  let before = Routing.Igp.compute inet ~domain:0 ~flavor:Routing.Igp.Distvec_igp in
  (* fail an edge that lies on a cycle so the domain stays connected *)
  let g = inet.Internet.graph in
  let edge =
    List.find_opt
      (fun (a, b, _) ->
        Graph.remove_edge g a b;
        let still = Graph.is_connected g in
        if not still then Graph.add_edge g a b 1.0;
        still)
      (Graph.edges g)
  in
  match edge with
  | None -> Alcotest.fail "no removable edge in fixture"
  | Some (a, b, _) ->
      let dv = Routing.Igp.compute inet ~domain:0 ~flavor:Routing.Igp.Distvec_igp in
      check Alcotest.bool "the failed link carried a route" true
        (Routing.Igp.next_hop before ~src:a ~dst:b = Some b
        && Routing.Igp.next_hop dv ~src:a ~dst:b <> Some b);
      (* reference: link-state recomputed over the mutated graph *)
      let ls = Linkstate.compute inet ~domain:0 in
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              check (Alcotest.float 1e-9)
                (Printf.sprintf "post-failure %d->%d" src dst)
                (Linkstate.distance ls ~src ~dst)
                (Routing.Igp.distance dv ~src ~dst))
            (Linkstate.routers ls))
        (Linkstate.routers ls)

let test_dv_next_hop_walks_to_destination () =
  let inet = single_domain_inet ~n:10 () in
  let dv = Distvec.create inet ~domain:0 in
  ignore (Distvec.converge dv);
  let walk src dst =
    let rec go cur steps =
      if cur = dst then true
      else if steps > 50 then false
      else
        match Distvec.next_hop dv ~src:cur ~dst with
        | Some nh -> go nh (steps + 1)
        | None -> false
    in
    go src 0
  in
  let routers = List.init 10 Fun.id in
  List.iter
    (fun a ->
      List.iter
        (fun b -> check Alcotest.bool "walk reaches" true (walk a b))
        routers)
    routers

(* ------------------------------------------------------------------ *)
(* Igp: the unified wrapper                                            *)

module Igp = Routing.Igp

let test_igp_flavors_agree_on_unicast () =
  let inet = single_domain_inet ~n:10 ~seed:4L () in
  let ls = Igp.compute inet ~domain:0 ~flavor:Igp.Linkstate_igp in
  let dv = Igp.compute inet ~domain:0 ~flavor:Igp.Distvec_igp in
  check Alcotest.bool "flavors" true
    (Igp.flavor ls = Igp.Linkstate_igp && Igp.flavor dv = Igp.Distvec_igp);
  check Alcotest.bool "capability gap" true
    (Igp.members_known ls && not (Igp.members_known dv));
  for a = 0 to 9 do
    for b = 0 to 9 do
      check (Alcotest.float 1e-9) "distances agree"
        (Igp.distance ls ~src:a ~dst:b)
        (Igp.distance dv ~src:a ~dst:b)
    done
  done

let test_igp_anycast_decisions_agree () =
  let inet = single_domain_inet ~n:10 ~seed:4L () in
  let ls = Igp.compute inet ~domain:0 ~flavor:Igp.Linkstate_igp in
  let dv = Igp.compute inet ~domain:0 ~flavor:Igp.Distvec_igp in
  List.iter
    (fun igp ->
      Igp.advertise_anycast igp ~group ~member:2;
      Igp.advertise_anycast igp ~group ~member:7)
    [ ls; dv ];
  check Alcotest.bool "both track live groups" true
    (Igp.groups ls = [ group ] && Igp.groups dv = [ group ]);
  for src = 0 to 9 do
    match (Igp.anycast_route ls ~src ~group, Igp.anycast_route dv ~src ~group) with
    | Some a, Some b ->
        check Alcotest.bool "deliver agrees" true (a.Igp.deliver = b.Igp.deliver);
        check (Alcotest.float 1e-9) "metric agrees" a.Igp.metric b.Igp.metric;
        (* when forwarding (not delivering), only LS can name the member *)
        if not a.Igp.deliver then
          check Alcotest.bool "LS names the member, DV does not" true
            (a.Igp.member <> None && b.Igp.member = None)
    | _ -> Alcotest.fail "missing anycast route"
  done;
  (* withdrawal empties the live-group set on both *)
  List.iter
    (fun igp ->
      Igp.withdraw_anycast igp ~group ~member:2;
      Igp.withdraw_anycast igp ~group ~member:7;
      check Alcotest.int "group retired" 0 (List.length (Igp.groups igp)))
    [ ls; dv ]

let () =
  Alcotest.run "routing"
    [
      ( "spt",
        [
          qcheck prop_dijkstra_matches_bellman_ford;
          qcheck prop_dijkstra_paths_valid;
          Alcotest.test_case "filtered" `Quick test_spt_filtered;
          Alcotest.test_case "next hop" `Quick test_spt_next_hop;
          Alcotest.test_case "hops / eccentricity" `Quick
            test_spt_hops_and_eccentricity;
        ] );
      ( "linkstate",
        [
          Alcotest.test_case "symmetric distances" `Quick test_ls_distance_symmetric;
          Alcotest.test_case "anycast routes to closest" `Quick test_ls_anycast_closest;
          Alcotest.test_case "pseudo-node encoding equivalent" `Quick
            test_ls_pseudo_node_encoding_equivalent;
          Alcotest.test_case "member visibility" `Quick test_ls_members_visible;
          Alcotest.test_case "domain scoped" `Quick test_ls_domain_scoped;
        ] );
      ( "igp",
        [
          Alcotest.test_case "flavors agree on unicast" `Quick
            test_igp_flavors_agree_on_unicast;
          Alcotest.test_case "anycast decisions agree" `Quick
            test_igp_anycast_decisions_agree;
        ] );
      ( "distvec",
        [
          Alcotest.test_case "agrees with linkstate" `Quick test_dv_agrees_with_ls;
          qcheck prop_dv_agrees_with_ls_any_seed;
          Alcotest.test_case "anycast distances" `Quick test_dv_anycast_distance;
          Alcotest.test_case "withdrawal propagates" `Quick test_dv_withdraw_propagates;
          Alcotest.test_case "link failure re-converges" `Quick
            test_dv_link_failure_reconverges;
          Alcotest.test_case "next hops walk to destination" `Quick
            test_dv_next_hop_walks_to_destination;
        ] );
    ]
