module Internet = Topology.Internet
module Rng = Topology.Rng
module Forward = Simcore.Forward
module Service = Anycast.Service
module Metrics = Anycast.Metrics
module Bgp = Interdomain.Bgp
module Fabric = Vnbone.Fabric
module Router = Vnbone.Router
module Transport = Vnbone.Transport
module Linkstate = Routing.Linkstate
module Distvec = Routing.Distvec
module Igp = Routing.Igp
module Graph = Topology.Graph
module Prefix = Netcore.Prefix
module Addressing = Netcore.Addressing
module Pump = Dataplane.Pump
module Rollout = Dataplane.Rollout
module Workload = Dataplane.Workload
module Telemetry = Dataplane.Telemetry
module Linkq = Dataplane.Linkq
module Domainpool = Multicore.Domainpool
module Shard = Multicore.Shard
module Drillbook = Ops.Drillbook
module Drill = Ops.Drill
module Slo = Ops.Slo

let all_endhosts (inet : Internet.t) =
  List.init (Array.length inet.Internet.endhosts) Fun.id

(* ------------------------------------------------------------------ *)
(* E1                                                                  *)

type e1_row = {
  fraction : float;
  deployed_domains : int;
  mean_stretch : float;
  p95_stretch : float;
  delivery_rate : float;
}

let e1_deployment_sweep ?(params = Internet.default_params)
    ?(fractions = [ 0.05; 0.1; 0.2; 0.4; 0.6; 0.8; 1.0 ]) () =
  let inet = Internet.build params in
  let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
  let num = Internet.num_domains inet in
  let order =
    let rng = Rng.create (Int64.add params.Internet.seed 99L) in
    let a = Array.init num Fun.id in
    Rng.shuffle rng a;
    a
  in
  let deployed = ref 0 in
  let service = Setup.service setup in
  List.map
    (fun fraction ->
      let target = max 1 (int_of_float (ceil (fraction *. float_of_int num))) in
      while !deployed < target && !deployed < num do
        Setup.deploy setup ~domain:order.(!deployed);
        incr deployed
      done;
      let stretches = Metrics.stretches service in
      {
        fraction;
        deployed_domains = !deployed;
        mean_stretch = Metrics.mean stretches;
        p95_stretch = Metrics.percentile 0.95 stretches;
        delivery_rate = Metrics.delivery_rate service;
      })
    fractions

let e1_cells (r : e1_row) =
  [
    Table.ff r.fraction;
    Table.fi r.deployed_domains;
    Table.ff r.mean_stretch;
    Table.ff r.p95_stretch;
    Table.fpct r.delivery_rate;
  ]

(* ------------------------------------------------------------------ *)
(* E2                                                                  *)

type e2_row = {
  label : string;
  advertisers : int;
  default_share : float;
  mean_stretch2 : float;
  delivery2 : float;
}

let stub_domains (inet : Internet.t) =
  Array.to_list inet.Internet.domains
  |> List.filter (fun d -> not d.Internet.is_transit)
  |> List.map (fun d -> d.Internet.did)

let e2_default_route_sweep ?(params = Internet.default_params)
    ?(participants = 5) () =
  let inet = Internet.build params in
  (* the default provider is a transit domain; other participants are
     stubs spread over the internet *)
  let default_domain = 0 in
  let rng = Rng.create (Int64.add params.Internet.seed 7L) in
  let others = Rng.sample rng (participants - 1) (stub_domains inet) in
  let deploy_all setup =
    Setup.deploy setup ~domain:default_domain;
    List.iter (fun d -> Setup.deploy setup ~domain:d) others
  in
  let measure label advertisers service =
    {
      label;
      advertisers;
      default_share = Metrics.termination_share service ~domain:default_domain;
      mean_stretch2 = Metrics.mean_stretch service;
      delivery2 = Metrics.delivery_rate service;
    }
  in
  (* Option 2 with a growing number of advertising participants *)
  let setup2 =
    Setup.of_internet inet ~version:8
      ~strategy:(Service.Option2 { default_domain })
  in
  deploy_all setup2;
  let service2 = Setup.service setup2 in
  let advertise_from d =
    List.iter
      (fun (nb, _) ->
        if not (Service.is_participant service2 ~domain:nb) then
          Service.advertise_to_neighbor service2 ~from_:d ~to_:nb)
      (Internet.neighbor_domains inet d)
  in
  let rows = ref [ measure "option2" 0 service2 ] in
  List.iteri
    (fun i d ->
      advertise_from d;
      rows := measure "option2" (i + 1) service2 :: !rows)
    others;
  (* Option 1 reference: same participants, global routes *)
  let inet1 = Internet.build params in
  let setup1 = Setup.of_internet inet1 ~version:8 ~strategy:Service.Option1 in
  deploy_all setup1;
  let ref_row =
    measure "option1 (reference)" 0 (Setup.service setup1)
  in
  List.rev (ref_row :: !rows)

let e2_cells (r : e2_row) =
  [
    r.label;
    Table.fi r.advertisers;
    Table.fpct r.default_share;
    Table.ff r.mean_stretch2;
    Table.fpct r.delivery2;
  ]

(* ------------------------------------------------------------------ *)
(* E3 / E4                                                             *)

type strategy_row = {
  strategy_name : string;
  mean_vn_fraction : float;
  mean_vn_hops : float;
  mean_exposure_hops : float;
  mean_total_hops : float;
  journey_delivery : float;
}

let e3_egress_comparison ?(params = Internet.default_params)
    ?(deploy_fraction = 0.3) ?(pairs = 120) () =
  let inet = Internet.build params in
  let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
  let num = Internet.num_domains inet in
  let rng = Rng.create (Int64.add params.Internet.seed 13L) in
  let order =
    let a = Array.init num Fun.id in
    Rng.shuffle rng a;
    a
  in
  let deploy_count =
    max 1 (int_of_float (ceil (deploy_fraction *. float_of_int num)))
  in
  for i = 0 to deploy_count - 1 do
    Setup.deploy setup ~domain:order.(i)
  done;
  let service = Setup.service setup in
  (* pairs whose destination domain has NOT deployed *)
  let hosts = Array.of_list (all_endhosts inet) in
  let non_vn h =
    not
      (Service.is_participant service
         ~domain:(Internet.endhost inet h).Internet.hdomain)
  in
  let sample_pairs =
    List.init pairs (fun _ ->
        let src = Rng.pick_array rng hosts in
        let rec dst () =
          let d = Rng.pick_array rng hosts in
          if d <> src && non_vn d then d else dst ()
        in
        (src, dst ()))
  in
  let vrouter = Setup.router setup in
  let run strategy =
    let journeys =
      List.map
        (fun (src, dst) ->
          Transport.send vrouter ~strategy ~src ~dst ~payload:"e3")
        sample_pairs
    in
    let ok = List.filter Transport.delivered journeys in
    let meanf f = Metrics.mean (List.map f ok) in
    {
      strategy_name = Router.strategy_to_string strategy;
      mean_vn_fraction = meanf Transport.vn_fraction;
      mean_vn_hops = meanf (fun j -> float_of_int (Transport.vn_hops j));
      mean_exposure_hops =
        meanf (fun j ->
            float_of_int (Transport.access_hops j + Transport.exit_hops j));
      mean_total_hops = meanf (fun j -> float_of_int (Transport.total_hops j));
      journey_delivery =
        float_of_int (List.length ok) /. float_of_int (max 1 (List.length journeys));
    }
  in
  [ run Router.Exit_early; run Router.Bgp_aware; run Router.Proxy ]

let strategy_cells (r : strategy_row) =
  [
    r.strategy_name;
    Table.ff r.mean_vn_fraction;
    Table.ff r.mean_vn_hops;
    Table.ff r.mean_exposure_hops;
    Table.ff r.mean_total_hops;
    Table.fpct r.journey_delivery;
  ]

(* ------------------------------------------------------------------ *)
(* E5                                                                  *)

type e5_row = {
  generations : int;
  opt1_mean_rib : float;
  opt1_max_rib : int;
  opt2_mean_rib : float;
  opt2_max_rib : int;
  baseline_rib : int;
}

let rib_stats env =
  let inet = env.Forward.inet in
  let sizes =
    List.init (Internet.num_domains inet) (fun d ->
        Bgp.rib_size env.Forward.bgp ~domain:d)
  in
  ( Metrics.mean (List.map float_of_int sizes),
    List.fold_left max 0 sizes )

let e5_state_scaling ?(params = Internet.default_params) ?(max_generations = 6)
    ?(domains_per_generation = 3) () =
  let build_env () =
    let inet = Internet.build params in
    Forward.make_env inet
  in
  let env1 = build_env () and env2 = build_env () in
  let baseline = Internet.num_domains env1.Forward.inet in
  let rng = Rng.create (Int64.add params.Internet.seed 17L) in
  let stubs = stub_domains env1.Forward.inet in
  let deploy_generation env strategy version =
    let service = Service.deploy env ~version ~strategy in
    let doms =
      match strategy with
      | Service.Option2 { default_domain } | Service.Gia { home_domain = default_domain; _ }
        ->
          default_domain
          :: Rng.sample rng (domains_per_generation - 1) stubs
      | Service.Option1 -> Rng.sample rng domains_per_generation stubs
    in
    List.iter
      (fun d ->
        let routers =
          Array.to_list (Internet.domain env.Forward.inet d).Internet.router_ids
        in
        Service.add_participant service ~domain:d ~routers)
      doms;
    service
  in
  List.init max_generations (fun i ->
      let version = i + 1 in
      ignore (deploy_generation env1 Service.Option1 version);
      ignore
        (deploy_generation env2 (Service.Option2 { default_domain = 0 }) version);
      let m1, x1 = rib_stats env1 and m2, x2 = rib_stats env2 in
      {
        generations = version;
        opt1_mean_rib = m1;
        opt1_max_rib = x1;
        opt2_mean_rib = m2;
        opt2_max_rib = x2;
        baseline_rib = baseline;
      })

let e5_cells (r : e5_row) =
  [
    Table.fi r.generations;
    Table.ff r.opt1_mean_rib;
    Table.fi r.opt1_max_rib;
    Table.ff r.opt2_mean_rib;
    Table.fi r.opt2_max_rib;
    Table.fi r.baseline_rib;
  ]

(* ------------------------------------------------------------------ *)
(* E6                                                                  *)

type e6_row = {
  scenario : string;
  universal_access : bool;
  final_isp_fraction : float;
  final_app_fraction : float;
  tip_step : int option;
}

let e6_adoption ?(seeds = [ 1L; 2L; 3L; 4L; 5L ]) ?(base = Adoption.default_params)
    () =
  let run_mean ua =
    let finals =
      List.map
        (fun seed ->
          let points =
            Adoption.run { base with Adoption.universal_access = ua; seed }
          in
          (Adoption.final points, Adoption.time_to_tip points))
        seeds
    in
    let mean f = Metrics.mean (List.map f finals) in
    let tips = List.filter_map snd finals in
    {
      scenario =
        (if ua then "universal access" else "ISP-gated access (multicast)");
      universal_access = ua;
      final_isp_fraction = mean (fun (p, _) -> p.Adoption.isp_fraction);
      final_app_fraction = mean (fun (p, _) -> p.Adoption.app_fraction);
      tip_step =
        (match tips with
        | [] -> None
        | _ ->
            Some
              (int_of_float
                 (Metrics.mean (List.map float_of_int tips))));
    }
  in
  [ run_mean true; run_mean false ]

let e6_cells (r : e6_row) =
  [
    r.scenario;
    Table.fpct r.final_isp_fraction;
    Table.fpct r.final_app_fraction;
    (match r.tip_step with Some s -> Table.fi s | None -> "never");
  ]

(* ------------------------------------------------------------------ *)
(* E7                                                                  *)

type e7_row = {
  failure_fraction : float;
  survive_k1 : float;
  survive_k2 : float;
  survive_k3 : float;
  mean_repair_tunnels : float;
  trials : int;
}

(* connectivity of the subgraph induced by the surviving members *)
let survivors_connected fabric dead =
  let g = Fabric.graph fabric in
  let n = Topology.Graph.n g in
  let alive v = not (Hashtbl.mem dead v) in
  let start = ref (-1) in
  for v = n - 1 downto 0 do
    if alive v then start := v
  done;
  if !start < 0 then true
  else begin
    let seen = Array.make n false in
    let q = Queue.create () in
    seen.(!start) <- true;
    Queue.add !start q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Topology.Graph.iter_neighbors g u (fun v _ ->
          if alive v && not seen.(v) then begin
            seen.(v) <- true;
            Queue.add v q
          end)
    done;
    let ok = ref true in
    for v = 0 to n - 1 do
      if alive v && not seen.(v) then ok := false
    done;
    !ok
  end

let e7_robustness ?(params = Internet.default_params) ?(deploy_domains = 8)
    ?(trials = 20) ?(failure_fractions = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ]) () =
  let inet = Internet.build params in
  let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
  let rng = Rng.create (Int64.add params.Internet.seed 29L) in
  let doms = Rng.sample rng deploy_domains (stub_domains inet) in
  List.iter (fun d -> Setup.deploy ~fraction:1.0 setup ~domain:d) doms;
  let service = Setup.service setup in
  let fabrics = List.map (fun k -> (k, Fabric.build ~k service)) [ 1; 2; 3 ] in
  let members = Array.of_list (Service.members service) in
  let fabric2 = List.assoc 2 fabrics in
  let base_tunnels = List.length (Fabric.tunnels fabric2) in
  List.map
    (fun failure_fraction ->
      let kill_count =
        int_of_float (failure_fraction *. float_of_int (Array.length members))
      in
      let survive = Hashtbl.create 3 in
      let repair_total = ref 0.0 in
      for _ = 1 to trials do
        let victims = Rng.sample rng kill_count (Array.to_list members) in
        (* static survivability per k *)
        List.iter
          (fun (k, fabric) ->
            let dead = Hashtbl.create 16 in
            List.iter
              (fun r ->
                match Fabric.index_of fabric r with
                | Some n -> Hashtbl.replace dead n ()
                | None -> ())
              victims;
            if survivors_connected fabric dead then
              Hashtbl.replace survive k
                (1 + Option.value ~default:0 (Hashtbl.find_opt survive k)))
          fabrics;
        (* repair cost: rebuild (k = 2) over the survivors *)
        List.iter (fun r -> Service.remove_member service ~router:r) victims;
        let rebuilt = Fabric.build ~k:2 service in
        let lost =
          List.length
            (List.filter
               (fun tn ->
                 List.mem tn.Fabric.from_router victims
                 || List.mem tn.Fabric.to_router victims)
               (Fabric.tunnels fabric2))
        in
        let now = List.length (Fabric.tunnels rebuilt) in
        repair_total :=
          !repair_total +. float_of_int (max 0 (now - (base_tunnels - lost)));
        List.iter (fun r -> Service.add_member service ~router:r) victims
      done;
      let rate k =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt survive k))
        /. float_of_int trials
      in
      {
        failure_fraction;
        survive_k1 = rate 1;
        survive_k2 = rate 2;
        survive_k3 = rate 3;
        mean_repair_tunnels = !repair_total /. float_of_int trials;
        trials;
      })
    failure_fractions

let e7_cells (r : e7_row) =
  [
    Table.ff r.failure_fraction;
    Table.fpct r.survive_k1;
    Table.fpct r.survive_k2;
    Table.fpct r.survive_k3;
    Table.ff r.mean_repair_tunnels;
  ]

(* ------------------------------------------------------------------ *)
(* E8                                                                  *)

type e8_row = {
  domain_routers : int;
  ls_mean_rounds : float;
  dv_join_rounds : float;
  dv_leave_rounds : float;
}

let e8_convergence ?(sizes = [ 8; 16; 32; 64 ]) ?(seed = 5L) () =
  List.map
    (fun n ->
      let inet =
        Internet.build_custom ~seed
          [| { Internet.routers = n; endhosts = 1; transit = true } |]
          []
      in
      let group = Addressing.anycast_global ~group:8 in
      let ls = Linkstate.compute inet ~domain:0 in
      let dv = Distvec.create inet ~domain:0 in
      ignore (Distvec.converge dv) (* warm up unicast vectors *);
      let rng = Rng.create (Int64.add seed (Int64.of_int n)) in
      let routers = Array.to_list (Internet.domain inet 0).Internet.router_ids in
      let first = Rng.pick rng routers in
      Linkstate.advertise_anycast ls ~group ~member:first;
      Distvec.advertise_anycast dv ~group ~member:first;
      ignore (Distvec.converge dv);
      (* a second member joins at the far side of the domain (the
         worst case for update propagation), then leaves *)
      let joiner =
        List.fold_left
          (fun best r ->
            if r = first then best
            else
              let d = Linkstate.distance ls ~src:first ~dst:r in
              match best with
              | Some (_, bd) when bd >= d -> best
              | _ -> Some (r, d))
          None routers
        |> Option.get |> fst
      in
      let ls_rounds = Linkstate.flood_rounds ls ~origin:joiner in
      Linkstate.advertise_anycast ls ~group ~member:joiner;
      Distvec.advertise_anycast dv ~group ~member:joiner;
      let dv_join = Distvec.converge dv in
      Linkstate.withdraw_anycast ls ~group ~member:joiner;
      Distvec.withdraw_anycast dv ~group ~member:joiner;
      let dv_leave = Distvec.converge dv in
      {
        domain_routers = n;
        ls_mean_rounds = float_of_int ls_rounds;
        dv_join_rounds = float_of_int dv_join;
        dv_leave_rounds = float_of_int dv_leave;
      })
    sizes

let e8_cells (r : e8_row) =
  [
    Table.fi r.domain_routers;
    Table.ff r.ls_mean_rounds;
    Table.ff r.dv_join_rounds;
    Table.ff r.dv_leave_rounds;
  ]

(* ------------------------------------------------------------------ *)
(* E9                                                                  *)

type e9_row = {
  member_failure : float;
  host_adv_delivery : float;
  proxy_delivery : float;
  host_adv_exposure : float;
  proxy_exposure : float;
}

let e9_host_advertised ?(params = Internet.default_params)
    ?(deploy_fraction = 0.3) ?(pairs = 80)
    ?(failures = [ 0.0; 0.1; 0.25; 0.5 ]) () =
  List.map
    (fun member_failure ->
      (* a fresh world per failure level so stale registrations do not
         leak between rows *)
      let inet = Internet.build params in
      let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
      let rng = Rng.create (Int64.add params.Internet.seed 31L) in
      let num = Internet.num_domains inet in
      let order =
        let a = Array.init num Fun.id in
        Rng.shuffle rng a;
        a
      in
      let deploy_count =
        max 1 (int_of_float (ceil (deploy_fraction *. float_of_int num)))
      in
      for i = 0 to deploy_count - 1 do
        Setup.deploy setup ~domain:order.(i)
      done;
      let service = Setup.service setup in
      let vrouter = Setup.router setup in
      let hosts = Array.of_list (all_endhosts inet) in
      let sample_pairs =
        List.init pairs (fun _ ->
            let src = Rng.pick_array rng hosts in
            let rec dst () =
              let d = Rng.pick_array rng hosts in
              if d <> src then d else dst ()
            in
            (src, dst ()))
      in
      (* every destination registers while the deployment is intact *)
      List.iter
        (fun (_, dst) -> ignore (Router.register_endhost vrouter ~endhost:dst))
        sample_pairs;
      (* then a fraction of the members fail; nobody re-registers *)
      let members = Array.of_list (Service.members service) in
      let kill =
        Rng.sample rng
          (int_of_float (member_failure *. float_of_int (Array.length members)))
          (Array.to_list members)
      in
      List.iter (fun r -> Service.remove_member service ~router:r) kill;
      let run strategy =
        let journeys =
          List.map
            (fun (src, dst) ->
              Transport.send vrouter ~strategy ~src ~dst ~payload:"e9")
            sample_pairs
        in
        let ok = List.filter Transport.delivered journeys in
        let delivery =
          float_of_int (List.length ok)
          /. float_of_int (max 1 (List.length journeys))
        in
        let exposure =
          Metrics.mean
            (List.map
               (fun j ->
                 float_of_int (Transport.access_hops j + Transport.exit_hops j))
               ok)
        in
        (delivery, exposure)
      in
      let ha_del, ha_exp = run Router.Host_advertised in
      let px_del, px_exp = run Router.Proxy in
      {
        member_failure;
        host_adv_delivery = ha_del;
        proxy_delivery = px_del;
        host_adv_exposure = ha_exp;
        proxy_exposure = px_exp;
      })
    failures

let e9_cells (r : e9_row) =
  [
    Table.ff r.member_failure;
    Table.fpct r.host_adv_delivery;
    Table.fpct r.proxy_delivery;
    Table.ff r.host_adv_exposure;
    Table.ff r.proxy_exposure;
  ]

(* ------------------------------------------------------------------ *)
(* E10                                                                 *)

type e10_row = {
  discovery_name : string;
  intra_tunnels : int;
  vn_stretch : float;
  connected10 : bool;
}

let e10_discovery_ablation ?(params = Internet.default_params)
    ?(deploy_domains = 4) () =
  let inet = Internet.build params in
  let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
  let rng = Rng.create (Int64.add params.Internet.seed 41L) in
  let doms = Rng.sample rng deploy_domains (stub_domains inet) in
  List.iter (fun d -> Setup.deploy setup ~domain:d) doms;
  let service = Setup.service setup in
  let measure name fabric =
    {
      discovery_name = name;
      intra_tunnels =
        List.length
          (List.filter (fun t -> t.Fabric.kind = `Intra) (Fabric.tunnels fabric));
      vn_stretch = Fabric.mean_vn_stretch fabric;
      connected10 = Fabric.is_connected fabric;
    }
  in
  [
    measure "LSDB k=1" (Fabric.build ~k:1 service);
    measure "LSDB k=2" (Fabric.build ~k:2 service);
    measure "LSDB k=3" (Fabric.build ~k:3 service);
    measure "anycast walk (DV)"
      (Fabric.build ~discovery:Fabric.Anycast_walk service);
  ]

let e10_cells (r : e10_row) =
  [
    r.discovery_name;
    Table.fi r.intra_tunnels;
    Table.ff r.vn_stretch;
    Table.fb r.connected10;
  ]

(* ------------------------------------------------------------------ *)
(* E11                                                                 *)

type e11_row = {
  deploy_fraction11 : float;
  members11 : int;
  vn_stretch11 : float;
  inter_tunnels11 : int;
}

let e11_congruence ?(params = Internet.default_params)
    ?(fractions = [ 0.1; 0.25; 0.5; 0.75; 1.0 ]) () =
  let inet = Internet.build params in
  let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
  let num = Internet.num_domains inet in
  let order =
    let rng = Rng.create (Int64.add params.Internet.seed 43L) in
    let a = Array.init num Fun.id in
    Rng.shuffle rng a;
    a
  in
  let deployed = ref 0 in
  List.map
    (fun fraction ->
      let target = max 2 (int_of_float (ceil (fraction *. float_of_int num))) in
      while !deployed < target && !deployed < num do
        Setup.deploy setup ~domain:order.(!deployed);
        incr deployed
      done;
      let fabric = Setup.fabric setup in
      {
        deploy_fraction11 = fraction;
        members11 = Array.length (Fabric.members fabric);
        vn_stretch11 = Fabric.mean_vn_stretch fabric;
        inter_tunnels11 =
          List.length
            (List.filter
               (fun t -> t.Fabric.kind <> `Intra)
               (Fabric.tunnels fabric));
      })
    fractions

let e11_cells (r : e11_row) =
  [
    Table.ff r.deploy_fraction11;
    Table.fi r.members11;
    Table.ff r.vn_stretch11;
    Table.fi r.inter_tunnels11;
  ]

(* ------------------------------------------------------------------ *)
(* E12                                                                 *)

type e12_row = {
  scheme12 : string;
  gia_radius : int option;
  home_share : float;
  mean_stretch12 : float;
  delivery12 : float;
  mean_rib12 : float;
}

let e12_gia_sweep ?(params = Internet.default_params) ?(participants = 5)
    ?(radii = [ 0; 1; 2; 3 ]) () =
  let home = 0 in
  let rng0 = Rng.create (Int64.add params.Internet.seed 53L) in
  let others =
    Rng.sample rng0 (participants - 1) (stub_domains (Internet.build params))
  in
  let run scheme12 gia_radius strategy =
    let inet = Internet.build params in
    let setup = Setup.of_internet inet ~version:8 ~strategy in
    Setup.deploy setup ~domain:home;
    List.iter (fun d -> Setup.deploy setup ~domain:d) others;
    let service = Setup.service setup in
    let env = Setup.env setup in
    let rib_mean =
      Metrics.mean
        (List.init (Internet.num_domains inet) (fun d ->
             float_of_int (Bgp.rib_size env.Forward.bgp ~domain:d)))
    in
    {
      scheme12;
      gia_radius;
      home_share = Metrics.termination_share service ~domain:home;
      mean_stretch12 = Metrics.mean_stretch service;
      delivery12 = Metrics.delivery_rate service;
      mean_rib12 = rib_mean;
    }
  in
  let gia_rows =
    List.map
      (fun r ->
        run (Printf.sprintf "GIA r=%d" r) (Some r)
          (Service.Gia { home_domain = home; radius = r }))
      radii
  in
  gia_rows
  @ [
      run "option2 (no adverts)" None (Service.Option2 { default_domain = home });
      run "option1 (global)" None Service.Option1;
    ]

let e12_cells (r : e12_row) =
  [
    r.scheme12;
    Table.fpct r.home_share;
    Table.ff r.mean_stretch12;
    Table.fpct r.delivery12;
    Table.ff r.mean_rib12;
  ]

(* ------------------------------------------------------------------ *)
(* E13                                                                 *)

type e13_row = {
  strategy13 : string;
  vn_fraction_ci : Stats.summary;
  exposure_ci : Stats.summary;
  delivery_ci : Stats.summary;
  seeds13 : int;
}

let e13_seed_stability ?(seeds = [ 101L; 202L; 303L; 404L; 505L ])
    ?(deploy_fraction = 0.3) ?(pairs = 60) () =
  let per_seed =
    List.map
      (fun seed ->
        let params = { Internet.default_params with Internet.seed = seed } in
        e3_egress_comparison ~params ~deploy_fraction ~pairs ())
      seeds
  in
  let names =
    List.map (fun r -> r.strategy_name) (List.hd per_seed)
  in
  List.map
    (fun name ->
      let rows =
        List.map
          (fun run ->
            List.find (fun r -> r.strategy_name = name) run)
          per_seed
      in
      {
        strategy13 = name;
        vn_fraction_ci =
          Stats.summarize (List.map (fun r -> r.mean_vn_fraction) rows);
        exposure_ci =
          Stats.summarize (List.map (fun r -> r.mean_exposure_hops) rows);
        delivery_ci =
          Stats.summarize (List.map (fun r -> r.journey_delivery) rows);
        seeds13 = List.length seeds;
      })
    names

let e13_cells (r : e13_row) =
  [
    r.strategy13;
    Stats.to_string r.vn_fraction_ci;
    Stats.to_string r.exposure_ci;
    Stats.to_string r.delivery_ci;
  ]

(* ------------------------------------------------------------------ *)
(* E14                                                                 *)

type e14_row = {
  alpha : float;
  alpha_vn_fraction : float;
  alpha_exposure : float;
  alpha_total_hops : float;
}

let e14_proxy_alpha ?(params = Internet.default_params)
    ?(deploy_fraction = 0.3) ?(pairs = 80)
    ?(alphas = [ 0.0; 0.25; 0.5; 0.75; 1.0; 1.5 ]) () =
  let inet = Internet.build params in
  let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
  let num = Internet.num_domains inet in
  let rng = Rng.create (Int64.add params.Internet.seed 61L) in
  let order =
    let a = Array.init num Fun.id in
    Rng.shuffle rng a;
    a
  in
  let deploy_count =
    max 1 (int_of_float (ceil (deploy_fraction *. float_of_int num)))
  in
  for i = 0 to deploy_count - 1 do
    Setup.deploy setup ~domain:order.(i)
  done;
  let service = Setup.service setup in
  let fabric = Fabric.build service in
  let hosts = Array.of_list (all_endhosts inet) in
  let non_vn h =
    not
      (Service.is_participant service
         ~domain:(Internet.endhost inet h).Internet.hdomain)
  in
  let sample_pairs =
    List.init pairs (fun _ ->
        let src = Rng.pick_array rng hosts in
        let rec dst () =
          let d = Rng.pick_array rng hosts in
          if d <> src && non_vn d then d else dst ()
        in
        (src, dst ()))
  in
  List.map
    (fun alpha ->
      let vrouter = Router.create ~proxy_alpha:alpha fabric in
      let journeys =
        List.map
          (fun (src, dst) ->
            Transport.send vrouter ~strategy:Router.Proxy ~src ~dst ~payload:"e14")
          sample_pairs
      in
      let ok = List.filter Transport.delivered journeys in
      let meanf f = Metrics.mean (List.map f ok) in
      {
        alpha;
        alpha_vn_fraction = meanf Transport.vn_fraction;
        alpha_exposure =
          meanf (fun j ->
              float_of_int (Transport.access_hops j + Transport.exit_hops j));
        alpha_total_hops = meanf (fun j -> float_of_int (Transport.total_hops j));
      })
    alphas

let e14_cells (r : e14_row) =
  [
    Table.ff r.alpha;
    Table.ff r.alpha_vn_fraction;
    Table.ff r.alpha_exposure;
    Table.ff r.alpha_total_hops;
  ]

(* ------------------------------------------------------------------ *)
(* E15                                                                 *)

type e15_row = {
  viability : float;  (** app developers' minimum viable user share *)
  ua_final : float;
  gated_final : float;
}

let e15_viability_sweep ?(seeds = [ 11L; 22L; 33L ])
    ?(thresholds = [ 0.0; 0.1; 0.2; 0.3; 0.5; 0.7 ]) () =
  List.map
    (fun viability ->
      let final ua =
        Metrics.mean
          (List.map
             (fun seed ->
               let p =
                 {
                   Adoption.default_params with
                   Adoption.universal_access = ua;
                   app_viability_threshold = viability;
                   seed;
                 }
               in
               (Adoption.final (Adoption.run p)).Adoption.isp_fraction)
             seeds)
      in
      { viability; ua_final = final true; gated_final = final false })
    thresholds

let e15_cells (r : e15_row) =
  [
    Table.ff r.viability;
    Table.fpct r.ua_final;
    Table.fpct r.gated_final;
  ]

(* ------------------------------------------------------------------ *)
(* E16                                                                 *)

type e16_row = {
  picker : string;  (** which stubs deployed *)
  pop_share : float;  (** deployers' share of the user population *)
  traffic_share : float;  (** deployers' share of carried IPvN traffic *)
  attraction_premium : float;  (** traffic share / population share *)
}

let e16_revenue_gravity ?(params = Internet.default_params) ?(deployers = 4)
    ?(flows = 150) () =
  let pick name sel =
    let inet = Internet.build params in
    let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
    let stubs = stub_domains inet in
    let chosen = sel stubs in
    List.iter (fun d -> Setup.deploy setup ~domain:d) chosen;
    let traffic =
      Workload.create inet (Workload.Gravity { zipf_s = 1.0 })
        ~seed:(Int64.add params.Internet.seed 71L)
    in
    let pairs = List.init flows (fun _ -> Workload.pair traffic) in
    let report =
      Revenue.traffic_report (Setup.router setup) ~strategy:Router.Bgp_aware
        ~pairs
    in
    let total = Array.fold_left ( +. ) 0.0 report.Revenue.per_domain in
    let deployer_load =
      List.fold_left
        (fun acc d -> acc +. report.Revenue.per_domain.(d))
        0.0 chosen
    in
    let traffic_share = if total > 0.0 then deployer_load /. total else 0.0 in
    let pop_share = Workload.population_share traffic chosen in
    {
      picker = name;
      pop_share;
      traffic_share;
      attraction_premium =
        (if pop_share > 0.0 then traffic_share /. pop_share else nan);
    }
  in
  let take n xs = List.filteri (fun i _ -> i < n) xs in
  [
    pick "largest stubs" (fun stubs -> take deployers stubs);
    pick "smallest stubs" (fun stubs -> take deployers (List.rev stubs));
  ]

let e16_cells (r : e16_row) =
  [
    r.picker;
    Table.fpct r.pop_share;
    Table.fpct r.traffic_share;
    Table.ff r.attraction_premium;
  ]

(* ------------------------------------------------------------------ *)
(* E17                                                                 *)

type e17_row = {
  vn_domains : int;
  vn_members : int;
  bgpvn_rounds : int;
  mean_table : float;  (** per-member BGPvN routes (domain aggregates) *)
}

let e17_bgpvn_scaling ?(params = Internet.default_params)
    ?(domain_counts = [ 2; 4; 8; 12 ]) () =
  List.map
    (fun count ->
      let inet = Internet.build params in
      let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
      let rng = Rng.create (Int64.add params.Internet.seed 83L) in
      let doms = Rng.sample rng count (stub_domains inet) in
      List.iter (fun d -> Setup.deploy ~fraction:0.5 setup ~domain:d) doms;
      let fabric = Setup.fabric setup in
      let speaker = Vnbone.Bgpvn.create fabric in
      let rounds = Vnbone.Bgpvn.converge speaker in
      let members = Vnbone.Fabric.members fabric in
      let mean_table =
        Metrics.mean
          (Array.to_list
             (Array.map
                (fun m -> float_of_int (Vnbone.Bgpvn.table_size speaker ~at:m))
                members))
      in
      {
        vn_domains = count;
        vn_members = Array.length members;
        bgpvn_rounds = rounds;
        mean_table;
      })
    domain_counts

let e17_cells (r : e17_row) =
  [
    Table.fi r.vn_domains;
    Table.fi r.vn_members;
    Table.fi r.bgpvn_rounds;
    Table.ff r.mean_table;
  ]

(* ------------------------------------------------------------------ *)
(* E18                                                                 *)

type e18_row = {
  ls_routers : int;
  sync_messages : int;  (** LSA transmissions for initial LSDB sync *)
  update_messages : int;  (** for one anycast advertisement *)
  update_latency : float;  (** engine time for the update to settle *)
  eccentricity : int;  (** graph lower bound on the latency *)
}

let e18_flooding_cost ?(sizes = [ 8; 16; 32; 64 ]) ?(seed = 5L) () =
  List.map
    (fun n ->
      let inet =
        Internet.build_custom ~seed
          [| { Internet.routers = n; endhosts = 1; transit = true } |]
          []
      in
      let proto = Simcore.Lsproto.create inet ~domain:0 in
      let engine = Simcore.Engine.create () in
      Simcore.Lsproto.start proto engine;
      ignore (Simcore.Engine.run engine);
      let sync = (Simcore.Lsproto.stats proto).Simcore.Lsproto.messages in
      let member = (Internet.domain inet 0).Internet.router_ids.(0) in
      let t0 = Simcore.Engine.now engine in
      Simcore.Lsproto.advertise_anycast proto engine ~router:member
        (Addressing.anycast_global ~group:8);
      ignore (Simcore.Engine.run engine);
      let s = Simcore.Lsproto.stats proto in
      {
        ls_routers = n;
        sync_messages = sync;
        update_messages = s.Simcore.Lsproto.messages - sync;
        update_latency = s.Simcore.Lsproto.last_change -. t0;
        eccentricity =
          Routing.Spt.eccentricity inet.Internet.graph ~src:member
            ~allow:(fun _ -> true);
      })
    sizes

let e18_cells (r : e18_row) =
  [
    Table.fi r.ls_routers;
    Table.fi r.sync_messages;
    Table.fi r.update_messages;
    Table.ff r.update_latency;
    Table.fi r.eccentricity;
  ]

(* ------------------------------------------------------------------ *)
(* E19                                                                 *)

type e19_row = {
  mrai : float;
  boot_updates : int;  (** update messages to converge all /16s *)
  boot_time : float;
  anycast_updates : int;  (** messages for one new anycast prefix *)
  anycast_time : float;
  churn : int;  (** transient best-route changes for the anycast prefix *)
}

(* the domain that injects E19's and E28's anycast prefix: domain 5,
   or the last domain of a smaller internet *)
let participant_domain inet = min 5 (Internet.num_domains inet - 1)

let e19_mrai_sweep ?(params = Internet.default_params)
    ?(mrais = [ 0.01; 0.5; 2.0; 5.0; 10.0 ]) () =
  List.map
    (fun mrai ->
      let inet = Internet.build params in
      let dyn = Simcore.Bgpdyn.create ~mrai ~jitter:3.0 inet in
      let engine = Simcore.Engine.create () in
      Simcore.Bgpdyn.originate_all_domain_prefixes dyn engine;
      ignore (Simcore.Engine.run engine);
      let boot = Simcore.Bgpdyn.stats dyn in
      (* a participant now injects a new anycast prefix *)
      let g = Addressing.anycast_global ~group:8 in
      let t0 = Simcore.Engine.now engine in
      Simcore.Bgpdyn.originate dyn engine ~domain:(participant_domain inet) g;
      ignore (Simcore.Engine.run engine);
      let final = Simcore.Bgpdyn.stats dyn in
      {
        mrai;
        boot_updates = boot.Simcore.Bgpdyn.updates;
        boot_time = boot.Simcore.Bgpdyn.last_change;
        anycast_updates = final.Simcore.Bgpdyn.updates - boot.Simcore.Bgpdyn.updates;
        anycast_time = final.Simcore.Bgpdyn.last_change -. t0;
        churn = final.Simcore.Bgpdyn.best_changes - boot.Simcore.Bgpdyn.best_changes;
      })
    mrais

let e19_cells (r : e19_row) =
  [
    Table.ff r.mrai;
    Table.fi r.boot_updates;
    Table.ff r.boot_time;
    Table.fi r.anycast_updates;
    Table.ff r.anycast_time;
    Table.fi r.churn;
  ]

(* ------------------------------------------------------------------ *)
(* E20                                                                 *)

type e20_row = {
  dead_members : int;
  anycast_delivery : float;  (** probes to the anycast address *)
  unicast_delivery : float;  (** probes to one designated member's address *)
}

let e20_anycast_resilience ?(params = Internet.default_params)
    ?(deploy_domains = 6) ?(kill_steps = [ 0; 2; 5; 10; 20 ]) () =
  let inet = Internet.build params in
  let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
  let rng = Rng.create (Int64.add params.Internet.seed 91L) in
  let doms = Rng.sample rng deploy_domains (stub_domains inet) in
  List.iter (fun d -> Setup.deploy setup ~domain:d) doms;
  let service = Setup.service setup in
  let env = Setup.env setup in
  let members = Array.of_list (Service.members service) in
  Rng.shuffle rng members;
  (* the "unicast service" lives on one designated member *)
  let designated = members.(0) in
  let designated_addr = (Internet.router inet designated).Internet.raddr in
  let hosts = all_endhosts inet in
  let delivery_to dst =
    let ok =
      List.length
        (List.filter
           (fun h ->
             let p = Netcore.Packet.make_data ~src:Netcore.Ipv4.any ~dst "r" in
             Forward.delivered (Forward.send_from_endhost env p ~endhost:h))
           hosts)
    in
    float_of_int ok /. float_of_int (List.length hosts)
  in
  let killed = ref 0 in
  List.map
    (fun dead_members ->
      while !killed < dead_members && !killed < Array.length members do
        Service.remove_member service ~router:members.(!killed);
        incr killed
      done;
      {
        dead_members = !killed;
        anycast_delivery = delivery_to (Service.address service);
        unicast_delivery =
          (* the designated member is "down" once killed: a probe that
             reaches its router no longer finds the service *)
          (if Array.exists (fun m -> m = designated)
                (Array.sub members 0 !killed)
           then 0.0
           else delivery_to designated_addr);
      })
    kill_steps

let e20_cells (r : e20_row) =
  [
    Table.fi r.dead_members;
    Table.fpct r.anycast_delivery;
    Table.fpct r.unicast_delivery;
  ]

(* ------------------------------------------------------------------ *)
(* E21                                                                 *)

type e21_row = {
  domains21 : int;
  routers21 : int;
  bgp_rounds : int;
  mean_stretch21 : float;
  delivery21 : float;
  total_rib : int;  (** summed per-domain RIB entries: deterministic cost *)
}

let e21_size_scaling ?(transit_counts = [ 2; 4; 8; 12; 16 ]) () =
  List.map
    (fun transit ->
      let params =
        {
          Internet.default_params with
          Internet.transit_domains = transit;
          stubs_per_transit = 6;
        }
      in
      let inet = Internet.build params in
      let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
      (* count convergence rounds on a fresh BGP, since the setup's
         env has converged already *)
      let bgp = Interdomain.Bgp.create inet in
      Interdomain.Bgp.originate_all_domain_prefixes bgp;
      let bgp_rounds = Interdomain.Bgp.converge bgp in
      let rng = Rng.create 3L in
      let doms =
        Rng.sample rng (max 2 (Internet.num_domains inet / 7)) (stub_domains inet)
      in
      List.iter (fun d -> Setup.deploy setup ~domain:d) doms;
      let service = Setup.service setup in
      let total_rib =
        List.fold_left
          (fun acc d -> acc + Interdomain.Bgp.rib_size bgp ~domain:d)
          0
          (List.init (Internet.num_domains inet) Fun.id)
      in
      {
        domains21 = Internet.num_domains inet;
        routers21 = Internet.num_routers inet;
        bgp_rounds;
        mean_stretch21 = Metrics.mean_stretch service;
        delivery21 = Metrics.delivery_rate service;
        total_rib;
      })
    transit_counts

let e21_cells (r : e21_row) =
  [
    Table.fi r.domains21;
    Table.fi r.routers21;
    Table.fi r.bgp_rounds;
    Table.ff r.mean_stretch21;
    Table.fpct r.delivery21;
    Table.fi r.total_rib;
  ]

(* ------------------------------------------------------------------ *)
(* E22                                                                 *)

type e22_row = {
  generations22 : int;
  opt1_mean_fib : float;
  opt1_max_fib : int;
  opt2_mean_fib : float;
  opt2_max_fib : int;
}

let e22_fib_scaling ?(params = Internet.default_params) ?(max_generations = 5)
    ?(domains_per_generation = 3) () =
  let run_option strategy_of_version =
    let inet = Internet.build params in
    let env = Forward.make_env inet in
    let rng = Rng.create (Int64.add params.Internet.seed 101L) in
    let stubs = stub_domains inet in
    List.init max_generations (fun i ->
        let version = i + 1 in
        let service = Service.deploy env ~version ~strategy:(strategy_of_version version) in
        let doms =
          match strategy_of_version version with
          | Service.Option2 { default_domain } | Service.Gia { home_domain = default_domain; _ }
            ->
              default_domain :: Rng.sample rng (domains_per_generation - 1) stubs
          | Service.Option1 -> Rng.sample rng domains_per_generation stubs
        in
        List.iter
          (fun d ->
            Service.add_participant service ~domain:d
              ~routers:(Array.to_list (Internet.domain inet d).Internet.router_ids))
          doms;
        let fib = Simcore.Fib.compile env in
        let sizes =
          List.init (Internet.num_routers inet) (fun r ->
              Simcore.Fib.size fib ~router:r)
        in
        ( Metrics.mean (List.map float_of_int sizes),
          List.fold_left max 0 sizes ))
  in
  let opt1 = run_option (fun _ -> Service.Option1) in
  let opt2 = run_option (fun _ -> Service.Option2 { default_domain = 0 }) in
  List.mapi
    (fun i ((m1, x1), (m2, x2)) ->
      {
        generations22 = i + 1;
        opt1_mean_fib = m1;
        opt1_max_fib = x1;
        opt2_mean_fib = m2;
        opt2_max_fib = x2;
      })
    (List.combine opt1 opt2)

let e22_cells (r : e22_row) =
  [
    Table.fi r.generations22;
    Table.ff r.opt1_mean_fib;
    Table.fi r.opt1_max_fib;
    Table.ff r.opt2_mean_fib;
    Table.fi r.opt2_max_fib;
  ]

(* ------------------------------------------------------------------ *)
(* E23                                                                 *)

type e23_row = {
  model : string;
  domains23 : int;
  delivery23 : float;  (** anycast delivery at ~20% deployment *)
  stretch23 : float;
  exposure_drop : float;
      (** relative IPv(N-1)-exposure reduction of BGPv(N-1)-aware
          egress vs exit-early *)
}

let e23_topology_robustness ?(pairs = 80) () =
  let measure model inet =
    let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
    let num = Internet.num_domains inet in
    let rng = Rng.create 7L in
    let order =
      let a = Array.init num Fun.id in
      Rng.shuffle rng a;
      a
    in
    let count = max 2 (num / 5) in
    for i = 0 to count - 1 do
      Setup.deploy setup ~domain:order.(i)
    done;
    let service = Setup.service setup in
    let vrouter = Setup.router setup in
    let hosts = Array.of_list (all_endhosts inet) in
    let sample_pairs =
      List.init pairs (fun _ ->
          let src = Rng.pick_array rng hosts in
          let rec dst () =
            let d = Rng.pick_array rng hosts in
            if d <> src then d else dst ()
          in
          (src, dst ()))
    in
    let exposure strategy =
      let ok =
        List.filter_map
          (fun (src, dst) ->
            let j = Transport.send vrouter ~strategy ~src ~dst ~payload:"e23" in
            if Transport.delivered j then
              Some
                (float_of_int (Transport.access_hops j + Transport.exit_hops j))
            else None)
          sample_pairs
      in
      Metrics.mean ok
    in
    let early = exposure Router.Exit_early in
    let aware = exposure Router.Bgp_aware in
    {
      model;
      domains23 = num;
      delivery23 = Metrics.delivery_rate service;
      stretch23 = Metrics.mean_stretch service;
      exposure_drop = (early -. aware) /. early;
    }
  in
  [
    measure "transit-stub" (Internet.build Internet.default_params);
    measure "transit-stub, weighted links"
      (Internet.build
         {
           Internet.default_params with
           Internet.link_weight = Internet.Uniform_weight (1.0, 10.0);
         });
    measure "preferential attachment"
      (Internet.build_ba Internet.default_ba_params);
  ]

let e23_cells (r : e23_row) =
  [
    r.model;
    Table.fi r.domains23;
    Table.fpct r.delivery23;
    Table.ff r.stretch23;
    Table.fpct r.exposure_drop;
  ]

(* ------------------------------------------------------------------ *)
(* E24                                                                 *)

type e24_row = {
  stage : int;  (** domains deployed so far *)
  ingress_changed : float;
      (** fraction of clients whose anycast ingress moved at this stage *)
  cumulative_stability : float;
      (** fraction of clients whose ingress never moved since stage 1 *)
}

let e24_flow_stability ?(params = Internet.default_params) ?(stages = 8) () =
  let inet = Internet.build params in
  let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
  let service = Setup.service setup in
  let rng = Rng.create (Int64.add params.Internet.seed 111L) in
  let order =
    let a = Array.init (Internet.num_domains inet) Fun.id in
    Rng.shuffle rng a;
    a
  in
  let clients = all_endhosts inet in
  let per_stage = max 1 (Internet.num_domains inet / stages) in
  let previous = Hashtbl.create 32 in
  let ever_moved = Hashtbl.create 32 in
  let deployed = ref 0 in
  List.filter_map
    (fun stage ->
      let target =
        min (Internet.num_domains inet) ((stage + 1) * per_stage)
      in
      while !deployed < target do
        Setup.deploy setup ~domain:order.(!deployed);
        incr deployed
      done;
      let changed = ref 0 and observed = ref 0 in
      List.iter
        (fun h ->
          match Metrics.actual service ~endhost:h with
          | Some (ingress, _) ->
              incr observed;
              (match Hashtbl.find_opt previous h with
              | Some old when old <> ingress ->
                  incr changed;
                  Hashtbl.replace ever_moved h ()
              | _ -> ());
              Hashtbl.replace previous h ingress
          | None -> ())
        clients;
      if stage = 0 then None (* first observation: nothing to compare *)
      else
        Some
          {
            stage = !deployed;
            ingress_changed =
              float_of_int !changed /. float_of_int (max 1 !observed);
            cumulative_stability =
              1.0
              -. float_of_int (Hashtbl.length ever_moved)
                 /. float_of_int (max 1 !observed);
          })
    (List.init stages Fun.id)

let e24_cells (r : e24_row) =
  [
    Table.fi r.stage;
    Table.fpct r.ingress_changed;
    Table.fpct r.cumulative_stability;
  ]

(* ------------------------------------------------------------------ *)
(* E25                                                                 *)

type e25_row = {
  coalition : int;  (** ISPs deploying together at t=0 *)
  coalition_share : float;  (** their combined market share *)
  gated_final25 : float;
  ua_final25 : float;
}

let e25_coalition_sweep ?(seeds = [ 1L; 2L; 3L ])
    ?(coalitions = [ 1; 2; 3; 5; 8 ]) () =
  List.map
    (fun coalition ->
      let base = { Adoption.default_params with Adoption.early_adopters = coalition } in
      let final ua =
        Metrics.mean
          (List.map
             (fun seed ->
               (Adoption.final
                  (Adoption.run
                     { base with Adoption.universal_access = ua; seed }))
                 .Adoption.isp_fraction)
             seeds)
      in
      (* Zipf market share of the first [coalition] ISPs *)
      let share =
        let raw =
          Array.init base.Adoption.num_isps (fun i ->
              1.0 /. float_of_int (i + 1))
        in
        let total = Array.fold_left ( +. ) 0.0 raw in
        let top = Array.sub raw 0 coalition in
        Array.fold_left ( +. ) 0.0 top /. total
      in
      {
        coalition;
        coalition_share = share;
        gated_final25 = final false;
        ua_final25 = final true;
      })
    coalitions

let e25_cells (r : e25_row) =
  [
    Table.fi r.coalition;
    Table.fpct r.coalition_share;
    Table.fpct r.gated_final25;
    Table.fpct r.ua_final25;
  ]

(* ------------------------------------------------------------------ *)
(* E26                                                                 *)

type e26_row = {
  payload_bytes : int;
  native_bytes : float;  (** mean bytes x hops for a plain IPv4 journey *)
  evolved_bytes : float;  (** same flows, encapsulated via the vN path *)
  byte_overhead : float;  (** evolved / native - 1 *)
  header_share : float;  (** headers / total bytes on the evolved path *)
}

let e26_encapsulation_overhead ?(params = Internet.default_params)
    ?(deploy_fraction = 0.3) ?(pairs = 60)
    ?(payloads = [ 64; 512; 1400 ]) () =
  let inet = Internet.build params in
  let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
  let num = Internet.num_domains inet in
  let rng = Rng.create (Int64.add params.Internet.seed 131L) in
  let order =
    let a = Array.init num Fun.id in
    Rng.shuffle rng a;
    a
  in
  for i = 0 to max 1 (int_of_float (deploy_fraction *. float_of_int num)) - 1 do
    Setup.deploy setup ~domain:order.(i)
  done;
  let vrouter = Setup.router setup in
  let env = Setup.env setup in
  let hosts = Array.of_list (all_endhosts inet) in
  let sample_pairs =
    List.init pairs (fun _ ->
        let src = Rng.pick_array rng hosts in
        let rec dst () =
          let d = Rng.pick_array rng hosts in
          if d <> src then d else dst ()
        in
        (src, dst ()))
  in
  List.map
    (fun payload_bytes ->
      let payload = String.make payload_bytes 'x' in
      let native = ref 0.0
      and evolved = ref 0.0
      and headers = ref 0.0 in
      List.iter
        (fun (src, dst) ->
          (* native: direct IPv4 datagram *)
          let dsta = (Internet.endhost inet dst).Internet.haddr in
          let srca = (Internet.endhost inet src).Internet.haddr in
          let plain = Netcore.Packet.make_data ~src:srca ~dst:dsta payload in
          let ptrace = Forward.send_from_endhost env plain ~endhost:src in
          let plen = Netcore.Wire.wire_length plain in
          native :=
            !native +. float_of_int (Forward.hop_count ptrace * plen);
          (* evolved: the encapsulated IPvN journey *)
          let j =
            Transport.send vrouter ~strategy:Router.Bgp_aware ~src ~dst ~payload
          in
          if Transport.delivered j then begin
            let encap =
              Netcore.Packet.encapsulate ~src:srca ~dst:dsta j.Transport.packet
            in
            let elen = Netcore.Wire.wire_length encap in
            let hops = Transport.total_hops j in
            evolved := !evolved +. float_of_int (hops * elen);
            headers :=
              !headers +. float_of_int (hops * (elen - payload_bytes))
          end)
        sample_pairs;
      {
        payload_bytes;
        native_bytes = !native /. float_of_int pairs;
        evolved_bytes = !evolved /. float_of_int pairs;
        byte_overhead = (!evolved /. !native) -. 1.0;
        header_share = !headers /. Float.max 1.0 !evolved;
      })
    payloads

let e26_cells (r : e26_row) =
  [
    Table.fi r.payload_bytes;
    Table.ff r.native_bytes;
    Table.ff r.evolved_bytes;
    Table.fpct r.byte_overhead;
    Table.fpct r.header_share;
  ]

(* ------------------------------------------------------------------ *)
(* E27                                                                 *)

type e27_row = {
  dv_fraction : float;  (** fraction of domains on distance-vector *)
  delivery27 : float;
  stretch27 : float;
  walk_domains : int;  (** participant domains forced to anycast-walk *)
  vn_stretch27 : float;
}

let e27_mixed_igp ?(params = Internet.default_params)
    ?(dv_fractions = [ 0.0; 0.25; 0.5; 1.0 ]) ?(deploy_domains = 5) () =
  List.map
    (fun dv_fraction ->
      let inet = Internet.build params in
      let num = Internet.num_domains inet in
      let rng = Rng.create (Int64.add params.Internet.seed 151L) in
      let flavors =
        Array.init num (fun _ ->
            if Rng.bernoulli rng dv_fraction then Routing.Igp.Distvec_igp
            else Routing.Igp.Linkstate_igp)
      in
      let env = Forward.make_env ~flavor_of:(fun d -> flavors.(d)) inet in
      let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
      let doms = Rng.sample rng deploy_domains (stub_domains inet) in
      Service.add_participants service
        (List.map
           (fun d ->
             (d, Array.to_list (Internet.domain inet d).Internet.router_ids))
           doms);
      let fabric = Fabric.build service in
      {
        dv_fraction;
        delivery27 = Metrics.delivery_rate service;
        stretch27 = Metrics.mean_stretch service;
        walk_domains =
          List.length
            (List.filter
               (fun d -> not (Routing.Igp.members_known env.Forward.igps.(d)))
               doms);
        vn_stretch27 = Fabric.mean_vn_stretch fabric;
      })
    dv_fractions

let e27_cells (r : e27_row) =
  [
    Table.ff r.dv_fraction;
    Table.fpct r.delivery27;
    Table.ff r.stretch27;
    Table.fi r.walk_domains;
    Table.ff r.vn_stretch27;
  ]

(* ------------------------------------------------------------------ *)
(* E28                                                                 *)

type e28_row = {
  mrai28 : float;
  announce_updates : int;
  announce_churn : int;
  withdraw_updates : int;
  withdraw_churn : int;  (** path hunting shows up as extra flips *)
  hunt_ratio : float;  (** withdraw churn / announce churn *)
}

let e28_path_hunting ?(params = Internet.default_params)
    ?(mrais = [ 0.01; 2.0; 10.0 ]) () =
  List.map
    (fun mrai28 ->
      let inet = Internet.build params in
      let dyn = Simcore.Bgpdyn.create ~mrai:mrai28 ~jitter:3.0 inet in
      let engine = Simcore.Engine.create () in
      Simcore.Bgpdyn.originate_all_domain_prefixes dyn engine;
      ignore (Simcore.Engine.run engine);
      let boot = Simcore.Bgpdyn.stats dyn in
      let g = Addressing.anycast_global ~group:8 in
      let t0 = Simcore.Engine.now engine in
      let participant = participant_domain inet in
      Simcore.Bgpdyn.originate dyn engine ~domain:participant g;
      ignore (Simcore.Engine.run engine);
      let announced = Simcore.Bgpdyn.stats dyn in
      let t1 = Simcore.Engine.now engine in
      Simcore.Bgpdyn.withdraw dyn engine ~domain:participant g;
      ignore (Simcore.Engine.run engine);
      let withdrawn = Simcore.Bgpdyn.stats dyn in
      ignore t0;
      ignore t1;
      let announce_updates =
        announced.Simcore.Bgpdyn.updates - boot.Simcore.Bgpdyn.updates
      in
      let announce_churn =
        announced.Simcore.Bgpdyn.best_changes - boot.Simcore.Bgpdyn.best_changes
      in
      let withdraw_updates =
        withdrawn.Simcore.Bgpdyn.updates - announced.Simcore.Bgpdyn.updates
      in
      let withdraw_churn =
        withdrawn.Simcore.Bgpdyn.best_changes
        - announced.Simcore.Bgpdyn.best_changes
      in
      {
        mrai28;
        announce_updates;
        announce_churn;
        withdraw_updates;
        withdraw_churn;
        hunt_ratio =
          float_of_int withdraw_churn /. float_of_int (max 1 announce_churn);
      })
    mrais

let e28_cells (r : e28_row) =
  [
    Table.ff r.mrai28;
    Table.fi r.announce_updates;
    Table.fi r.announce_churn;
    Table.fi r.withdraw_updates;
    Table.fi r.withdraw_churn;
    Table.ff r.hunt_ratio;
  ]

(* ------------------------------------------------------------------ *)
(* E29                                                                 *)

type e29_row = {
  option29 : string;
  fraction29 : float;
  delivery29 : float;
  mean_stretch29 : float;  (** data-plane hops, evolved / native *)
  p99_stretch29 : float;
  byte_overhead29 : float;  (** evolved wire bytes / native - 1 *)
}

let e29_dataplane_cost ?(params = Internet.default_params)
    ?(fractions = [ 0.0; 0.15; 0.3; 0.6; 1.0 ]) ?(flows = 40) () =
  let strategies =
    [
      ("option1", Service.Option1);
      ("option2", Service.Option2 { default_domain = 0 });
    ]
  in
  List.concat_map
    (fun (option29, strategy) ->
      let inet = Internet.build params in
      let setup = Setup.of_internet inet ~version:8 ~strategy in
      let num = Internet.num_domains inet in
      let rng = Rng.create (Int64.add params.Internet.seed 163L) in
      let order =
        let a = Array.init num Fun.id in
        Rng.shuffle rng a;
        (* Option 2's default domain anchors the deployment: enroll it
           first so the carved prefix has a member behind it *)
        (match strategy with
        | Service.Option2 { default_domain } ->
            let i = ref 0 in
            Array.iteri (fun j d -> if d = default_domain then i := j) a;
            let tmp = a.(0) in
            a.(0) <- a.(!i);
            a.(!i) <- tmp
        | Service.Option1 | Service.Gia _ -> ());
        a
      in
      let wl =
        Workload.create inet
          (Workload.Gravity { zipf_s = 1.2 })
          ~seed:(Int64.add params.Internet.seed 167L)
      in
      let sample = Workload.batch wl ~count:flows in
      let deployed = ref 0 in
      List.map
        (fun fraction29 ->
          let target =
            min num (int_of_float (ceil (fraction29 *. float_of_int num)))
          in
          while !deployed < target do
            Setup.deploy setup ~domain:order.(!deployed);
            incr deployed
          done;
          let pump = Pump.create (Setup.env setup) in
          let vrouter = Setup.router setup in
          let n_del = ref 0 in
          let stretches = ref [] in
          let native_bytes = ref 0 and evolved_bytes = ref 0 in
          List.iter
            (fun (f : Workload.flow) ->
              let payload = String.make f.Workload.bytes_per_packet 'x' in
              let nat =
                Pump.send_data pump ~src:f.Workload.src ~dst:f.Workload.dst
                  ~payload
              in
              let nat_hops = Forward.hop_count nat in
              let nat_len =
                let hs = Internet.endhost inet f.Workload.src
                and hd = Internet.endhost inet f.Workload.dst in
                Netcore.Wire.wire_length
                  (Netcore.Packet.make_data ~src:hs.Internet.haddr
                     ~dst:hd.Internet.haddr payload)
              in
              let j =
                Transport.send_over vrouter ~forward:(Pump.inject pump)
                  ~strategy:Router.Bgp_aware ~src:f.Workload.src
                  ~dst:f.Workload.dst ~payload
              in
              if Transport.delivered j then begin
                incr n_del;
                let vn_hops = Transport.total_hops j in
                if Forward.delivered nat && nat_hops > 0 then
                  stretches :=
                    (float_of_int vn_hops /. float_of_int nat_hops)
                    :: !stretches;
                (* every leg carries the packet in one IPv4 header, and
                   the header's addresses do not change its length *)
                let vn_len =
                  Netcore.Wire.wire_length
                    (Netcore.Packet.encapsulate ~src:Netcore.Ipv4.any
                       ~dst:Netcore.Ipv4.any j.Transport.packet)
                in
                native_bytes := !native_bytes + (nat_hops * nat_len);
                evolved_bytes := !evolved_bytes + (vn_hops * vn_len)
              end)
            sample;
          {
            option29;
            fraction29;
            delivery29 = float_of_int !n_del /. float_of_int flows;
            mean_stretch29 =
              (match !stretches with [] -> 0.0 | s -> Metrics.mean s);
            p99_stretch29 =
              (match !stretches with
              | [] -> 0.0
              | s -> Metrics.percentile 0.99 s);
            byte_overhead29 =
              (if !native_bytes = 0 then 0.0
               else
                 float_of_int !evolved_bytes /. float_of_int !native_bytes
                 -. 1.0);
          })
        fractions)
    strategies

let e29_cells (r : e29_row) =
  [
    r.option29;
    Table.ff r.fraction29;
    Table.fpct r.delivery29;
    Table.ff r.mean_stretch29;
    Table.ff r.p99_stretch29;
    Table.fpct r.byte_overhead29;
  ]

(* ------------------------------------------------------------------ *)
(* E30                                                                 *)

type e30_row = {
  tick30 : int;
  phase30 : string;  (** steady | converging | recovered *)
  fresh30 : float;  (** fraction of routers on the current snapshot *)
  ok30 : float;  (** probes accepted by a current member *)
  stale30 : float;  (** probes accepted by an ex-member (stale FIB) *)
  lost30 : float;  (** dropped: no route / stuck *)
  looped30 : float;  (** TTL expiry: transient forwarding loops *)
}

let e30_churn_traffic ?(params = Internet.default_params) ?(deploy_domains = 4)
    ?(probes = 40) ?(ticks = 9) ?(churn_tick = 3) ?(window = 4) () =
  let inet = Internet.build params in
  let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
  let rng = Rng.create (Int64.add params.Internet.seed 173L) in
  let doms = Rng.sample rng deploy_domains (stub_domains inet) in
  List.iter (fun d -> Setup.deploy setup ~domain:d) doms;
  let env = Setup.env setup in
  let service = Setup.service setup in
  let addr = Service.address service in
  let probe_hosts = Rng.sample rng probes (all_endhosts inet) in
  (* the victim: the deployed domain serving the most probe clients,
     so the stale window is visible *)
  let counts = Array.make (Internet.num_domains inet) 0 in
  List.iter
    (fun h ->
      match Service.ingress_for_endhost service ~endhost:h with
      | Some r ->
          let d = (Internet.router inet r).Internet.rdomain in
          counts.(d) <- counts.(d) + 1
      | None -> ())
    probe_hosts;
  let victim =
    List.fold_left
      (fun best d -> if counts.(d) > counts.(best) then d else best)
      (List.hd doms) (List.tl doms)
  in
  let pump = Pump.create env in
  let rollout =
    let a = Array.init (Internet.num_routers inet) Fun.id in
    Rng.shuffle rng a;
    Rollout.create ~order:a ~window
  in
  let churned = ref false in
  let rows = ref [] in
  let engine = Simcore.Engine.create () in
  let tick i _ =
    (* line cards pick up the new snapshot in batches across the window *)
    Rollout.step rollout pump;
    let members = Service.members service in
    let ok = ref 0 and stale = ref 0 and lost = ref 0 and looped = ref 0 in
    List.iter
      (fun h ->
        let hh = Internet.endhost inet h in
        let p =
          Netcore.Packet.make_data ~src:hh.Internet.haddr ~dst:addr "probe"
        in
        let tr = Pump.inject pump p ~entry:hh.Internet.access_router in
        match tr.Forward.outcome with
        | Forward.Router_accepted r ->
            if List.mem r members then incr ok else incr stale
        | Forward.Endhost_accepted _ -> incr stale
        | Forward.Dropped Forward.Ttl_expired -> incr looped
        | Forward.Dropped _ -> incr lost)
      probe_hosts;
    let total = float_of_int (List.length probe_hosts) in
    let frac c = float_of_int !c /. total in
    rows :=
      {
        tick30 = i;
        phase30 =
          (if not !churned then "steady"
           else if not (Rollout.finished rollout) then "converging"
           else "recovered");
        fresh30 = Rollout.progress rollout;
        ok30 = frac ok;
        stale30 = frac stale;
        lost30 = frac lost;
        looped30 = frac looped;
      }
      :: !rows
  in
  for i = 1 to ticks do
    Simcore.Engine.schedule_at engine ~time:(float_of_int i) (tick i)
  done;
  (* the membership change lands between two traffic ticks *)
  Simcore.Engine.schedule_at engine
    ~time:(float_of_int churn_tick +. 0.5)
    (fun _ ->
      Setup.undeploy setup ~domain:victim;
      churned := true;
      Rollout.restart rollout);
  ignore (Simcore.Engine.run engine);
  List.rev !rows

let e30_cells (r : e30_row) =
  [
    Table.fi r.tick30;
    r.phase30;
    Table.fpct r.fresh30;
    Table.fpct r.ok30;
    Table.fpct r.stale30;
    Table.fpct r.lost30;
    Table.fpct r.looped30;
  ]

(* ------------------------------------------------------------------ *)
(* E31                                                                 *)

type e31_row = {
  proto31 : string;  (** "bgp" | "ls" *)
  loss31 : float;  (** per-message drop probability while injecting *)
  crashed31 : int;  (** nodes crashed and restarted mid-run *)
  msgs31 : int;  (** protocol messages (updates / LSA transmissions) *)
  overhead31 : int;  (** robustness tax: keepalives+resets / acks+retx *)
  settle31 : float;  (** engine time from fault cease to last change *)
  agrees31 : bool;  (** final state equals the centralized oracle *)
}

let e31_fault_convergence ?(params = Internet.default_params)
    ?(losses = [ 0.0; 0.2; 0.5 ]) ?(crash_loss = 0.1) ?(crash_frac = 0.2) () =
  let policy_of loss =
    if loss > 0.0 then begin
      let p = Simcore.Faults.lossy ~extra_delay:0.05 ~jitter:0.05 loss in
      fun ~src:_ ~dst:_ -> p
    end
    else fun ~src:_ ~dst:_ -> Simcore.Faults.reliable
  in
  let reliable_everywhere ~src:_ ~dst:_ = Simcore.Faults.reliable in
  (* --- BGP: keepalive/hold sessions over a lossy, crashing fabric --- *)
  let bgp_run ~loss ~crash =
    let inet = Internet.build params in
    let n = Internet.num_domains inet in
    let seed = Int64.add params.Internet.seed 31L in
    let faults =
      Simcore.Faults.create ~policy:(policy_of loss) ~fifo:true seed
    in
    let dyn = Simcore.Bgpdyn.create ~jitter:1.0 ~faults inet in
    let engine = Simcore.Engine.create () in
    (* loss must cease and crashes restart well before the keepalive
       horizon, so the surviving hold timers can re-establish every
       session (see Bgpdyn.enable_timers) *)
    let cease = 30.0 in
    Simcore.Bgpdyn.enable_timers dyn engine ~keepalive:1.0 ~hold:3.5
      ~until:40.0;
    Simcore.Bgpdyn.originate_all_domain_prefixes dyn engine;
    let ncrash =
      if crash then max 1 (int_of_float (crash_frac *. float_of_int n)) else 0
    in
    let rngc = Rng.create seed in
    let victims = Rng.sample rngc ncrash (List.init n Fun.id) in
    List.iteri
      (fun i d ->
        Simcore.Faults.schedule_outage faults engine ~node:d
          ~at:(10.0 +. float_of_int i) ~duration:5.0)
      victims;
    Simcore.Engine.schedule_at engine ~time:cease (fun _ ->
        Simcore.Faults.set_policy faults reliable_everywhere);
    ignore (Simcore.Engine.run engine);
    let s = Simcore.Bgpdyn.stats dyn in
    {
      proto31 = "bgp";
      loss31 = loss;
      crashed31 = ncrash;
      msgs31 = s.Simcore.Bgpdyn.updates;
      overhead31 = s.Simcore.Bgpdyn.keepalives + s.Simcore.Bgpdyn.resets;
      settle31 = Float.max 0.0 (s.Simcore.Bgpdyn.last_change -. cease);
      agrees31 =
        (match Simcore.Bgpdyn.agrees_with_synchronous dyn with
        | Ok () -> true
        | Error _ -> false);
    }
  in
  (* --- link-state: acked flooding over a lossy, crashing fabric --- *)
  let ls_run ~loss ~crash =
    let inet =
      Internet.build_custom
        ~seed:(Int64.add params.Internet.seed 18L)
        [| { Internet.routers = 24; endhosts = 1; transit = true } |]
        []
    in
    let faults =
      Simcore.Faults.create ~policy:(policy_of loss)
        (Int64.add params.Internet.seed 131L)
    in
    let proto = Simcore.Lsproto.create ~faults inet ~domain:0 in
    let engine = Simcore.Engine.create () in
    Simcore.Lsproto.start proto engine;
    let rids = (Internet.domain inet 0).Internet.router_ids in
    let ncrash =
      if crash then
        max 1 (int_of_float (crash_frac *. float_of_int (Array.length rids)))
      else 0
    in
    let rngc = Rng.create (Int64.add params.Internet.seed 132L) in
    let victims = Rng.sample rngc ncrash (Array.to_list rids) in
    List.iteri
      (fun i r ->
        Simcore.Faults.schedule_outage faults engine ~node:r
          ~at:(30.0 +. (2.0 *. float_of_int i))
          ~duration:8.0)
      victims;
    (* a survivor advertises an anycast group while faults are active *)
    let member =
      List.find (fun r -> not (List.mem r victims)) (Array.to_list rids)
    in
    let group = Addressing.anycast_global ~group:8 in
    Simcore.Engine.schedule_at engine ~time:20.0 (fun engine ->
        Simcore.Lsproto.advertise_anycast proto engine ~router:member group);
    let cease = 50.0 in
    Simcore.Engine.schedule_at engine ~time:cease (fun _ ->
        Simcore.Faults.set_policy faults reliable_everywhere);
    ignore (Simcore.Engine.run engine);
    let s = Simcore.Lsproto.stats proto in
    let oracle = Linkstate.compute inet ~domain:0 in
    Linkstate.advertise_anycast oracle ~group ~member;
    let routers = Linkstate.routers oracle in
    let agrees =
      Simcore.Lsproto.lsdb_synchronized proto
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 Float.abs
                   (Simcore.Lsproto.distance_view proto ~router:a ~dst:b
                   -. Linkstate.distance oracle ~src:a ~dst:b)
                 <= 1e-9)
               routers
             && (match Simcore.Lsproto.members_view proto ~router:a group with
                | [ m ] -> m = member
                | _ -> false))
           routers
    in
    {
      proto31 = "ls";
      loss31 = loss;
      crashed31 = ncrash;
      msgs31 = s.Simcore.Lsproto.messages;
      overhead31 = s.Simcore.Lsproto.acks + s.Simcore.Lsproto.retransmits;
      settle31 = Float.max 0.0 (s.Simcore.Lsproto.last_change -. cease);
      agrees31 = agrees;
    }
  in
  List.map (fun loss -> bgp_run ~loss ~crash:false) losses
  @ [ bgp_run ~loss:crash_loss ~crash:true ]
  @ List.map (fun loss -> ls_run ~loss ~crash:false) losses
  @ [ ls_run ~loss:crash_loss ~crash:true ]

let e31_cells (r : e31_row) =
  [
    r.proto31;
    Table.fpct r.loss31;
    Table.fi r.crashed31;
    Table.fi r.msgs31;
    Table.fi r.overhead31;
    Table.ff r.settle31;
    (if r.agrees31 then "agree" else "DISAGREE");
  ]

(* ------------------------------------------------------------------ *)
(* E32                                                                 *)

type e32_row = {
  tick32 : int;
  recovery32 : bool;  (** control plane reroutes around the down links *)
  phase32 : string;  (** steady | flapping | healing | recovered *)
  ok32 : float;  (** probes accepted by a current member *)
  stale32 : float;  (** probes accepted elsewhere *)
  lost32 : float;  (** dropped: link down / no route / stuck *)
  looped32 : float;  (** TTL expiry *)
}

let e32_flap_traffic ?(params = Internet.default_params) ?(deploy_domains = 4)
    ?(probes = 40) ?(ticks = 10) ?(flap_links = 3) () =
  let run ~recovery =
    let inet = Internet.build params in
    let setup = Setup.of_internet inet ~version:8 ~strategy:Service.Option1 in
    let rng = Rng.create (Int64.add params.Internet.seed 321L) in
    let doms = Rng.sample rng deploy_domains (stub_domains inet) in
    List.iter (fun d -> Setup.deploy setup ~domain:d) doms;
    let env = Setup.env setup in
    let service = Setup.service setup in
    let addr = Service.address service in
    let probe_hosts = Rng.sample rng probes (all_endhosts inet) in
    let pump = Pump.create env in
    (* scout which intra-domain links probe traffic actually crosses,
       so the flaps hit live paths *)
    let seen = Hashtbl.create 64 in
    List.iter
      (fun h ->
        let hh = Internet.endhost inet h in
        let p =
          Netcore.Packet.make_data ~src:hh.Internet.haddr ~dst:addr "scout"
        in
        let tr = Pump.inject pump p ~entry:hh.Internet.access_router in
        let rec walk = function
          | a :: (b :: _ as rest) ->
              if
                (Internet.router inet a).Internet.rdomain
                = (Internet.router inet b).Internet.rdomain
              then Hashtbl.replace seen (min a b, max a b) ();
              walk rest
          | [ _ ] | [] -> ()
        in
        walk tr.Forward.hops)
      probe_hosts;
    let candidates =
      Hashtbl.fold (fun k () acc -> k :: acc) seen []
      |> List.sort (fun (a1, b1) (a2, b2) ->
             match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c)
    in
    let g = inet.Internet.graph in
    let victims =
      Rng.sample rng (min flap_links (List.length candidates)) candidates
      |> List.filter_map (fun (a, b) ->
             match Graph.edge_weight g a b with
             | Some w -> Some (a, b, w)
             | None -> None)
    in
    let faults =
      Simcore.Faults.create (Int64.add params.Internet.seed 322L)
    in
    Pump.set_link_filter pump (Simcore.Faults.link_up faults);
    let engine = Simcore.Engine.create () in
    let down_t = 2.5 and up_t = 6.5 in
    List.iter
      (fun (a, b, _) ->
        Simcore.Faults.schedule_flap_train faults engine ~a ~b ~start:down_t
          ~cycles:1 ~period:(up_t -. down_t) ~down_for:(up_t -. down_t))
      victims;
    (* recovery: on detection, reroute the control plane around the
       down links and let line cards pick the detour up in batches *)
    let rollout =
      let arr = Array.init (Internet.num_routers inet) Fun.id in
      Rng.shuffle rng arr;
      Rollout.create ~order:arr ~window:3
    in
    let victim_domains =
      List.sort_uniq Int.compare
        (List.map
           (fun (a, _, _) -> (Internet.router inet a).Internet.rdomain)
           victims)
    in
    if recovery then begin
      Simcore.Engine.schedule_at engine ~time:(down_t +. 0.3) (fun _ ->
          List.iter (fun (a, b, _) -> Graph.remove_edge g a b) victims;
          Forward.recompute_igps env ~domains:victim_domains;
          Rollout.restart rollout);
      Simcore.Engine.schedule_at engine ~time:(up_t +. 0.3) (fun _ ->
          List.iter (fun (a, b, w) -> Graph.add_edge g a b w) victims;
          Forward.recompute_igps env ~domains:victim_domains;
          Rollout.restart rollout)
    end;
    let rows = ref [] in
    let tick i _ =
      Rollout.step rollout pump;
      let members = Service.members service in
      let ok = ref 0 and stale = ref 0 and lost = ref 0 and looped = ref 0 in
      List.iter
        (fun h ->
          let hh = Internet.endhost inet h in
          let p =
            Netcore.Packet.make_data ~src:hh.Internet.haddr ~dst:addr "probe"
          in
          let tr = Pump.inject pump p ~entry:hh.Internet.access_router in
          match tr.Forward.outcome with
          | Forward.Router_accepted r ->
              if List.mem r members then incr ok else incr stale
          | Forward.Endhost_accepted _ -> incr stale
          | Forward.Dropped Forward.Ttl_expired -> incr looped
          | Forward.Dropped _ -> incr lost)
        probe_hosts;
      let total = float_of_int (List.length probe_hosts) in
      let frac c = float_of_int !c /. total in
      rows :=
        {
          tick32 = i;
          recovery32 = recovery;
          phase32 =
            (if float_of_int i < down_t then "steady"
             else if float_of_int i < up_t then "flapping"
             else if not (Rollout.finished rollout) then "healing"
             else "recovered");
          ok32 = frac ok;
          stale32 = frac stale;
          lost32 = frac lost;
          looped32 = frac looped;
        }
        :: !rows
    in
    for i = 1 to ticks do
      Simcore.Engine.schedule_at engine ~time:(float_of_int i) (tick i)
    done;
    ignore (Simcore.Engine.run engine);
    List.rev !rows
  in
  run ~recovery:false @ run ~recovery:true

let e32_cells (r : e32_row) =
  [
    Table.fi r.tick32;
    Table.fb r.recovery32;
    r.phase32;
    Table.fpct r.ok32;
    Table.fpct r.stale32;
    Table.fpct r.lost32;
    Table.fpct r.looped32;
  ]

(* ------------------------------------------------------------------ *)
(* E33                                                                 *)

type e33_row = {
  shards33 : int;
  packets33 : int;  (** packets injected = terminal verdicts *)
  hops33 : int;  (** per-hop handlings, summed over routers *)
  bytes33 : int;  (** wire bytes handled *)
  delivered33 : int;
  dropped33 : int;
  ttl33 : int;
  crossings33 : int;  (** cross-shard ring handoffs *)
  identical33 : bool;  (** verdict counts equal the one-shard run's *)
}

let e33_shard_invariance ?(params = Internet.default_params)
    ?(shard_counts = [ 1; 2; 4; 8 ]) ?(flows = 2048) ?(packets_per_flow = 16)
    () =
  let inet = Internet.build params in
  let env = Forward.make_env inet in
  let seed = Int64.add params.Internet.seed 33L in
  let wl =
    Workload.create inet (Workload.Gravity { zipf_s = 1.2 }) ~seed
      ~packets_per_flow
  in
  let batch = Workload.batch wl ~count:flows in
  let baseline = ref None in
  List.map
    (fun shards ->
      let pool = Domainpool.create env ~shards ~seed in
      Domainpool.run pool batch;
      let c = Telemetry.total (Domainpool.telemetry pool) in
      let crossings = Domainpool.crossings pool in
      Domainpool.close pool;
      let verdict =
        ( c.Telemetry.packets,
          c.Telemetry.bytes,
          c.Telemetry.delivered,
          c.Telemetry.dropped,
          c.Telemetry.ttl_expired )
      in
      let identical =
        match !baseline with
        | None ->
            baseline := Some verdict;
            true
        | Some v -> v = verdict
      in
      {
        shards33 = shards;
        packets33 =
          c.Telemetry.delivered + c.Telemetry.dropped + c.Telemetry.ttl_expired;
        hops33 = c.Telemetry.packets;
        bytes33 = c.Telemetry.bytes;
        delivered33 = c.Telemetry.delivered;
        dropped33 = c.Telemetry.dropped;
        ttl33 = c.Telemetry.ttl_expired;
        crossings33 = crossings;
        identical33 = identical;
      })
    shard_counts

let e33_cells (r : e33_row) =
  [
    Table.fi r.shards33;
    Table.fi r.packets33;
    Table.fi r.hops33;
    Table.fi r.bytes33;
    Table.fi r.delivered33;
    Table.fi r.dropped33;
    Table.fi r.ttl33;
    Table.fi r.crossings33;
    Table.fb r.identical33;
  ]

(* ------------------------------------------------------------------ *)
(* E34                                                                 *)

type e34_row = {
  drill34 : string;
  intensity34 : float;
  detection34 : float option;  (** seconds from onset; [None]: never *)
  reconverge34 : float option;
  blackhole34 : float;  (** lost-probe seconds over the drill *)
  stale34 : float;
  pass34 : bool;  (** the book's SLO budgets all held *)
}

let e34_drill_catalog ?params ?(intensities = [ 1.0; 2.0 ]) () =
  List.concat_map
    (fun book ->
      List.map
        (fun intensity ->
          let b = Drillbook.with_intensity book intensity in
          let r = Drill.complete ?params b in
          let v = Slo.evaluate r in
          let m = v.Slo.metrics in
          Drill.close r;
          {
            drill34 = book.Drillbook.name;
            intensity34 = intensity;
            detection34 = m.Slo.detection_s;
            reconverge34 = m.Slo.reconverge_s;
            blackhole34 = m.Slo.blackhole_s;
            stale34 = m.Slo.stale_frac;
            pass34 = v.Slo.pass;
          })
        intensities)
    Drillbook.catalog

let fopt34 = function None -> "n/a" | Some f -> Table.ff f

let e34_cells (r : e34_row) =
  [
    r.drill34;
    Table.ff r.intensity34;
    fopt34 r.detection34;
    fopt34 r.reconverge34;
    Table.ff r.blackhole34;
    Table.ff r.stale34;
    Table.fb r.pass34;
  ]

(* ------------------------------------------------------------------ *)
(* E35                                                                 *)

type e35_row = {
  deploy35 : int;  (** deployed domains during the hijack *)
  hijacked_peak35 : float;  (** worst single-tick delivery-to-rogue *)
  hijacked_mean35 : float;  (** mean over the fault window *)
  ok_fault35 : float;  (** mean on-target delivery during the fault *)
  reconverge35 : float option;
}

let e35_hijack_containment ?params ?(levels = [ 1; 2; 4; 8 ]) () =
  List.map
    (fun lvl ->
      let b = { Drillbook.prefix_hijack with Drillbook.deploy_domains = lvl } in
      let r = Drill.complete ?params b in
      let m = Slo.measure r in
      let in_window (row : Drill.tick_row) =
        row.Drill.time >= b.Drillbook.fault_at
        && row.Drill.time < b.Drillbook.fault_until
      in
      let window = List.filter in_window (Drill.rows r) in
      let mean f =
        match window with
        | [] -> 0.0
        | _ ->
            List.fold_left (fun acc row -> acc +. f row) 0.0 window
            /. float_of_int (List.length window)
      in
      {
        deploy35 = lvl;
        hijacked_peak35 = m.Slo.hijacked_peak;
        hijacked_mean35 = mean (fun (row : Drill.tick_row) -> row.Drill.hijacked);
        ok_fault35 = mean (fun (row : Drill.tick_row) -> row.Drill.ok);
        reconverge35 = m.Slo.reconverge_s;
      })
    levels

let e35_cells (r : e35_row) =
  [
    Table.fi r.deploy35;
    Table.ff r.hijacked_peak35;
    Table.ff r.hijacked_mean35;
    Table.ff r.ok_fault35;
    fopt34 r.reconverge35;
  ]

(* ------------------------------------------------------------------ *)
(* E36                                                                 *)

type e36_row = {
  load36 : int;
  offered36 : int;
  goodput36 : int;
  goodput_frac36 : float;
  ctrl_ok36 : float;
  qdrop36 : int;
  shed36 : int;
  delay36 : float;
  queued_hw36 : int;
  bounded36 : bool;
}

let e36_overload_response ?(params = Internet.default_params)
    ?(loads = [ 4; 8; 16; 32; 64; 128; 256 ]) ?(ticks = 12) ?(probes = 8)
    ?(rate = 3000) ?(depth = 6000) ?(reserve = 1200) () =
  let inet = Internet.build params in
  let env = Forward.make_env inet in
  let hosts = Array.of_list (all_endhosts inet) in
  let nh = Array.length hosts in
  let payload = String.make 600 'd' in
  List.map
    (fun load ->
      let pump = Pump.create env in
      let lq = Linkq.of_internet ~control_reserve:reserve ~rate ~depth inet in
      Pump.attach_linkq pump lq;
      (* the per-tick demand is a fixed pattern in the packet index
         alone, so a higher load level replays a lower one's injections
         as a prefix each tick — the queues evolve identically up to
         the extra packets, which makes the goodput curve a true
         function of offered load (monotonicity is asserted in the
         test-suite) *)
      for _tick = 1 to ticks do
        for k = 0 to load - 1 do
          let s = hosts.(k mod nh) in
          let d = hosts.((k + (nh / 2) + 1) mod nh) in
          if s <> d then begin
            let hs = Internet.endhost inet s and hd = Internet.endhost inet d in
            let p =
              Netcore.Packet.make_data ~src:hs.Internet.haddr
                ~dst:hd.Internet.haddr payload
            in
            ignore (Pump.inject pump p ~entry:hs.Internet.access_router)
          end
        done;
        (* control probes enter after the crowd: the queues are at
           their fullest, yet the reserve must still admit them *)
        for k = 0 to probes - 1 do
          let s = hosts.(k mod nh) in
          let d = hosts.((k + (nh / 3) + 1) mod nh) in
          if s <> d then begin
            let hs = Internet.endhost inet s and hd = Internet.endhost inet d in
            let p =
              Netcore.Packet.make_data ~src:hs.Internet.haddr
                ~dst:hd.Internet.haddr "probe"
            in
            ignore
              (Pump.inject ~cls:Telemetry.Control pump p
                 ~entry:hs.Internet.access_router)
          end
        done;
        Linkq.tick lq
      done;
      let tel = Pump.telemetry pump in
      let c = Telemetry.total tel in
      let ctl = Telemetry.cls tel Telemetry.Control in
      let st = Linkq.stats lq in
      let offered_data = c.Telemetry.delivered - ctl.Telemetry.delivered in
      let offered_ctl = ref 0 and offered = ref 0 in
      (* offered counts mirror the injection guards above *)
      for k = 0 to load - 1 do
        if hosts.(k mod nh) <> hosts.((k + (nh / 2) + 1) mod nh) then
          incr offered
      done;
      for k = 0 to probes - 1 do
        if hosts.(k mod nh) <> hosts.((k + (nh / 3) + 1) mod nh) then
          incr offered_ctl
      done;
      let data_per_tick = !offered and ctl_per_tick = !offered_ctl in
      let offered_data_total = data_per_tick * ticks in
      let offered_ctl_total = ctl_per_tick * ticks in
      {
        load36 = load;
        offered36 = offered_data_total + offered_ctl_total;
        goodput36 = offered_data;
        goodput_frac36 =
          (if offered_data_total = 0 then 1.0
           else float_of_int offered_data /. float_of_int offered_data_total);
        ctrl_ok36 =
          (if offered_ctl_total = 0 then 1.0
           else
             float_of_int ctl.Telemetry.delivered
             /. float_of_int offered_ctl_total);
        qdrop36 = c.Telemetry.queue_dropped;
        shed36 = c.Telemetry.shed;
        delay36 = st.Linkq.mean_delay;
        queued_hw36 = st.Linkq.high_water;
        bounded36 = st.Linkq.high_water <= depth;
      })
    loads

let e36_cells (r : e36_row) =
  [
    Table.fi r.load36;
    Table.fi r.offered36;
    Table.fi r.goodput36;
    Table.ff r.goodput_frac36;
    Table.ff r.ctrl_ok36;
    Table.fi r.qdrop36;
    Table.fi r.shed36;
    Table.ff r.delay36;
    Table.fi r.queued_hw36;
    Table.fb r.bounded36;
  ]

(* ------------------------------------------------------------------ *)
(* E37                                                                 *)

type e37_row = {
  shards37 : int;
  restarts37 : int;
  rounds37 : int;
  delivered37 : int;
  dropped37 : int;
  ttl37 : int;
  shed37 : int;
  identical37 : bool;
}

let e37_crash_recovery ?(params = Internet.default_params)
    ?(shard_counts = [ 1; 2; 4; 8 ]) ?(flows = 512) ?(packets_per_flow = 4)
    ?(crash_after = 64) () =
  let inet = Internet.build params in
  let env = Forward.make_env inet in
  let seed = Int64.add params.Internet.seed 37L in
  let wl =
    Workload.create inet (Workload.Gravity { zipf_s = 1.2 }) ~seed
      ~packets_per_flow
  in
  let batch = Workload.batch wl ~count:flows in
  let verdict pool =
    let c = Telemetry.total (Domainpool.telemetry pool) in
    ( c.Telemetry.packets,
      c.Telemetry.bytes,
      c.Telemetry.delivered,
      c.Telemetry.dropped,
      c.Telemetry.ttl_expired )
  in
  List.map
    (fun shards ->
      (* baseline: the same batch on a pool that never crashes *)
      let p0 = Domainpool.create env ~shards ~seed in
      ignore (Domainpool.run_cooperative p0 batch : int);
      let base = verdict p0 in
      Domainpool.close p0;
      (* one worker crashes mid-batch; the supervisor revives it *)
      let p1 = Domainpool.create env ~shards ~seed in
      let victim = if shards > 1 then 1 else 0 in
      Shard.arm_crash (Domainpool.shard p1 victim) ~after:crash_after;
      let rounds = Domainpool.run_cooperative p1 batch in
      let v = verdict p1 in
      let _, _, delivered, dropped, ttl = v in
      let row =
        {
          shards37 = shards;
          restarts37 = Domainpool.restarts p1;
          rounds37 = rounds;
          delivered37 = delivered;
          dropped37 = dropped;
          ttl37 = ttl;
          shed37 = Domainpool.shed p1;
          identical37 = v = base;
        }
      in
      Domainpool.close p1;
      row)
    shard_counts

let e37_cells (r : e37_row) =
  [
    Table.fi r.shards37;
    Table.fi r.restarts37;
    Table.fi r.rounds37;
    Table.fi r.delivered37;
    Table.fi r.dropped37;
    Table.fi r.ttl37;
    Table.fi r.shed37;
    Table.fb r.identical37;
  ]

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

type entry = {
  id : string;
  title : string;
  header : string list;
  run : Internet.params -> string list list;
}

let entry id title header cells rows =
  { id; title; header; run = (fun params -> List.map cells (rows params)) }

let heading e = String.uppercase_ascii e.id ^ " — " ^ e.title

let registry =
  [
    entry "e1" "anycast stretch vs deployment fraction"
      [ "fraction"; "domains"; "mean stretch"; "p95"; "delivery" ]
      e1_cells (fun params -> e1_deployment_sweep ~params ());
    entry "e2" "Option 2 default routes vs peering advertisements"
      [ "scheme"; "advertisers"; "default share"; "stretch"; "delivery" ]
      e2_cells (fun params -> e2_default_route_sweep ~params ());
    entry "e3" "egress strategies (30% deployed)"
      [ "strategy"; "vN fraction"; "vN hops"; "exposure"; "total"; "delivery" ]
      strategy_cells (fun params -> e3_egress_comparison ~params ());
    entry "e4" "egress strategies (15% deployed)"
      [ "strategy"; "vN fraction"; "vN hops"; "exposure"; "total"; "delivery" ]
      strategy_cells
      (fun params -> e3_egress_comparison ~params ~deploy_fraction:0.15 ~pairs:80 ());
    entry "e5" "RIB state vs concurrent generations"
      [
        "generations";
        "opt1 mean";
        "opt1 max";
        "opt2 mean";
        "opt2 max";
        "baseline";
      ]
      e5_cells (fun params -> e5_state_scaling ~params ());
    entry "e6" "adoption dynamics"
      [ "scenario"; "final ISPs"; "final apps"; "tip step" ]
      e6_cells (fun _ -> e6_adoption ());
    entry "e7" "vN-Bone survivability"
      [ "failure"; "k=1"; "k=2"; "k=3"; "repair tunnels" ]
      e7_cells (fun params -> e7_robustness ~params ());
    entry "e8" "anycast convergence (LS vs DV)"
      [ "routers"; "LS rounds"; "DV join"; "DV leave" ]
      e8_cells (fun _ -> e8_convergence ());
    entry "e9" "host-advertised routes vs proxy"
      [
        "failure";
        "host-adv delivery";
        "proxy delivery";
        "host-adv exposure";
        "proxy exposure";
      ]
      e9_cells (fun params -> e9_host_advertised ~params ());
    entry "e10" "discovery ablation"
      [ "discovery"; "intra tunnels"; "vN stretch"; "connected" ]
      e10_cells (fun params -> e10_discovery_ablation ~params ());
    entry "e11" "congruence"
      [ "fraction"; "members"; "vN stretch"; "inter tunnels" ]
      e11_cells (fun params -> e11_congruence ~params ());
    entry "e12" "GIA radius"
      [ "scheme"; "home share"; "stretch"; "delivery"; "mean RIB" ]
      e12_cells (fun params -> e12_gia_sweep ~params ());
    entry "e13" "seed stability (95% CI)"
      [ "strategy"; "vN fraction"; "exposure"; "delivery" ]
      e13_cells (fun _ -> e13_seed_stability ());
    entry "e14" "proxy-metric ablation"
      [ "alpha"; "vN fraction"; "exposure"; "total" ]
      e14_cells (fun params -> e14_proxy_alpha ~params ());
    entry "e15" "viability threshold"
      [ "floor"; "UA final"; "gated final" ]
      e15_cells (fun _ -> e15_viability_sweep ());
    entry "e16" "traffic attraction"
      [ "deployers"; "population"; "traffic"; "premium" ]
      e16_cells (fun params -> e16_revenue_gravity ~params ());
    entry "e17" "BGPvN scaling"
      [ "vN domains"; "members"; "rounds"; "table" ]
      e17_cells (fun params -> e17_bgpvn_scaling ~params ());
    entry "e18" "LSA flooding"
      [ "routers"; "sync msgs"; "update msgs"; "latency"; "ecc" ]
      e18_cells (fun _ -> e18_flooding_cost ());
    entry "e19" "asynchronous BGP (MRAI)"
      [
        "MRAI";
        "boot updates";
        "boot time";
        "anycast updates";
        "anycast time";
        "churn";
      ]
      e19_cells (fun params -> e19_mrai_sweep ~params ());
    entry "e20" "anycast resilience"
      [ "dead members"; "anycast"; "single server" ]
      e20_cells (fun params -> e20_anycast_resilience ~params ());
    entry "e21" "size scaling"
      [ "domains"; "routers"; "BGP rounds"; "stretch"; "delivery"; "total RIB" ]
      e21_cells (fun _ -> e21_size_scaling ());
    entry "e22" "compiled FIB sizes"
      [ "generations"; "opt1 mean"; "opt1 max"; "opt2 mean"; "opt2 max" ]
      e22_cells (fun params -> e22_fib_scaling ~params ());
    entry "e23" "topology-model robustness"
      [ "model"; "domains"; "delivery"; "stretch"; "exposure drop" ]
      e23_cells (fun _ -> e23_topology_robustness ());
    entry "e24" "anycast flow stability"
      [ "deployed"; "moved this stage"; "never moved" ]
      e24_cells (fun params -> e24_flow_stability ~params ());
    entry "e25" "acting in concert"
      [ "coalition"; "market share"; "gated final"; "UA final" ]
      e25_cells (fun _ -> e25_coalition_sweep ());
    entry "e26" "the byte cost of evolution"
      [ "payload B"; "native"; "evolved"; "overhead"; "header share" ]
      e26_cells (fun params -> e26_encapsulation_overhead ~params ());
    entry "e27" "heterogeneous IGPs"
      [
        "DV fraction";
        "delivery";
        "anycast stretch";
        "walk domains";
        "vN stretch";
      ]
      e27_cells (fun params -> e27_mixed_igp ~params ());
    entry "e28" "path hunting on withdrawal"
      [ "MRAI"; "ann msgs"; "ann churn"; "wd msgs"; "wd churn"; "hunt ratio" ]
      e28_cells (fun params -> e28_path_hunting ~params ());
    entry "e29" "the data-plane cost of evolution"
      [
        "option";
        "fraction";
        "delivery";
        "mean stretch";
        "p99 stretch";
        "byte overhead";
      ]
      e29_cells (fun params -> e29_dataplane_cost ~params ());
    entry "e30" "traffic during churn"
      [ "tick"; "phase"; "fresh FIBs"; "ok"; "stale"; "lost"; "looped" ]
      e30_cells (fun params -> e30_churn_traffic ~params ());
    entry "e31" "control-plane convergence under faults"
      [ "proto"; "loss"; "crashed"; "msgs"; "overhead"; "settle"; "oracle" ]
      e31_cells (fun params -> e31_fault_convergence ~params ());
    entry "e32" "traffic delivery while links flap"
      [ "tick"; "recovery"; "phase"; "ok"; "stale"; "lost"; "looped" ]
      e32_cells (fun params -> e32_flap_traffic ~params ());
    entry "e33" "shard-count invariance of the multicore data plane"
      [
        "shards";
        "packets";
        "hops";
        "bytes";
        "delivered";
        "dropped";
        "ttl";
        "crossings";
        "identical";
      ]
      e33_cells (fun params -> e33_shard_invariance ~params ());
    entry "e34" "incident-drill catalog sweep"
      [
        "drill";
        "intensity";
        "detect s";
        "reconverge s";
        "blackhole s";
        "stale";
        "slo pass";
      ]
      e34_cells (fun params -> e34_drill_catalog ~params ());
    entry "e35" "hijack containment vs deployment level"
      [
        "deployed";
        "hijack peak";
        "hijack mean";
        "ok in fault";
        "reconverge s";
      ]
      e35_cells (fun params -> e35_hijack_containment ~params ());
    entry "e36" "overload response of the finite-queue data plane"
      [
        "load/tick";
        "offered";
        "goodput";
        "frac";
        "ctrl ok";
        "queue drop";
        "shed";
        "delay";
        "queue hw";
        "bounded";
      ]
      e36_cells (fun params -> e36_overload_response ~params ());
    entry "e37" "shard crash, supervised restart, zero verdict divergence"
      [
        "shards";
        "restarts";
        "rounds";
        "delivered";
        "dropped";
        "ttl";
        "shed";
        "identical";
      ]
      e37_cells (fun params -> e37_crash_recovery ~params ());
  ]
