(* Integration tests: the experiment sweeps must show the shapes the
   paper's argument predicts (DESIGN.md section 3 / EXPERIMENTS.md). *)

module E = Evolve.Experiments
module Internet = Topology.Internet

let check = Alcotest.check

(* smaller internets than the bench defaults keep the suite fast *)
let small_params =
  {
    Internet.default_params with
    Internet.transit_domains = 3;
    stubs_per_transit = 4;
    routers_per_transit = 8;
    routers_per_stub = 4;
    endhosts_per_domain = 2;
  }

(* --- E1 ------------------------------------------------------------ *)

let e1 = lazy (E.e1_deployment_sweep ~params:small_params ())

let test_e1_universal_access () =
  List.iter
    (fun (r : E.e1_row) ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "full delivery at fraction %.2f" r.E.fraction)
        1.0 r.E.delivery_rate)
    (Lazy.force e1)

let test_e1_stretch_converges_to_one () =
  let rows = Lazy.force e1 in
  let last = List.nth rows (List.length rows - 1) in
  check (Alcotest.float 1e-9) "full deployment -> stretch 1" 1.0 last.E.mean_stretch;
  List.iter
    (fun (r : E.e1_row) ->
      check Alcotest.bool "stretch >= 1 always" true (r.E.mean_stretch >= 1.0 -. 1e-9))
    rows

let test_e1_deployment_grows () =
  let rec growing = function
    | (a : E.e1_row) :: (b :: _ as rest) ->
        a.E.deployed_domains <= b.E.deployed_domains && growing rest
    | _ -> true
  in
  check Alcotest.bool "nested deployment" true (growing (Lazy.force e1))

(* --- E2 ------------------------------------------------------------ *)

let e2 = lazy (E.e2_default_route_sweep ~params:small_params ())

let test_e2_default_dominates_without_advertisement () =
  let rows = Lazy.force e2 in
  let first = List.hd rows in
  check Alcotest.string "first row is option2" "option2" first.E.label;
  check Alcotest.int "no advertisers yet" 0 first.E.advertisers;
  (* with nobody advertising, the default provider takes the bulk of
     the terminations *)
  check Alcotest.bool "default soaks up traffic" true (first.E.default_share > 0.5)

let test_e2_advertising_sheds_default_load () =
  let rows =
    List.filter (fun (r : E.e2_row) -> r.E.label = "option2") (Lazy.force e2)
  in
  let first = List.hd rows in
  let last = List.nth rows (List.length rows - 1) in
  check Alcotest.bool "share decreases as participants advertise" true
    (last.E.default_share < first.E.default_share)

let test_e2_option1_reference_present () =
  let rows = Lazy.force e2 in
  check Alcotest.bool "reference row present" true
    (List.exists (fun (r : E.e2_row) -> r.E.label = "option1 (reference)") rows)

(* --- E3 / E4 -------------------------------------------------------- *)

let e3 = lazy (E.e3_egress_comparison ~params:small_params ~pairs:60 ())

let strategy_row name =
  match
    List.find_opt (fun (r : E.strategy_row) -> r.E.strategy_name = name)
      (Lazy.force e3)
  with
  | Some r -> r
  | None -> Alcotest.fail ("missing strategy " ^ name)

let test_e3_exit_early_never_uses_vnbone () =
  let r = strategy_row "exit-early" in
  check (Alcotest.float 1e-9) "zero vN fraction" 0.0 r.E.mean_vn_fraction

let test_e3_bgp_aware_uses_vnbone_more () =
  let early = strategy_row "exit-early" in
  let aware = strategy_row "bgpv(n-1)-aware" in
  check Alcotest.bool "vN fraction grows" true
    (aware.E.mean_vn_fraction > early.E.mean_vn_fraction);
  check Alcotest.bool "exposure shrinks" true
    (aware.E.mean_exposure_hops < early.E.mean_exposure_hops)

let test_e3_all_strategies_deliver () =
  List.iter
    (fun (r : E.strategy_row) ->
      check (Alcotest.float 1e-9) ("delivery " ^ r.E.strategy_name) 1.0
        r.E.journey_delivery)
    (Lazy.force e3)

(* E4 is the same sweep as E3 at 15% deployment (Fig 4 generalized) *)

let e4 =
  lazy (E.e3_egress_comparison ~params:small_params ~deploy_fraction:0.15 ~pairs:60 ())

let test_e4_all_strategies_deliver () =
  List.iter
    (fun (r : E.strategy_row) ->
      check (Alcotest.float 1e-9) ("delivery " ^ r.E.strategy_name) 1.0
        r.E.journey_delivery)
    (Lazy.force e4)

let test_e4_exit_early_never_uses_vnbone () =
  match
    List.find_opt
      (fun (r : E.strategy_row) -> r.E.strategy_name = "exit-early")
      (Lazy.force e4)
  with
  | None -> Alcotest.fail "missing strategy exit-early"
  | Some r ->
      check (Alcotest.float 1e-9) "zero vN fraction" 0.0 r.E.mean_vn_fraction

(* --- E5 ------------------------------------------------------------ *)

let e5 = lazy (E.e5_state_scaling ~params:small_params ())

let test_e5_option1_state_grows_linearly () =
  let rows = Lazy.force e5 in
  let first = List.hd rows in
  let last = List.nth rows (List.length rows - 1) in
  let gens = last.E.generations - first.E.generations in
  check Alcotest.bool "opt1 grows ~1 prefix per generation" true
    (last.E.opt1_max_rib - first.E.opt1_max_rib >= gens - 1);
  check Alcotest.bool "max rib grows monotonically" true
    (List.for_all2
       (fun (a : E.e5_row) (b : E.e5_row) -> a.E.opt1_max_rib <= b.E.opt1_max_rib)
       (List.filteri (fun i _ -> i < List.length rows - 1) rows)
       (List.tl rows))

let test_e5_option2_state_constant () =
  let rows = Lazy.force e5 in
  let first = List.hd rows in
  List.iter
    (fun (r : E.e5_row) ->
      check Alcotest.int "opt2 max rib flat" first.E.opt2_max_rib r.E.opt2_max_rib;
      check Alcotest.bool "opt2 bounded by baseline" true
        (r.E.opt2_max_rib <= r.E.baseline_rib))
    rows

(* --- E6 ------------------------------------------------------------ *)

let e6 = lazy (E.e6_adoption ~seeds:[ 1L; 2L; 3L ] ())

let test_e6_ua_vs_gated () =
  let rows = Lazy.force e6 in
  let ua = List.find (fun (r : E.e6_row) -> r.E.universal_access) rows in
  let gated = List.find (fun (r : E.e6_row) -> not r.E.universal_access) rows in
  check Alcotest.bool "UA reaches near-full adoption" true
    (ua.E.final_isp_fraction > 0.9);
  check Alcotest.bool "gated stalls" true (gated.E.final_isp_fraction < 0.2);
  check Alcotest.bool "UA tips, gated does not" true
    (ua.E.tip_step <> None && gated.E.tip_step = None)

(* --- E7 ------------------------------------------------------------ *)

let e7 =
  lazy
    (E.e7_robustness ~params:small_params ~deploy_domains:5 ~trials:10
       ~failure_fractions:[ 0.0; 0.2; 0.4 ] ())

let test_e7_no_failures_connected () =
  let first = List.hd (Lazy.force e7) in
  check (Alcotest.float 1e-9) "k=1 intact" 1.0 first.E.survive_k1;
  check (Alcotest.float 1e-9) "k=2 intact" 1.0 first.E.survive_k2;
  check (Alcotest.float 1e-9) "k=3 intact" 1.0 first.E.survive_k3;
  check (Alcotest.float 1e-9) "no repair needed" 0.0 first.E.mean_repair_tunnels

let test_e7_more_neighbors_more_robust () =
  List.iter
    (fun (r : E.e7_row) ->
      check Alcotest.bool "k=3 at least as robust as k=1" true
        (r.E.survive_k3 >= r.E.survive_k1 -. 1e-9))
    (Lazy.force e7)

let test_e7_repair_cost_grows () =
  let rows = Lazy.force e7 in
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  check Alcotest.bool "repair cost grows with failures" true
    (last.E.mean_repair_tunnels >= first.E.mean_repair_tunnels)

(* --- E8 ------------------------------------------------------------ *)

let e8 = lazy (E.e8_convergence ~sizes:[ 8; 24 ] ())

let test_e8_positive_rounds () =
  List.iter
    (fun (r : E.e8_row) ->
      check Alcotest.bool "ls flooding does work" true (r.E.ls_mean_rounds > 0.0);
      check Alcotest.bool "dv join does work" true (r.E.dv_join_rounds >= 0.0);
      check Alcotest.bool "dv leave does work" true (r.E.dv_leave_rounds > 0.0))
    (Lazy.force e8)

(* --- E9 ------------------------------------------------------------ *)

let e9 =
  lazy
    (E.e9_host_advertised ~params:small_params ~pairs:40
       ~failures:[ 0.0; 0.5 ] ())

let test_e9_host_advertised_optimal_when_fresh () =
  let fresh = List.hd (Lazy.force e9) in
  check (Alcotest.float 1e-9) "full delivery with fresh registrations" 1.0
    fresh.E.host_adv_delivery;
  check Alcotest.bool "host-advertised has the best exits" true
    (fresh.E.host_adv_exposure <= fresh.E.proxy_exposure +. 1e-9)

let test_e9_fate_sharing () =
  let rows = Lazy.force e9 in
  let damaged = List.nth rows (List.length rows - 1) in
  check Alcotest.bool "stale registrations black-hole" true
    (damaged.E.host_adv_delivery < 1.0);
  check (Alcotest.float 1e-9) "proxy unaffected" 1.0 damaged.E.proxy_delivery

(* --- E10 ----------------------------------------------------------- *)

let e10 = lazy (E.e10_discovery_ablation ~params:small_params ())

let e10_row name =
  match
    List.find_opt
      (fun (r : E.e10_row) -> r.E.discovery_name = name)
      (Lazy.force e10)
  with
  | Some r -> r
  | None -> Alcotest.fail ("missing discovery row " ^ name)

let test_e10_all_connected () =
  List.iter
    (fun (r : E.e10_row) ->
      check Alcotest.bool ("connected: " ^ r.E.discovery_name) true r.E.connected10)
    (Lazy.force e10)

let test_e10_lsdb_beats_walk () =
  let k2 = e10_row "LSDB k=2" and walk = e10_row "anycast walk (DV)" in
  check Alcotest.bool "LSDB k=2 stretch <= walk stretch" true
    (k2.E.vn_stretch <= walk.E.vn_stretch +. 1e-9)

let test_e10_more_neighbors_less_stretch () =
  let k1 = e10_row "LSDB k=1" and k3 = e10_row "LSDB k=3" in
  check Alcotest.bool "k=3 stretch <= k=1 stretch" true
    (k3.E.vn_stretch <= k1.E.vn_stretch +. 1e-9);
  check Alcotest.bool "k=3 has more tunnels" true
    (k3.E.intra_tunnels > k1.E.intra_tunnels)

(* --- E11 ----------------------------------------------------------- *)

let e11 = lazy (E.e11_congruence ~params:small_params ())

let test_e11_congruence_at_full_deployment () =
  let rows = Lazy.force e11 in
  let last = List.nth rows (List.length rows - 1) in
  check (Alcotest.float 0.05) "stretch -> 1 at full deployment" 1.0
    last.E.vn_stretch11;
  List.iter
    (fun (r : E.e11_row) ->
      check Alcotest.bool "stretch >= 1" true (r.E.vn_stretch11 >= 1.0 -. 1e-9))
    rows

let test_e11_tunnels_grow_with_deployment () =
  let rec growing = function
    | (a : E.e11_row) :: (b :: _ as rest) ->
        a.E.inter_tunnels11 <= b.E.inter_tunnels11 && growing rest
    | _ -> true
  in
  check Alcotest.bool "inter tunnels grow" true (growing (Lazy.force e11))

(* --- E12 ----------------------------------------------------------- *)

let e12 = lazy (E.e12_gia_sweep ~params:small_params ~radii:[ 0; 1; 2 ] ())

let test_e12_universal_delivery () =
  List.iter
    (fun (r : E.e12_row) ->
      check (Alcotest.float 1e-9) ("delivery: " ^ r.E.scheme12) 1.0 r.E.delivery12)
    (Lazy.force e12)

let test_e12_radius_sheds_home_load () =
  let gia =
    List.filter (fun (r : E.e12_row) -> r.E.gia_radius <> None) (Lazy.force e12)
  in
  let rec non_increasing = function
    | (a : E.e12_row) :: (b :: _ as rest) ->
        a.E.home_share >= b.E.home_share -. 1e-9 && non_increasing rest
    | _ -> true
  in
  check Alcotest.bool "home share non-increasing in radius" true
    (non_increasing gia)

let test_e12_state_between_options () =
  let rows = Lazy.force e12 in
  let find name =
    List.find (fun (r : E.e12_row) -> r.E.scheme12 = name) rows
  in
  let opt1 = find "option1 (global)" and opt2 = find "option2 (no adverts)" in
  List.iter
    (fun (r : E.e12_row) ->
      if r.E.gia_radius <> None then begin
        check Alcotest.bool "GIA state >= option2" true
          (r.E.mean_rib12 >= opt2.E.mean_rib12 -. 1e-9);
        check Alcotest.bool "GIA state <= option1" true
          (r.E.mean_rib12 <= opt1.E.mean_rib12 +. 1e-9)
      end)
    rows

(* --- E13 ----------------------------------------------------------- *)

let e13 = lazy (E.e13_seed_stability ~seeds:[ 101L; 202L ] ~pairs:20 ())

let test_e13_counts_seeds () =
  let rows = Lazy.force e13 in
  check Alcotest.bool "has strategy rows" true (rows <> []);
  List.iter
    (fun (r : E.e13_row) ->
      check Alcotest.int ("seeds: " ^ r.E.strategy13) 2 r.E.seeds13)
    rows

let test_e13_delivery_certain_across_seeds () =
  (* universal access holds on every seed, so the delivery CI collapses *)
  List.iter
    (fun (r : E.e13_row) ->
      check (Alcotest.float 1e-9)
        ("delivery mean: " ^ r.E.strategy13)
        1.0 r.E.delivery_ci.Evolve.Stats.mean;
      check (Alcotest.float 1e-9)
        ("delivery ci95: " ^ r.E.strategy13)
        0.0 r.E.delivery_ci.Evolve.Stats.ci95)
    (Lazy.force e13)

(* --- E14 ----------------------------------------------------------- *)

let e14 =
  lazy (E.e14_proxy_alpha ~params:small_params ~pairs:40 ~alphas:[ 0.0; 0.5; 1.5 ] ())

let test_e14_alpha_monotone () =
  let rec non_increasing = function
    | (a : E.e14_row) :: (b :: _ as rest) ->
        a.E.alpha_vn_fraction >= b.E.alpha_vn_fraction -. 1e-9
        && non_increasing rest
    | _ -> true
  in
  check Alcotest.bool "vN coverage falls as vN hops get pricier" true
    (non_increasing (Lazy.force e14))

let test_e14_large_alpha_cheapest_total () =
  let rows = Lazy.force e14 in
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  check Alcotest.bool "alpha >= 1 minimizes total hops" true
    (last.E.alpha_total_hops <= first.E.alpha_total_hops +. 1e-9)

(* --- E15 ----------------------------------------------------------- *)

let e15 =
  lazy (E.e15_viability_sweep ~seeds:[ 1L; 2L ] ~thresholds:[ 0.0; 0.3; 0.7 ] ())

let test_e15_ua_dominates_everywhere () =
  List.iter
    (fun (r : E.e15_row) ->
      check Alcotest.bool "UA >= gated" true (r.E.ua_final >= r.E.gated_final -. 1e-9);
      check Alcotest.bool "UA insensitive to the floor" true (r.E.ua_final > 0.9))
    (Lazy.force e15)

let test_e15_gated_collapses_above_share () =
  let rows = Lazy.force e15 in
  let high = List.nth rows (List.length rows - 1) in
  check Alcotest.bool "gated collapses at high floor" true (high.E.gated_final < 0.2)

(* --- E16 ----------------------------------------------------------- *)

let e16 = lazy (E.e16_revenue_gravity ~params:small_params ~deployers:2 ~flows:40 ())

let test_e16_both_pickers_present () =
  let rows = Lazy.force e16 in
  check Alcotest.int "two pickers" 2 (List.length rows);
  List.iter
    (fun (r : E.e16_row) ->
      check Alcotest.bool ("pop share sane: " ^ r.E.picker) true
        (r.E.pop_share > 0.0 && r.E.pop_share <= 1.0);
      check Alcotest.bool ("traffic share sane: " ^ r.E.picker) true
        (r.E.traffic_share >= 0.0 && r.E.traffic_share <= 1.0))
    rows

let test_e16_larger_deployers_attract_no_less () =
  match Lazy.force e16 with
  | [ largest; smallest ] ->
      check Alcotest.bool "largest stubs hold >= population share" true
        (largest.E.pop_share >= smallest.E.pop_share -. 1e-9)
  | _ -> Alcotest.fail "expected exactly the two picker rows"

(* --- E17 ----------------------------------------------------------- *)

let test_e17_table_is_one_aggregate_per_domain () =
  let rows =
    E.e17_bgpvn_scaling ~params:small_params ~domain_counts:[ 2; 5 ] ()
  in
  List.iter
    (fun (r : E.e17_row) ->
      check (Alcotest.float 1e-9) "one aggregate per participant domain"
        (float_of_int r.E.vn_domains) r.E.mean_table;
      check Alcotest.bool "rounds positive" true (r.E.bgpvn_rounds > 0))
    rows

(* --- E18 ----------------------------------------------------------- *)

let test_e18_latency_matches_eccentricity () =
  let rows = E.e18_flooding_cost ~sizes:[ 8; 16 ] () in
  List.iter
    (fun (r : E.e18_row) ->
      check (Alcotest.float 1e-9) "latency = eccentricity at unit delay"
        (float_of_int r.E.eccentricity)
        r.E.update_latency;
      check Alcotest.bool "sync dominates one update" true
        (r.E.sync_messages > r.E.update_messages))
    rows

(* --- E19 ----------------------------------------------------------- *)

let test_e19_mrai_coalesces () =
  let rows = E.e19_mrai_sweep ~params:small_params ~mrais:[ 0.01; 5.0 ] () in
  match rows with
  | [ fast; slow ] ->
      check Alcotest.bool "MRAI never increases update count" true
        (slow.E.boot_updates <= fast.E.boot_updates);
      check Alcotest.bool "MRAI delays quiescence" true
        (slow.E.boot_time >= fast.E.boot_time)
  | _ -> Alcotest.fail "expected two rows"

(* --- E20 / E21 ------------------------------------------------------ *)

let test_e20_anycast_survives () =
  let rows =
    E.e20_anycast_resilience ~params:small_params ~deploy_domains:4
      ~kill_steps:[ 0; 3 ] ()
  in
  List.iter
    (fun (r : E.e20_row) ->
      check (Alcotest.float 1e-9) "anycast survives" 1.0 r.E.anycast_delivery)
    rows;
  let last = List.nth rows (List.length rows - 1) in
  check Alcotest.bool "single server dies with its host" true
    (last.E.unicast_delivery < 1.0)

let test_e21_behaviour_stable_across_sizes () =
  let rows = E.e21_size_scaling ~transit_counts:[ 2; 4 ] () in
  List.iter
    (fun (r : E.e21_row) ->
      check (Alcotest.float 1e-9) "delivery" 1.0 r.E.delivery21;
      check Alcotest.bool "stretch sane" true
        (r.E.mean_stretch21 >= 1.0 -. 1e-9 && r.E.mean_stretch21 < 2.0);
      check Alcotest.bool "bgp rounds bounded" true (r.E.bgp_rounds < 20))
    rows

(* --- E22 ----------------------------------------------------------- *)

let e22 = lazy (E.e22_fib_scaling ~params:small_params ~max_generations:3 ())

let test_e22_option1_fib_grows () =
  let rows = Lazy.force e22 in
  check Alcotest.int "three generations" 3 (List.length rows);
  let rec nondecreasing = function
    | (a : E.e22_row) :: (b :: _ as rest) ->
        a.E.opt1_mean_fib <= b.E.opt1_mean_fib +. 1e-9 && nondecreasing rest
    | _ -> true
  in
  check Alcotest.bool "opt1 mean FIB grows with generations" true
    (nondecreasing rows)

let test_e22_max_bounds_mean () =
  List.iter
    (fun (r : E.e22_row) ->
      check Alcotest.bool "opt1 max >= mean" true
        (float_of_int r.E.opt1_max_fib >= r.E.opt1_mean_fib -. 1e-9);
      check Alcotest.bool "opt2 max >= mean" true
        (float_of_int r.E.opt2_max_fib >= r.E.opt2_mean_fib -. 1e-9))
    (Lazy.force e22)

(* --- E23 ----------------------------------------------------------- *)

let test_e23_claims_hold_on_both_models () =
  let rows = E.e23_topology_robustness ~pairs:40 () in
  check Alcotest.int "three models" 3 (List.length rows);
  List.iter
    (fun (r : E.e23_row) ->
      check (Alcotest.float 1e-9) ("delivery: " ^ r.E.model) 1.0 r.E.delivery23;
      check Alcotest.bool ("stretch sane: " ^ r.E.model) true
        (r.E.stretch23 >= 1.0 -. 1e-9 && r.E.stretch23 < 2.0);
      check Alcotest.bool ("exposure drops: " ^ r.E.model) true
        (r.E.exposure_drop > 0.0))
    rows

(* --- E24 ----------------------------------------------------------- *)

let test_e24_churn_decreases () =
  let rows = E.e24_flow_stability ~params:small_params ~stages:4 () in
  check Alcotest.bool "has rows" true (List.length rows >= 2);
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  check Alcotest.bool "stability only decreases" true
    (last.E.cumulative_stability <= first.E.cumulative_stability +. 1e-9);
  List.iter
    (fun (r : E.e24_row) ->
      check Alcotest.bool "fractions in range" true
        (r.E.ingress_changed >= 0.0 && r.E.ingress_changed <= 1.0
        && r.E.cumulative_stability >= 0.0 && r.E.cumulative_stability <= 1.0))
    rows

(* --- E25 ----------------------------------------------------------- *)

let test_e25_coalition_threshold () =
  let rows = E.e25_coalition_sweep ~seeds:[ 1L; 2L ] ~coalitions:[ 1; 3 ] () in
  (match rows with
  | [ lone; coalition ] ->
      check Alcotest.bool "a lone ISP stalls without UA" true
        (lone.E.gated_final25 < 0.2);
      check Alcotest.bool "a large-enough coalition tips even gated" true
        (coalition.E.gated_final25 > 0.9);
      check Alcotest.bool "UA needs no coalition" true (lone.E.ua_final25 > 0.9)
  | _ -> Alcotest.fail "expected two rows");
  List.iter
    (fun (r : E.e25_row) ->
      check Alcotest.bool "share grows with coalition" true
        (r.E.coalition_share > 0.0 && r.E.coalition_share < 1.0))
    rows

(* --- E26 ----------------------------------------------------------- *)

let test_e26_overhead_shrinks_with_payload () =
  let rows =
    E.e26_encapsulation_overhead ~params:small_params ~pairs:30
      ~payloads:[ 64; 1400 ] ()
  in
  match rows with
  | [ small; large ] ->
      check Alcotest.bool "evolution costs bytes" true (small.E.byte_overhead > 0.0);
      check Alcotest.bool "relative overhead shrinks with payload" true
        (large.E.byte_overhead < small.E.byte_overhead);
      check Alcotest.bool "header share shrinks with payload" true
        (large.E.header_share < small.E.header_share)
  | _ -> Alcotest.fail "expected two rows"

(* --- E27 ----------------------------------------------------------- *)

let test_e27_dv_costs_vn_stretch_not_delivery () =
  let rows =
    E.e27_mixed_igp ~params:small_params ~dv_fractions:[ 0.0; 1.0 ]
      ~deploy_domains:4 ()
  in
  match rows with
  | [ ls; dv ] ->
      check (Alcotest.float 1e-9) "LS delivery" 1.0 ls.E.delivery27;
      check (Alcotest.float 1e-9) "DV delivery" 1.0 dv.E.delivery27;
      check Alcotest.int "all-LS has no walk domains" 0 ls.E.walk_domains;
      check Alcotest.int "all-DV walks everywhere" 4 dv.E.walk_domains;
      check Alcotest.bool "DV pays vN stretch" true
        (dv.E.vn_stretch27 >= ls.E.vn_stretch27 -. 1e-9)
  | _ -> Alcotest.fail "expected two rows"

(* --- E28 ----------------------------------------------------------- *)

let test_e28_withdraw_churns_more () =
  let rows = E.e28_path_hunting ~params:small_params ~mrais:[ 0.01 ] () in
  match rows with
  | [ r ] ->
      check Alcotest.bool "hunting: withdraw churn >= announce churn" true
        (r.E.withdraw_churn >= r.E.announce_churn);
      check Alcotest.bool "hunt ratio >= 1" true (r.E.hunt_ratio >= 1.0 -. 1e-9);
      check Alcotest.bool "messages flowed both ways" true
        (r.E.announce_updates > 0 && r.E.withdraw_updates > 0)
  | _ -> Alcotest.fail "expected one row"

(* --- E29 ----------------------------------------------------------- *)

let test_e29_stretch_falls_with_deployment () =
  let rows =
    E.e29_dataplane_cost ~params:small_params ~fractions:[ 0.0; 0.3; 1.0 ]
      ~flows:25 ()
  in
  check Alcotest.int "two options x three fractions" 6 (List.length rows);
  let opt1 = List.filter (fun r -> r.E.option29 = "option1") rows in
  let opt2 = List.filter (fun r -> r.E.option29 = "option2") rows in
  match (opt1, opt2) with
  | [ z1; m1; f1 ], [ z2; m2; f2 ] ->
      check (Alcotest.float 1e-9) "no delivery before deployment" 0.0
        z1.E.delivery29;
      check (Alcotest.float 1e-9) "option2 zero likewise" 0.0 z2.E.delivery29;
      List.iter
        (fun r ->
          check (Alcotest.float 1e-9) "full delivery once deployed" 1.0
            r.E.delivery29)
        [ m1; f1; m2; f2 ];
      check (Alcotest.float 1e-6) "option1 native at full deployment" 1.0
        f1.E.mean_stretch29;
      check (Alcotest.float 1e-6) "option2 native at full deployment" 1.0
        f2.E.mean_stretch29;
      check Alcotest.bool "stretch falls as deployment grows (opt1)" true
        (f1.E.mean_stretch29 <= m1.E.mean_stretch29 +. 1e-9);
      check Alcotest.bool "option2 default routes cut mid-deploy stretch" true
        (m2.E.mean_stretch29 <= m1.E.mean_stretch29 +. 1e-9);
      check Alcotest.bool "encap costs bytes mid-deployment" true
        (m1.E.byte_overhead29 > 0.0);
      check Alcotest.bool "p99 bounds mean" true
        (m1.E.p99_stretch29 >= m1.E.mean_stretch29 -. 1e-9);
      check Alcotest.bool "flow cache sees repeats" true (f1.E.cache_hit29 > 0.0)
  | _ -> Alcotest.fail "expected three rows per option"

(* --- E30 ----------------------------------------------------------- *)

let test_e30_churn_disrupts_then_recovers () =
  let rows =
    E.e30_churn_traffic ~params:small_params ~probes:20 ~ticks:7 ~churn_tick:2
      ~window:3 ()
  in
  check Alcotest.int "one row per tick" 7 (List.length rows);
  let first = List.hd rows in
  let last = List.nth rows (List.length rows - 1) in
  check Alcotest.string "starts steady" "steady" first.E.phase30;
  check (Alcotest.float 1e-9) "steady state delivers" 1.0 first.E.ok30;
  check (Alcotest.float 1e-9) "steady FIBs all fresh" 1.0 first.E.fresh30;
  check Alcotest.string "ends recovered" "recovered" last.E.phase30;
  check (Alcotest.float 1e-9) "recovered FIBs all fresh" 1.0 last.E.fresh30;
  check (Alcotest.float 1e-9) "recovered delivery" 1.0 last.E.ok30;
  let converging = List.filter (fun r -> r.E.phase30 = "converging") rows in
  check Alcotest.bool "convergence window exists" true (converging <> []);
  List.iter
    (fun r ->
      check Alcotest.bool "partial refresh during convergence" true
        (r.E.fresh30 < 1.0);
      check (Alcotest.float 1e-9) "probe accounting sums to one" 1.0
        (r.E.ok30 +. r.E.stale30 +. r.E.lost30 +. r.E.looped30))
    converging;
  check Alcotest.bool "stale snapshots misdeliver or loop traffic" true
    (List.exists
       (fun r -> r.E.stale30 +. r.E.lost30 +. r.E.looped30 > 0.0)
       converging)

(* --- E31 ----------------------------------------------------------- *)

let e31_args = (small_params, [ 0.0; 0.3 ])

let e31 =
  lazy
    (let params, losses = e31_args in
     E.e31_fault_convergence ~params ~losses ())

let test_e31_converges_to_oracle () =
  let rows = Lazy.force e31 in
  let _, losses = e31_args in
  check Alcotest.int "loss sweep + crash row per protocol"
    (2 * (List.length losses + 1))
    (List.length rows);
  let bgp = List.filter (fun r -> String.equal r.E.proto31 "bgp") rows in
  let ls = List.filter (fun r -> String.equal r.E.proto31 "ls") rows in
  check Alcotest.int "both protocols swept" (List.length rows)
    (List.length bgp + List.length ls);
  List.iter
    (fun rows ->
      let crash = List.filter (fun r -> r.E.crashed31 > 0) rows in
      check Alcotest.int "exactly one crash row" 1 (List.length crash))
    [ bgp; ls ];
  List.iter
    (fun r ->
      check Alcotest.bool
        (Printf.sprintf "%s loss=%.1f crashed=%d agrees with oracle"
           r.E.proto31 r.E.loss31 r.E.crashed31)
        true r.E.agrees31;
      check Alcotest.bool "protocol exchanged messages" true (r.E.msgs31 > 0))
    rows;
  (* the robustness tax: acked flooding pays retransmissions under loss *)
  let ls_overhead loss =
    (List.find
       (fun r ->
         r.E.crashed31 = 0 && Float.abs (r.E.loss31 -. loss) < 1e-9)
       ls)
      .E.overhead31
  in
  check Alcotest.bool "loss costs retransmissions" true
    (ls_overhead 0.3 > ls_overhead 0.0)

(* --- E32 ----------------------------------------------------------- *)

let e32_row_str (r : E.e32_row) =
  Printf.sprintf "%d %b %s %.17g %.17g %.17g %.17g" r.E.tick32 r.E.recovery32
    r.E.phase32 r.E.ok32 r.E.stale32 r.E.lost32 r.E.looped32

let e32_args = (small_params, 3, 20, 10, 2)

let e32 =
  lazy
    (let params, deploy_domains, probes, ticks, flap_links = e32_args in
     E.e32_flap_traffic ~params ~deploy_domains ~probes ~ticks ~flap_links ())

let test_e32_recovery_beats_waiting () =
  let rows = Lazy.force e32 in
  let _, _, _, ticks, _ = e32_args in
  check Alcotest.int "two runs of one row per tick" (2 * ticks)
    (List.length rows);
  let off = List.filter (fun r -> not r.E.recovery32) rows in
  let on = List.filter (fun r -> r.E.recovery32) rows in
  check Alcotest.int "recovery-off run" ticks (List.length off);
  check Alcotest.int "recovery-on run" ticks (List.length on);
  List.iter
    (fun r ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "tick %d accounting sums to one" r.E.tick32)
        1.0
        (r.E.ok32 +. r.E.stale32 +. r.E.lost32 +. r.E.looped32))
    rows;
  List.iter
    (fun run ->
      let first = List.hd run and last = List.nth run (ticks - 1) in
      check Alcotest.string "starts steady" "steady" first.E.phase32;
      check (Alcotest.float 1e-9) "steady state delivers" 1.0 first.E.ok32;
      check Alcotest.string "ends recovered" "recovered" last.E.phase32;
      check (Alcotest.float 1e-9) "recovered delivery" 1.0 last.E.ok32)
    [ off; on ];
  (* while the links are down (ticks 3-6), rerouting must do no worse
     than riding out the outage — and the outage must actually bite *)
  let flap run =
    List.filter (fun r -> r.E.tick32 >= 3 && r.E.tick32 <= 6) run
  in
  let mean_ok run =
    List.fold_left (fun acc r -> acc +. r.E.ok32) 0.0 (flap run)
    /. float_of_int (List.length (flap run))
  in
  check Alcotest.bool "flaps disrupt the passive run" true
    (List.exists (fun r -> r.E.ok32 < 1.0) (flap off));
  check Alcotest.bool "recovery delivers at least as much" true
    (mean_ok on >= mean_ok off -. 1e-9)

let test_e31_e32_deterministic () =
  (* same seed, same rows, byte for byte — the fault fabric draws all
     randomness from Topology.Rng, so reruns must be identical *)
  let e31_run () =
    let params, losses = e31_args in
    List.map
      (fun (r : E.e31_row) ->
        Printf.sprintf "%s %.17g %d %d %d %.17g %b" r.E.proto31 r.E.loss31
          r.E.crashed31 r.E.msgs31 r.E.overhead31 r.E.settle31 r.E.agrees31)
      (E.e31_fault_convergence ~params ~losses ())
  in
  let e32_run () =
    let params, deploy_domains, probes, ticks, flap_links = e32_args in
    List.map e32_row_str
      (E.e32_flap_traffic ~params ~deploy_domains ~probes ~ticks ~flap_links
         ())
  in
  check
    Alcotest.(list string)
    "e31 rows identical across runs" (e31_run ()) (e31_run ());
  check
    Alcotest.(list string)
    "e32 rows identical across runs" (e32_run ()) (e32_run ())

let e33_args = (small_params, [ 1; 2; 4; 8 ], 256, 8)

let e33_row_str (r : E.e33_row) =
  Printf.sprintf "%d %d %d %d %d %d %d %d %b" r.E.shards33 r.E.packets33
    r.E.hops33 r.E.bytes33 r.E.delivered33 r.E.dropped33 r.E.ttl33
    r.E.crossings33 r.E.identical33

let e33 =
  lazy
    (let params, shard_counts, flows, packets_per_flow = e33_args in
     E.e33_shard_invariance ~params ~shard_counts ~flows ~packets_per_flow ())

let test_e33_shard_invariance () =
  let rows = Lazy.force e33 in
  let _, shard_counts, _, _ = e33_args in
  check Alcotest.int "one row per shard count" (List.length shard_counts)
    (List.length rows);
  List.iter
    (fun (r : E.e33_row) ->
      check Alcotest.bool
        (Printf.sprintf "verdict at %d shards matches one shard" r.E.shards33)
        true r.E.identical33;
      check Alcotest.int
        (Printf.sprintf "terminal verdicts account for every packet at %d"
           r.E.shards33)
        r.E.packets33
        (r.E.delivered33 + r.E.dropped33 + r.E.ttl33);
      check Alcotest.bool "packets forwarded" true (r.E.packets33 > 0);
      check Alcotest.bool "hops at least one per packet" true
        (r.E.hops33 >= r.E.packets33))
    rows;
  let base = List.hd rows in
  List.iter
    (fun (r : E.e33_row) ->
      check Alcotest.int "hops invariant" base.E.hops33 r.E.hops33;
      check Alcotest.int "bytes invariant" base.E.bytes33 r.E.bytes33;
      check Alcotest.int "delivered invariant" base.E.delivered33
        r.E.delivered33)
    rows;
  check Alcotest.int "one shard never crosses" 0 base.E.crossings33;
  List.iter
    (fun (r : E.e33_row) ->
      if r.E.shards33 > 1 then
        check Alcotest.bool
          (Printf.sprintf "%d shards hand packets across rings" r.E.shards33)
          true
          (r.E.crossings33 > 0))
    rows

let test_e33_deterministic () =
  let run () =
    let params, shard_counts, flows, packets_per_flow = e33_args in
    List.map e33_row_str
      (E.e33_shard_invariance ~params ~shard_counts ~flows ~packets_per_flow
         ())
  in
  check
    Alcotest.(list string)
    "e33 rows identical across runs" (run ()) (run ())

(* --- E34 ------------------------------------------------------------ *)

let e34 = lazy (E.e34_drill_catalog ~params:small_params ())

let test_e34_catalog_passes () =
  let rows = Lazy.force e34 in
  (* two intensities per catalog drill *)
  check Alcotest.int "one row per drill x intensity" 12 (List.length rows);
  List.iter
    (fun (r : E.e34_row) ->
      if r.E.intensity34 <= 1.0 +. 1e-9 then
        check Alcotest.bool
          (Printf.sprintf "%s passes its SLOs at intensity 1" r.E.drill34)
          true r.E.pass34;
      (match r.E.detection34 with
      | Some d ->
          check Alcotest.bool
            (Printf.sprintf "%s detection non-negative" r.E.drill34)
            true (d >= 0.0)
      | None ->
          Alcotest.failf "%s: no detection at intensity %.2f" r.E.drill34
            r.E.intensity34);
      check Alcotest.bool
        (Printf.sprintf "%s blackhole non-negative" r.E.drill34)
        true
        (r.E.blackhole34 >= 0.0))
    rows

let test_e34_deterministic () =
  let row_str (r : E.e34_row) =
    Printf.sprintf "%s %.2f %s %s %.4f %.4f %b" r.E.drill34 r.E.intensity34
      (match r.E.detection34 with None -> "n/a" | Some f -> Printf.sprintf "%.4f" f)
      (match r.E.reconverge34 with None -> "n/a" | Some f -> Printf.sprintf "%.4f" f)
      r.E.blackhole34 r.E.stale34 r.E.pass34
  in
  let run () =
    List.map row_str (E.e34_drill_catalog ~params:small_params ())
  in
  check
    Alcotest.(list string)
    "e34 rows identical across runs" (run ()) (run ())

(* --- E35 ------------------------------------------------------------ *)

let e35 = lazy (E.e35_hijack_containment ~params:small_params ())

let test_e35_containment_improves_with_deployment () =
  let rows = Lazy.force e35 in
  check Alcotest.int "one row per level" 4 (List.length rows);
  let rec non_increasing = function
    | (a : E.e35_row) :: (b :: _ as rest) ->
        a.E.hijacked_peak35 >= b.E.hijacked_peak35 -. 1e-9
        && non_increasing rest
    | _ -> true
  in
  check Alcotest.bool "hijacked peak non-increasing in deployment" true
    (non_increasing rows);
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  check Alcotest.bool "denser deployment contains the rogue" true
    (last.E.hijacked_peak35 <= first.E.hijacked_peak35);
  check Alcotest.bool "delivery during the fault improves" true
    (last.E.ok_fault35 >= first.E.ok_fault35);
  List.iter
    (fun (r : E.e35_row) ->
      check Alcotest.bool "fractions in range" true
        (r.E.hijacked_peak35 >= 0.0
        && r.E.hijacked_peak35 <= 1.0
        && r.E.hijacked_mean35 <= r.E.hijacked_peak35 +. 1e-9))
    rows

(* --- E36 ------------------------------------------------------------ *)

let e36 = lazy (E.e36_overload_response ~params:small_params ())

let test_e36_graceful_degradation () =
  let rows = Lazy.force e36 in
  check Alcotest.int "one row per load level" 7 (List.length rows);
  (* the delivered fraction degrades monotonically past saturation —
     a slope, not a cliff *)
  let rec non_increasing = function
    | (a : E.e36_row) :: (b :: _ as rest) ->
        b.E.goodput_frac36 <= a.E.goodput_frac36 +. 1e-9 && non_increasing rest
    | _ -> true
  in
  check Alcotest.bool "goodput fraction non-increasing in offered load" true
    (non_increasing rows);
  (* absolute goodput never collapses: more offered load never delivers
     less (the higher level replays the lower one's injections as a
     per-tick prefix) *)
  let rec goodput_monotone = function
    | (a : E.e36_row) :: (b :: _ as rest) ->
        b.E.goodput36 >= a.E.goodput36 && goodput_monotone rest
    | _ -> true
  in
  check Alcotest.bool "absolute goodput non-decreasing" true
    (goodput_monotone rows);
  List.iter
    (fun (r : E.e36_row) ->
      check Alcotest.bool
        (Printf.sprintf "load %d: queued bytes bounded by depth" r.E.load36)
        true r.E.bounded36;
      check (Alcotest.float 1e-9)
        (Printf.sprintf "load %d: control never shed before data" r.E.load36)
        1.0 r.E.ctrl_ok36;
      check Alcotest.bool
        (Printf.sprintf "load %d: some goodput survives" r.E.load36)
        true (r.E.goodput36 > 0))
    rows;
  (* the sweep actually reaches saturation: the top load is shed *)
  let last = List.nth rows (List.length rows - 1) in
  check Alcotest.bool "top load overloads the queues" true
    (last.E.shed36 + last.E.qdrop36 > 0);
  check Alcotest.bool "delay grows under overload" true
    (last.E.delay36 >= (List.hd rows).E.delay36)

let test_e36_deterministic () =
  let row_str (r : E.e36_row) =
    Printf.sprintf "%d %d %d %.6f %.6f %d %d %.6f %d %b" r.E.load36
      r.E.offered36 r.E.goodput36 r.E.goodput_frac36 r.E.ctrl_ok36 r.E.qdrop36
      r.E.shed36 r.E.delay36 r.E.queued_hw36 r.E.bounded36
  in
  let run () =
    List.map row_str (E.e36_overload_response ~params:small_params ())
  in
  check Alcotest.(list string) "e36 rows identical across runs" (run ())
    (run ())

(* --- E37 ------------------------------------------------------------ *)

let e37 = lazy (E.e37_crash_recovery ~params:small_params ())

let test_e37_zero_divergence () =
  let rows = Lazy.force e37 in
  check Alcotest.int "one row per shard count" 4 (List.length rows);
  List.iter
    (fun (r : E.e37_row) ->
      check Alcotest.bool
        (Printf.sprintf "%d shards: the crash fired and was supervised"
           r.E.shards37)
        true
        (r.E.restarts37 >= 1);
      check Alcotest.bool
        (Printf.sprintf "%d shards: verdicts identical after restart"
           r.E.shards37)
        true r.E.identical37;
      check Alcotest.int
        (Printf.sprintf "%d shards: nothing shed across the restart"
           r.E.shards37)
        0 r.E.shed37;
      check Alcotest.bool
        (Printf.sprintf "%d shards: traffic terminated" r.E.shards37)
        true
        (r.E.delivered37 + r.E.dropped37 + r.E.ttl37 > 0))
    rows;
  (* the verdict counts themselves are shard-count invariant, as E33
     demands of the uncrashed pool *)
  (match rows with
  | first :: rest ->
      List.iter
        (fun (r : E.e37_row) ->
          check Alcotest.int "delivered invariant across shard counts"
            first.E.delivered37 r.E.delivered37)
        rest
  | [] -> ())

let test_e37_deterministic () =
  let row_str (r : E.e37_row) =
    Printf.sprintf "%d %d %d %d %d %d %d %b" r.E.shards37 r.E.restarts37
      r.E.rounds37 r.E.delivered37 r.E.dropped37 r.E.ttl37 r.E.shed37
      r.E.identical37
  in
  let run () = List.map row_str (E.e37_crash_recovery ~params:small_params ()) in
  check Alcotest.(list string) "e37 rows identical across runs" (run ())
    (run ())

(* --- the registry on the smallest internet ------------------------- *)

(* `exp eN --transit 1 --stubs 1` is a valid request: every entry must
   run on one transit and one stub (two domains) without raising *)
let test_registry_runs_on_smallest_internet () =
  let params =
    { Internet.default_params with Internet.transit_domains = 1; stubs_per_transit = 1 }
  in
  List.iter
    (fun (e : E.entry) ->
      match e.E.run params with
      | rows ->
          check Alcotest.bool (e.E.id ^ " rows have the header's width") true
            (List.for_all (fun r -> List.length r = List.length e.E.header) rows)
      | exception ex ->
          Alcotest.failf "%s raised %s" e.E.id (Printexc.to_string ex))
    E.registry

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "every entry runs on 1 transit, 1 stub" `Quick
            test_registry_runs_on_smallest_internet;
        ] );
      ( "e1",
        [
          Alcotest.test_case "universal access" `Quick test_e1_universal_access;
          Alcotest.test_case "stretch -> 1" `Quick test_e1_stretch_converges_to_one;
          Alcotest.test_case "nested deployment" `Quick test_e1_deployment_grows;
        ] );
      ( "e2",
        [
          Alcotest.test_case "default dominates initially" `Quick
            test_e2_default_dominates_without_advertisement;
          Alcotest.test_case "advertising sheds load" `Quick
            test_e2_advertising_sheds_default_load;
          Alcotest.test_case "option1 reference" `Quick test_e2_option1_reference_present;
        ] );
      ( "e3",
        [
          Alcotest.test_case "exit-early off the vN-Bone" `Quick
            test_e3_exit_early_never_uses_vnbone;
          Alcotest.test_case "bgp-aware rides the vN-Bone" `Quick
            test_e3_bgp_aware_uses_vnbone_more;
          Alcotest.test_case "delivery" `Quick test_e3_all_strategies_deliver;
        ] );
      ( "e4",
        [
          Alcotest.test_case "delivery at 15%" `Quick test_e4_all_strategies_deliver;
          Alcotest.test_case "exit-early off the vN-Bone" `Quick
            test_e4_exit_early_never_uses_vnbone;
        ] );
      ( "e5",
        [
          Alcotest.test_case "option1 grows" `Quick test_e5_option1_state_grows_linearly;
          Alcotest.test_case "option2 flat" `Quick test_e5_option2_state_constant;
        ] );
      ("e6", [ Alcotest.test_case "UA vs gated" `Quick test_e6_ua_vs_gated ]);
      ( "e7",
        [
          Alcotest.test_case "no failures: connected" `Quick test_e7_no_failures_connected;
          Alcotest.test_case "k monotone" `Quick test_e7_more_neighbors_more_robust;
          Alcotest.test_case "repair cost grows" `Quick test_e7_repair_cost_grows;
        ] );
      ("e8", [ Alcotest.test_case "positive rounds" `Quick test_e8_positive_rounds ]);
      ( "e9",
        [
          Alcotest.test_case "optimal when fresh" `Quick
            test_e9_host_advertised_optimal_when_fresh;
          Alcotest.test_case "fate sharing" `Quick test_e9_fate_sharing;
        ] );
      ( "e10",
        [
          Alcotest.test_case "all connected" `Quick test_e10_all_connected;
          Alcotest.test_case "lsdb beats walk" `Quick test_e10_lsdb_beats_walk;
          Alcotest.test_case "k monotone" `Quick test_e10_more_neighbors_less_stretch;
        ] );
      ( "e11",
        [
          Alcotest.test_case "congruent at full deployment" `Quick
            test_e11_congruence_at_full_deployment;
          Alcotest.test_case "tunnels grow" `Quick test_e11_tunnels_grow_with_deployment;
        ] );
      ( "e12",
        [
          Alcotest.test_case "universal delivery" `Quick test_e12_universal_delivery;
          Alcotest.test_case "radius sheds home load" `Quick
            test_e12_radius_sheds_home_load;
          Alcotest.test_case "state between options" `Quick
            test_e12_state_between_options;
        ] );
      ( "e13",
        [
          Alcotest.test_case "seed count recorded" `Quick test_e13_counts_seeds;
          Alcotest.test_case "delivery CI collapses" `Quick
            test_e13_delivery_certain_across_seeds;
        ] );
      ( "e14",
        [
          Alcotest.test_case "alpha monotone" `Quick test_e14_alpha_monotone;
          Alcotest.test_case "large alpha minimizes hops" `Quick
            test_e14_large_alpha_cheapest_total;
        ] );
      ( "e15",
        [
          Alcotest.test_case "UA dominates" `Quick test_e15_ua_dominates_everywhere;
          Alcotest.test_case "gated collapses" `Quick
            test_e15_gated_collapses_above_share;
        ] );
      ( "e16",
        [
          Alcotest.test_case "both pickers present" `Quick
            test_e16_both_pickers_present;
          Alcotest.test_case "largest >= smallest pop share" `Quick
            test_e16_larger_deployers_attract_no_less;
        ] );
      ( "e17",
        [
          Alcotest.test_case "table = one aggregate per domain" `Quick
            test_e17_table_is_one_aggregate_per_domain;
        ] );
      ( "e18",
        [
          Alcotest.test_case "latency = eccentricity" `Quick
            test_e18_latency_matches_eccentricity;
        ] );
      ( "e19",
        [ Alcotest.test_case "MRAI coalesces" `Quick test_e19_mrai_coalesces ]);
      ( "e20",
        [ Alcotest.test_case "anycast survives" `Quick test_e20_anycast_survives ]);
      ( "e21",
        [
          Alcotest.test_case "stable across sizes" `Quick
            test_e21_behaviour_stable_across_sizes;
        ] );
      ( "e22",
        [
          Alcotest.test_case "opt1 FIB grows" `Quick test_e22_option1_fib_grows;
          Alcotest.test_case "max bounds mean" `Quick test_e22_max_bounds_mean;
        ] );
      ( "e23",
        [
          Alcotest.test_case "claims hold on both models" `Quick
            test_e23_claims_hold_on_both_models;
        ] );
      ( "e24",
        [ Alcotest.test_case "stability decreases" `Quick test_e24_churn_decreases ]);
      ( "e25",
        [
          Alcotest.test_case "coalition threshold" `Quick test_e25_coalition_threshold;
        ] );
      ( "e26",
        [
          Alcotest.test_case "overhead shrinks with payload" `Quick
            test_e26_overhead_shrinks_with_payload;
        ] );
      ( "e27",
        [
          Alcotest.test_case "DV costs vN stretch, not delivery" `Quick
            test_e27_dv_costs_vn_stretch_not_delivery;
        ] );
      ( "e28",
        [
          Alcotest.test_case "withdraw churns more" `Quick
            test_e28_withdraw_churns_more;
        ] );
      ( "e29",
        [
          Alcotest.test_case "stretch falls with deployment" `Quick
            test_e29_stretch_falls_with_deployment;
        ] );
      ( "e30",
        [
          Alcotest.test_case "churn disrupts then recovers" `Quick
            test_e30_churn_disrupts_then_recovers;
        ] );
      ( "e31",
        [
          Alcotest.test_case "faulty runs converge to the oracle" `Quick
            test_e31_converges_to_oracle;
        ] );
      ( "e32",
        [
          Alcotest.test_case "recovery beats riding out the flap" `Quick
            test_e32_recovery_beats_waiting;
          Alcotest.test_case "same seed, same rows" `Quick
            test_e31_e32_deterministic;
        ] );
      ( "e33",
        [
          Alcotest.test_case "shard-count invariance" `Quick
            test_e33_shard_invariance;
          Alcotest.test_case "same seed, same rows" `Quick
            test_e33_deterministic;
        ] );
      ( "e34",
        [
          Alcotest.test_case "catalog passes at intensity 1" `Slow
            test_e34_catalog_passes;
          Alcotest.test_case "same seed, same rows" `Slow
            test_e34_deterministic;
        ] );
      ( "e35",
        [
          Alcotest.test_case "containment improves with deployment" `Slow
            test_e35_containment_improves_with_deployment;
        ] );
      ( "e36",
        [
          Alcotest.test_case "graceful degradation, not a cliff" `Slow
            test_e36_graceful_degradation;
          Alcotest.test_case "same seed, same rows" `Slow
            test_e36_deterministic;
        ] );
      ( "e37",
        [
          Alcotest.test_case "zero verdict divergence after restart" `Slow
            test_e37_zero_divergence;
          Alcotest.test_case "same seed, same rows" `Slow
            test_e37_deterministic;
        ] );
    ]
