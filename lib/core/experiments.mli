(** The quantitative experiments (E1–E37 of DESIGN.md).

    Each function is deterministic given its arguments and returns
    typed rows. {!registry} holds one entry per experiment: its
    RESULTS.md heading, column names and formatted cells. The report,
    [bin/evolvenet exp] and [bench/main.ml] all iterate it. The
    expected shapes (who wins, what grows, where the crossover is) are
    asserted in test/test_experiments.ml and recorded in
    EXPERIMENTS.md. *)

(** {1 E1 — anycast stretch vs deployment fraction (Fig 1 generalized)} *)

type e1_row = {
  fraction : float;  (** fraction of domains that deployed IPvN *)
  deployed_domains : int;
  mean_stretch : float;
  p95_stretch : float;
  delivery_rate : float;
}

val e1_deployment_sweep :
  ?params:Topology.Internet.params ->
  ?fractions:float list ->
  unit ->
  e1_row list
(** Deployment spreads over a fixed random internet (deployed sets are
    nested as the fraction grows, like the figure's staged story);
    stretch is measured over all endhosts. *)

(** {1 E2 — Option 2 default routes vs peering advertisements (Fig 2
    generalized)} *)

type e2_row = {
  label : string;
  advertisers : int;  (** participants that advertised to their neighbors *)
  default_share : float;  (** traffic terminating at the default domain *)
  mean_stretch2 : float;
  delivery2 : float;
}

val e2_default_route_sweep :
  ?params:Topology.Internet.params ->
  ?participants:int ->
  unit ->
  e2_row list
(** Fixed participant set (default domain + stubs); progressively more
    participants advertise the anycast route to all their neighbors.
    The last row is the same deployment under Option 1 for reference. *)

(** {1 E3/E4 — egress strategies (Figs 3 and 4 generalized)} *)

type strategy_row = {
  strategy_name : string;
  mean_vn_fraction : float;
  mean_vn_hops : float;
  mean_exposure_hops : float;  (** hops outside the vN-Bone *)
  mean_total_hops : float;
  journey_delivery : float;
}

val e3_egress_comparison :
  ?params:Topology.Internet.params ->
  ?deploy_fraction:float ->
  ?pairs:int ->
  unit ->
  strategy_row list
(** All three strategies over random endhost pairs whose destination
    lives in a non-IPvN domain. *)

(** {1 E5 — routing state: Option 1 vs Option 2} *)

type e5_row = {
  generations : int;  (** concurrent IPvN deployments *)
  opt1_mean_rib : float;
  opt1_max_rib : int;
  opt2_mean_rib : float;
  opt2_max_rib : int;
  baseline_rib : int;  (** unicast-only RIB size *)
}

val e5_state_scaling :
  ?params:Topology.Internet.params ->
  ?max_generations:int ->
  ?domains_per_generation:int ->
  unit ->
  e5_row list

(** {1 E6 — adoption dynamics: universal access on/off} *)

type e6_row = {
  scenario : string;
  universal_access : bool;
  final_isp_fraction : float;
  final_app_fraction : float;
  tip_step : int option;  (** step where adoption crossed 90% *)
}

val e6_adoption :
  ?seeds:int64 list -> ?base:Adoption.params -> unit -> e6_row list
(** UA on vs off, averaged over the seeds. *)

(** {1 E7 — vN-Bone robustness under member failures}

    The paper claims vN-Bone partitions are "easily detected and
    repaired"; after any rebuild the anchoring rule indeed restores
    connectivity (asserted in the tests). The interesting quantities
    are how well the built fabric {e survives} failures before repair —
    as a function of the k-closest neighbor count — and how many repair
    tunnels a rebuild then needs. *)

type e7_row = {
  failure_fraction : float;
  survive_k1 : float;  (** fraction of trials still connected, k = 1 *)
  survive_k2 : float;
  survive_k3 : float;
  mean_repair_tunnels : float;
      (** new tunnels a rebuild adds after the failure (k = 2) *)
  trials : int;
}

val e7_robustness :
  ?params:Topology.Internet.params ->
  ?deploy_domains:int ->
  ?trials:int ->
  ?failure_fractions:float list ->
  unit ->
  e7_row list

(** {1 E8 — LS vs DV anycast convergence} *)

type e8_row = {
  domain_routers : int;
  ls_mean_rounds : float;  (** LSA flooding rounds after a membership change *)
  dv_join_rounds : float;  (** DV rounds to re-converge after a join *)
  dv_leave_rounds : float;
}

val e8_convergence : ?sizes:int list -> ?seed:int64 -> unit -> e8_row list

(** {1 E9 — host-advertised routes: optimality vs fate-sharing}

    The paper's §3.3.2 alternative (endhosts register their temporary
    address with a nearby IPvN router) gives the best exits but
    introduces "a form of fate-sharing between an endhost and its
    route advertisement". We measure both sides: exposure with fresh
    registrations, and delivery once a fraction of members fail without
    the hosts re-registering. *)

type e9_row = {
  member_failure : float;  (** fraction of members that left *)
  host_adv_delivery : float;  (** stale registrations black-hole *)
  proxy_delivery : float;  (** proxy re-routes around the loss *)
  host_adv_exposure : float;  (** mean off-vN-Bone hops when delivered *)
  proxy_exposure : float;
}

val e9_host_advertised :
  ?params:Topology.Internet.params ->
  ?deploy_fraction:float ->
  ?pairs:int ->
  ?failures:float list ->
  unit ->
  e9_row list

(** {1 E10 — vN-Bone discovery: LSDB vs anycast-walk (footnote 2)} *)

type e10_row = {
  discovery_name : string;
  intra_tunnels : int;
  vn_stretch : float;  (** mean vN path / direct underlay, member pairs *)
  connected10 : bool;
}

val e10_discovery_ablation :
  ?params:Topology.Internet.params -> ?deploy_domains:int -> unit -> e10_row list

(** {1 E11 — congruence with the physical topology (§3.3.1)}

    "As deployment spreads, the vN-Bone topology should evolve to be
    congruent with the underlying physical topology": the vN stretch
    over member pairs should fall toward 1 as more domains (and their
    direct business links) join. *)

type e11_row = {
  deploy_fraction11 : float;
  members11 : int;
  vn_stretch11 : float;
  inter_tunnels11 : int;
}

val e11_congruence :
  ?params:Topology.Internet.params -> ?fractions:float list -> unit -> e11_row list

(** {1 E12 — GIA search radius (§3.2, Katabi et al.)}

    GIA interpolates between the paper's two options: the home domain
    guarantees delivery (Option 2's property) while radius-limited
    member advertisements recover Option 1's proximity, paying routing
    state only within the radius. *)

type e12_row = {
  scheme12 : string;
  gia_radius : int option;
  home_share : float;  (** terminations at the home domain *)
  mean_stretch12 : float;
  delivery12 : float;
  mean_rib12 : float;  (** mean per-domain RIB size (state cost) *)
}

val e12_gia_sweep :
  ?params:Topology.Internet.params ->
  ?participants:int ->
  ?radii:int list ->
  unit ->
  e12_row list

(** {1 E13 — seed stability of the egress comparison}

    E3's ordering must not be an artifact of one random internet: the
    same comparison across independent topologies, with Student-t 95%
    confidence intervals. *)

type e13_row = {
  strategy13 : string;
  vn_fraction_ci : Stats.summary;
  exposure_ci : Stats.summary;
  delivery_ci : Stats.summary;
  seeds13 : int;
}

val e13_seed_stability :
  ?seeds:int64 list ->
  ?deploy_fraction:float ->
  ?pairs:int ->
  unit ->
  e13_row list

(** {1 E14 — proxy-metric ablation}

    Advertising-by-proxy routes on [alpha * vN_hops + AS_hops]. The
    sweep shows the design knob: [alpha >= 1] collapses proxy into
    exit-early (a vN detour can never beat the triangle inequality),
    while small [alpha] buys vN-Bone coverage with extra total hops. *)

type e14_row = {
  alpha : float;
  alpha_vn_fraction : float;
  alpha_exposure : float;
  alpha_total_hops : float;
}

val e14_proxy_alpha :
  ?params:Topology.Internet.params ->
  ?deploy_fraction:float ->
  ?pairs:int ->
  ?alphas:float list ->
  unit ->
  e14_row list

(** {1 E15 — where the chicken-and-egg bites}

    Sweeping the app-viability floor (the user share below which
    developers ignore the new IP): universal access is insensitive to
    it, while gated access collapses as soon as the floor exceeds the
    early adopters' market share. *)

type e15_row = {
  viability : float;
  ua_final : float;
  gated_final : float;
}

val e15_viability_sweep :
  ?seeds:int64 list -> ?thresholds:float list -> unit -> e15_row list

(** {1 E16 — traffic attraction under gravity workloads (A4)}

    "An ISP that attracts new traffic, by offering IPvN, will also
    gain revenue": under a Zipf-gravity workload, deploying domains
    carry a share of IPvN traffic that exceeds their population share —
    strongly so for small deployers, since all anycast and vN-Bone
    traffic funnels through them. *)

type e16_row = {
  picker : string;
  pop_share : float;
  traffic_share : float;
  attraction_premium : float;
}

val e16_revenue_gravity :
  ?params:Topology.Internet.params ->
  ?deployers:int ->
  ?flows:int ->
  unit ->
  e16_row list

(** {1 E17 — BGPvN convergence and state}

    The distributed vN routing protocol's cost: exchange rounds to the
    fixpoint and per-member table size as the deployment grows. Tables
    hold one aggregate per participant domain — the "design space ...
    fairly unconstrained" routing the paper leaves open, made
    concrete. *)

type e17_row = {
  vn_domains : int;
  vn_members : int;
  bgpvn_rounds : int;
  mean_table : float;
}

val e17_bgpvn_scaling :
  ?params:Topology.Internet.params ->
  ?domain_counts:int list ->
  unit ->
  e17_row list

(** {1 E18 — message-level LSA flooding}

    The dynamics beneath E8's round counts: actual LSA transmissions
    and settle latency on the event engine, for the initial LSDB sync
    and for one anycast-membership update, vs domain size. *)

type e18_row = {
  ls_routers : int;
  sync_messages : int;
  update_messages : int;
  update_latency : float;
  eccentricity : int;
}

val e18_flooding_cost : ?sizes:int list -> ?seed:int64 -> unit -> e18_row list

(** {1 E19 — asynchronous BGP dynamics}

    What injecting a new (anycast) prefix actually costs on the wire:
    update messages, transient best-route churn, and time to
    quiescence, as a function of the MRAI rate limit. The converged
    state is proven identical to the synchronous engine's by the
    test-suite. *)

type e19_row = {
  mrai : float;
  boot_updates : int;
  boot_time : float;
  anycast_updates : int;
  anycast_time : float;
  churn : int;
}

val e19_mrai_sweep :
  ?params:Topology.Internet.params -> ?mrais:float list -> unit -> e19_row list

(** {1 E20 — anycast as a resilience mechanism}

    RFC 1546's original use case (and the root-DNS deployment the
    paper cites): with anycast, the service survives member loss as
    long as any member is left, while a single-address service dies
    with its host. This is also why universal access is robust during
    evolution. *)

type e20_row = {
  dead_members : int;
  anycast_delivery : float;
  unicast_delivery : float;
}

val e20_anycast_resilience :
  ?params:Topology.Internet.params ->
  ?deploy_domains:int ->
  ?kill_steps:int list ->
  unit ->
  e20_row list

(** {1 E21 — behaviour and cost vs internet size}

    Sanity that the reproduction's claims are not an artifact of one
    scale: delivery and stretch stay put while the internet grows, and
    simulation cost grows politely. *)

type e21_row = {
  domains21 : int;
  routers21 : int;
  bgp_rounds : int;
  mean_stretch21 : float;
  delivery21 : float;
  total_rib : int;
      (** summed per-domain RIB entries — a deterministic cost measure
          (wall-clock timing lives in bench/, never in experiment rows) *)
}

val e21_size_scaling : ?transit_counts:int list -> unit -> e21_row list

(** {1 E22 — data-plane state: compiled FIB sizes}

    E5 counts BGP RIB prefixes; this is the line-card view: compiled
    longest-prefix-match tables per router, as concurrent IPvN
    generations accumulate under each inter-domain option. *)

type e22_row = {
  generations22 : int;
  opt1_mean_fib : float;
  opt1_max_fib : int;
  opt2_mean_fib : float;
  opt2_max_fib : int;
}

val e22_fib_scaling :
  ?params:Topology.Internet.params ->
  ?max_generations:int ->
  ?domains_per_generation:int ->
  unit ->
  e22_row list

(** {1 E23 — topology-model robustness}

    The headline claims (universal access, modest stretch, exposure
    reduction from BGPv(N-1)-aware egress) re-measured on a
    preferential-attachment internet with a heavy-tailed provider
    degree distribution, alongside the default transit-stub model. *)

type e23_row = {
  model : string;
  domains23 : int;
  delivery23 : float;
  stretch23 : float;
  exposure_drop : float;
}

val e23_topology_robustness : ?pairs:int -> unit -> e23_row list

(** {1 E24 — anycast flow stability under deployment churn}

    A limitation the paper leaves implicit: anycast may re-redirect a
    client mid-flow whenever deployment (or routing) changes, which
    breaks connection-oriented transports pinned to one IPvN ingress.
    We measure how often a client's ingress actually moves as
    deployment spreads — the price of seamlessness. *)

type e24_row = {
  stage : int;
  ingress_changed : float;
  cumulative_stability : float;
}

val e24_flow_stability :
  ?params:Topology.Internet.params -> ?stages:int -> unit -> e24_row list

(** {1 E25 — acting in concert}

    The paper's diagnosis of the impasse: "since they all have to act
    in concert, there is no competitive advantage". Without universal
    access, how many of the largest ISPs must deploy {e together}
    before the market tips? With it, one suffices. *)

type e25_row = {
  coalition : int;
  coalition_share : float;
  gated_final25 : float;
  ua_final25 : float;
}

val e25_coalition_sweep :
  ?seeds:int64 list -> ?coalitions:int list -> unit -> e25_row list

(** {1 E26 — the byte cost of evolution}

    Universal access rides on encapsulation and vN-Bone detours: both
    cost bytes. Using the wire format, the mean bytes-times-hops of
    evolved IPvN journeys vs native IPv4 delivery of the same flows,
    by payload size — small datagrams pay the headers, large ones the
    detours. *)

type e26_row = {
  payload_bytes : int;
  native_bytes : float;
  evolved_bytes : float;
  byte_overhead : float;
  header_share : float;
}

val e26_encapsulation_overhead :
  ?params:Topology.Internet.params ->
  ?deploy_fraction:float ->
  ?pairs:int ->
  ?payloads:int list ->
  unit ->
  e26_row list

(** {1 E27 — heterogeneous IGPs end to end}

    Footnote 2 made operational: some domains run unmodified
    distance-vector, so their IPvN routers cannot enumerate each other
    and their vN-Bone islands self-assemble by anycast walk instead of
    the LSDB rule. Universal access must not care; the vN-Bone pays a
    stretch penalty proportional to the DV share. *)

type e27_row = {
  dv_fraction : float;
  delivery27 : float;
  stretch27 : float;
  walk_domains : int;
  vn_stretch27 : float;
}

val e27_mixed_igp :
  ?params:Topology.Internet.params ->
  ?dv_fractions:float list ->
  ?deploy_domains:int ->
  unit ->
  e27_row list

(** {1 E28 — the cost of leaving}

    Evolution also means withdrawals: a participant ISP can stop
    offering IPvN. Retiring the route triggers BGP path hunting —
    routers flip to soon-to-die alternatives before conceding — so
    withdrawal churns more best-route changes than the original
    announcement. MRAI batching keeps most of those doomed flips off
    the wire, which the message columns show. *)

type e28_row = {
  mrai28 : float;
  announce_updates : int;
  announce_churn : int;
  withdraw_updates : int;
  withdraw_churn : int;
  hunt_ratio : float;
}

val e28_path_hunting :
  ?params:Topology.Internet.params -> ?mrais:float list -> unit -> e28_row list

(** {1 E29 — the data-plane cost of evolution}

    The architectural bill measured where it is paid: gravity-model
    flow batches pushed through compiled FIB snapshots with per-router
    flow caches ({!Dataplane.Pump}), native IPv4 vs the encapsulated
    IPvN journey, as deployment sweeps 0 to 100% under Option 1 and
    Option 2. Delivery, hop stretch (mean and p99) and wire-byte
    overhead all converge toward native as deployment completes. *)

type e29_row = {
  option29 : string;
  fraction29 : float;
  delivery29 : float;
  mean_stretch29 : float;
  p99_stretch29 : float;
  byte_overhead29 : float;
  cache_hit29 : float;
}

val e29_dataplane_cost :
  ?params:Topology.Internet.params ->
  ?fractions:float list ->
  ?flows:int ->
  unit ->
  e29_row list

(** {1 E30 — traffic during churn}

    FIB snapshots are not updated atomically: after a vN-Bone
    membership change the control plane moves on while line cards
    refresh in batches across a convergence window. Anycast probes
    injected every engine tick show the transient — packets still
    accepted by the ex-member (stale), dropped, or caught in
    mixed-table loops until every router runs the new snapshot. *)

type e30_row = {
  tick30 : int;
  phase30 : string;
  fresh30 : float;
  ok30 : float;
  stale30 : float;
  lost30 : float;
  looped30 : float;
}

val e30_churn_traffic :
  ?params:Topology.Internet.params ->
  ?deploy_domains:int ->
  ?probes:int ->
  ?ticks:int ->
  ?churn_tick:int ->
  ?window:int ->
  unit ->
  e30_row list
(** Routers pick up the change in [window] (default 4) ticks.
    @raise Invalid_argument when [window] is not positive. *)

(** {1 E31 — control-plane convergence under faults}

    The distributed protocols only earn the paper's resilience claims
    (§2.2 "naturally lends itself to fault tolerance", §3.3 "easily
    detected and repaired") if they reconverge to the correct state
    after running over an unreliable fabric. Each scenario runs
    {!Simcore.Bgpdyn} (keepalive/hold sessions) or {!Simcore.Lsproto}
    (acked flooding with retransmit backoff) under message loss, extra
    delay and router crash/restart from {!Simcore.Faults}, ceases
    injection, drains the engine, and checks the final state against
    the centralized oracle ({!Interdomain.Bgp} / {!Routing.Linkstate}),
    counting the robustness overhead spent to get there. *)

type e31_row = {
  proto31 : string;  (** "bgp" | "ls" *)
  loss31 : float;  (** per-message drop probability while injecting *)
  crashed31 : int;  (** nodes crashed and restarted mid-run *)
  msgs31 : int;  (** protocol messages (updates / LSA transmissions) *)
  overhead31 : int;  (** robustness tax: keepalives+resets / acks+retx *)
  settle31 : float;  (** engine time from fault cease to last change *)
  agrees31 : bool;  (** final state equals the centralized oracle *)
}

val e31_fault_convergence :
  ?params:Topology.Internet.params ->
  ?losses:float list ->
  ?crash_loss:float ->
  ?crash_frac:float ->
  unit ->
  e31_row list

(** {1 E32 — traffic delivery while links flap}

    E30's accounting, under link failures instead of membership churn:
    anycast probes pumped every tick over compiled FIB snapshots while
    scripted flaps take links on live probe paths down and back up.
    With recovery off the stale FIBs keep forwarding into the dead
    link for the whole outage; with recovery on the control plane
    reroutes on detection and line cards install the detour in batches
    across a refresh window. *)

type e32_row = {
  tick32 : int;
  recovery32 : bool;  (** control plane reroutes around the down links *)
  phase32 : string;  (** steady | flapping | healing | recovered *)
  ok32 : float;  (** probes accepted by a current member *)
  stale32 : float;  (** probes accepted elsewhere *)
  lost32 : float;  (** dropped: link down / no route / stuck *)
  looped32 : float;  (** TTL expiry *)
}

val e32_flap_traffic :
  ?params:Topology.Internet.params ->
  ?deploy_domains:int ->
  ?probes:int ->
  ?ticks:int ->
  ?flap_links:int ->
  unit ->
  e32_row list

(** {1 E33 — shard-count invariance of the multicore data plane}

    The determinism claim behind DESIGN.md §11: shard the packet pump
    across OCaml 5 domains ({!Multicore.Domainpool}) and the delivery
    verdicts must not move. One gravity-model batch is forwarded to a
    terminal verdict at every shard count on the same seed; everything
    order-dependent is shard-private and everything shared is
    read-only or commutative, so packets, bytes, delivered, dropped
    and TTL-expired counts are byte-identical from one shard to
    eight. Crossings counts the ring handoffs — the work parallelism
    adds — and is itself deterministic because the shard map is fixed
    by router id, not by load. *)

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

val e33_shard_invariance :
  ?params:Topology.Internet.params ->
  ?shard_counts:int list ->
  ?flows:int ->
  ?packets_per_flow:int ->
  unit ->
  e33_row list

(** {1 E34 — incident-drill catalog sweep}

    ROADMAP item 4 made replayable: every {!Ops.Drillbook.catalog}
    scenario (regional blackout, provider de-peering, prefix hijack,
    flapping provider) is replayed at increasing fault intensity and
    graded by {!Ops.Slo} — recovery metrics as data instead of
    anecdote. At intensity 1 every catalog drill must meet its
    declared SLO budgets (asserted in the test-suite); higher
    intensity shows where the §2.2/§3.3 resilience story starts to
    fray. *)

type e34_row = {
  drill34 : string;
  intensity34 : float;
  detection34 : float option;  (** seconds from onset; [None]: never *)
  reconverge34 : float option;
  blackhole34 : float;  (** lost-probe seconds over the drill *)
  stale34 : float;
  pass34 : bool;  (** the book's SLO budgets all held *)
}

val e34_drill_catalog :
  ?params:Topology.Internet.params ->
  ?intensities:float list ->
  unit ->
  e34_row list

(** {1 E35 — hijack containment vs deployment level}

    The flip side of §3.2's Option-1 anycast: any domain can originate
    the IPvN anycast prefix, including a rogue one. Containment is
    structural — the more domains deploy (originate), the shorter the
    honest AS paths and the less traffic the rogue attracts. The
    prefix-hijack drill is replayed at increasing deployment levels;
    delivery-to-rogue must fall as deployment grows (asserted on the
    sweep's endpoints in the test-suite). *)

type e35_row = {
  deploy35 : int;  (** deployed domains during the hijack *)
  hijacked_peak35 : float;  (** worst single-tick delivery-to-rogue *)
  hijacked_mean35 : float;  (** mean over the fault window *)
  ok_fault35 : float;  (** mean on-target delivery during the fault *)
  reconverge35 : float option;
}

val e35_hijack_containment :
  ?params:Topology.Internet.params ->
  ?levels:int list ->
  unit ->
  e35_row list

(** {1 E36 — overload response of the finite-queue data plane}

    Overload hardening made measurable (DESIGN.md §13): every link
    carries a finite {!Dataplane.Linkq} — the §3.3.2 indirection tax
    ("the cost of this indirection is processing ... and increased
    latency") turned into queueing delay and loss — and offered load
    sweeps from idle to several times the drain rate. Goodput rises to
    saturation then plateaus while queueing delay and deliberate
    shedding absorb the excess: graceful degradation, not a cliff.
    Control probes injected at the peak of every tick's crowd ride the
    [control_reserve] and must keep flowing — control is never shed
    before data. The delivered fraction is monotonically non-increasing
    in offered load and no queue ever exceeds its configured depth
    (both asserted in the test-suite). *)

type e36_row = {
  load36 : int;  (** offered data packets per tick *)
  offered36 : int;  (** packets offered over the run, data + control *)
  goodput36 : int;  (** data packets delivered *)
  goodput_frac36 : float;  (** goodput over offered data *)
  ctrl_ok36 : float;  (** control delivery fraction (the reserve at work) *)
  qdrop36 : int;  (** droptail losses at full queues *)
  shed36 : int;  (** class-precedence sheds of data packets *)
  delay36 : float;  (** mean queueing delay of admitted packets, ticks *)
  queued_hw36 : int;  (** max bytes any one queue ever held *)
  bounded36 : bool;  (** [queued_hw36 <= depth] — memory stays finite *)
}

val e36_overload_response :
  ?params:Topology.Internet.params ->
  ?loads:int list ->
  ?ticks:int ->
  ?probes:int ->
  ?rate:int ->
  ?depth:int ->
  ?reserve:int ->
  unit ->
  e36_row list

(** {1 E37 — shard crash, supervised restart, zero verdict divergence}

    The supervision half of DESIGN.md §13: a worker of the sharded
    data plane ({!Multicore.Domainpool}) crashes deterministically
    mid-batch, between flowlets; the supervisor detects the published
    dead flag, revives the shard and the batch drains to completion.
    The only state a crash loses is the victim's flow caches, which
    rebuild warm from the shared immutable FIB snapshots — so the
    delivery verdicts (packets, bytes, delivered, dropped, TTL) are
    byte-identical to a never-crashed run at every shard count, and
    nothing is shed on the way (both asserted in the test-suite). *)

type e37_row = {
  shards37 : int;
  restarts37 : int;  (** supervisor revives (>= 1 when a crash fired) *)
  rounds37 : int;  (** cooperative rounds to drain the batch *)
  delivered37 : int;
  dropped37 : int;
  ttl37 : int;
  shed37 : int;  (** must be 0: a restart loses no traffic *)
  identical37 : bool;  (** verdicts equal the never-crashed baseline *)
}

val e37_crash_recovery :
  ?params:Topology.Internet.params ->
  ?shard_counts:int list ->
  ?flows:int ->
  ?packets_per_flow:int ->
  ?crash_after:int ->
  unit ->
  e37_row list

(** {1 Registry} *)

type entry = {
  id : string;  (** ["e1"] .. ["e37"]; the [evolvenet exp] operand *)
  title : string;  (** RESULTS.md heading text after ["EN — "] *)
  header : string list;  (** column names *)
  run : Topology.Internet.params -> string list list;
      (** formatted cells, one list per row. E6, E8, E13, E15, E18,
          E21, E23 and E25 ignore the params: they fix their own
          topologies or seeds. E34 and E35 keep their drill books'
          seeds. *)
}

val heading : entry -> string
(** ["EN — title"]: the report's section heading and the [exp]
    output's underlined title. *)

val registry : entry list
(** Every experiment, in order. [Report.generate] renders each with
    [run Topology.Internet.default_params]. *)
