module Internet = Topology.Internet
module Rng = Topology.Rng
module Graph = Topology.Graph
module Relationship = Topology.Relationship
module Bgp = Interdomain.Bgp
module Forward = Simcore.Forward
module Engine = Simcore.Engine
module Faults = Simcore.Faults
module Bgpdyn = Simcore.Bgpdyn
module Lsproto = Simcore.Lsproto
module Fib = Simcore.Fib
module Service = Anycast.Service
module Policy = Anycast.Policy
module Fabric = Vnbone.Fabric
module Bgpvn = Vnbone.Bgpvn
module Pump = Dataplane.Pump
module Rollout = Dataplane.Rollout
module Linkq = Dataplane.Linkq
module Telemetry = Dataplane.Telemetry
module Workload = Dataplane.Workload
module Domainpool = Multicore.Domainpool

type tick_row = {
  tick : int;
  time : float;
  phase : string;
  ok : float;
  stale : float;
  hijacked : float;
  lost : float;
  looped : float;
}

(* Per-kind state for the overload drills (DESIGN.md §13): the flash
   crowd floods finite link queues under the serial pump; the slow
   consumer starves one shard of a cooperative domain pool. *)
type overload =
  | Flash of { lq : Linkq.t; burst : int; mutable seq : int }
  | Slow of {
      pool : Domainpool.t;
      wl : Workload.t;
      victim : int;
      slowdown : int;
      flows : int;
    }

type drop_reasons = {
  queue_full : int;
  shed_native : int;
  shed_encap : int;
  shed_control : int;
  fabric : int;
}

type run = {
  book : Drillbook.t;
  inet : Internet.t;
  env : Forward.env;
  service : Service.t;
  pump : Pump.t;
  engine : Engine.t;
  link_faults : Faults.t;  (* node ids = router ids *)
  session_faults : Faults.t;  (* node ids = domain ids, fifo *)
  bgpdyn : Bgpdyn.t;
  lsprotos : (int * Lsproto.t) list;  (* one per deployed domain *)
  mutable fabric : Fabric.t;
  mutable bgpvn : Bgpvn.t;
  mutable fib : Fib.t option;  (* lazily compiled for the looking glass *)
  probe_hosts : int list;
  victims : (int * int * float) list;  (* blackout link cuts *)
  crashed : int list;  (* blackout member crashes *)
  rogue : int option;  (* hijack originator domain *)
  victim_domain : int option;  (* depeer / flap victim stub *)
  depeered : int option;  (* the provider the victim lost *)
  deployed : int list;
  overload : overload option;
  horizon : float;
  rollout : Rollout.t;  (* line cards' staged pickup of control-plane changes *)
  mutable detected_at : float option;
  mutable rows_rev : tick_row list;
  mutable events_rev : (float * string) list;
}

let book r = r.book
let internet r = r.inet
let env r = r.env
let now r = Engine.now r.engine
let pump r = r.pump
let link_faults r = r.link_faults
let session_faults r = r.session_faults
let bgpdyn r = r.bgpdyn
let lsprotos r = r.lsprotos
let fabric r = r.fabric
let deployed r = r.deployed
let detected_at r = r.detected_at
let rows r = List.rev r.rows_rev
let events r = List.rev r.events_rev
let group r = Service.group r.service

let close r =
  match r.overload with Some (Slow s) -> Domainpool.close s.pool | _ -> ()

(* Where every lost packet went, for [evolvenet drill --report]: tail
   drops at full link queues, per-class deliberate sheds (link-queue
   precedence plus shard-spill backpressure), and control-plane
   messages the fault fabrics killed. *)
let drop_reasons r =
  let tels =
    Pump.telemetry r.pump
    :: (match r.overload with Some (Slow s) -> [ Domainpool.telemetry s.pool ] | _ -> [])
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tels in
  let shed_of c = sum (fun t -> (Telemetry.cls t c).Telemetry.shed) in
  let lf = Faults.stats r.link_faults and sf = Faults.stats r.session_faults in
  {
    queue_full = sum (fun t -> (Telemetry.total t).Telemetry.queue_dropped);
    shed_native = shed_of Telemetry.Native;
    shed_encap = shed_of Telemetry.Encap;
    shed_control = shed_of Telemetry.Control;
    fabric =
      lf.Faults.lost + lf.Faults.cut + lf.Faults.dead + lf.Faults.shed
      + sf.Faults.lost + sf.Faults.cut + sf.Faults.dead + sf.Faults.shed;
  }

let fib r =
  match r.fib with
  | Some f -> f
  | None ->
      let f = Fib.compile r.env in
      r.fib <- Some f;
      f

let mark_dirty r =
  Rollout.restart r.rollout;
  r.fib <- None

let event r fmt =
  Printf.ksprintf
    (fun msg -> r.events_rev <- (Engine.now r.engine, msg) :: r.events_rev)
    fmt

(* the incident is over once the restore playbook has run, not at the
   scripted fault end — the operator's repair lags by detection_delay *)
let restore_time b =
  match b.Drillbook.kind with
  | Drillbook.Hijack _ -> b.Drillbook.fault_until
  | _ when b.Drillbook.recovery ->
      b.Drillbook.fault_until +. b.Drillbook.detection_delay
  | _ -> b.Drillbook.fault_until

let phase_at r t =
  if t < r.book.Drillbook.fault_at then "steady"
  else if t < restore_time r.book then "fault"
  else if not (Rollout.finished r.rollout) then "healing"
  else "recovered"

let phase r = phase_at r (Engine.now r.engine)

let victim_domains r =
  List.sort_uniq Int.compare
    (List.map
       (fun (a, _, _) -> (Internet.router r.inet a).Internet.rdomain)
       r.victims)

let repair_vnbone r =
  let alive = Faults.node_up r.link_faults in
  ignore (Fabric.probe_tunnels r.fabric ~alive);
  ignore (Fabric.reanchor r.fabric ~alive);
  Bgpvn.fail_members r.bgpvn ~alive;
  ignore (Bgpvn.converge r.bgpvn)

let rebuild_vnbone r =
  r.fabric <- Fabric.build r.service;
  r.bgpvn <- Bgpvn.create r.fabric;
  ignore (Bgpvn.converge r.bgpvn)

(* ------------------------------------------------------------------ *)
(* The per-tick probe round                                            *)

let in_fault_window r t =
  t >= r.book.Drillbook.fault_at && t < r.book.Drillbook.fault_until

(* the flash crowd: [burst] data packets from rotating sources swamp
   the finite link queues; their verdicts land in pump telemetry
   (queue drops, class sheds), not in the probe rows *)
let burst_payload = String.make 600 'f'

let flood r ~burst ~seq =
  let n = List.length r.probe_hosts in
  let addr = Service.address r.service in
  for k = 0 to burst - 1 do
    let h = List.nth r.probe_hosts ((seq + k) mod n) in
    let hh = Internet.endhost r.inet h in
    let p =
      Netcore.Packet.make_data ~src:hh.Internet.haddr ~dst:addr burst_payload
    in
    ignore (Pump.inject r.pump p ~entry:hh.Internet.access_router)
  done

(* detection for the overload kinds is by monitoring the overload
   counters themselves, not a scheduled operator event *)
let detect_overload r t_now fmt =
  Printf.ksprintf
    (fun msg ->
      if Option.is_none r.detected_at then begin
        r.detected_at <- Some t_now;
        event r "%s" msg
      end)
    fmt

(* One slow-consumer tick: run this tick's flows through the pool
   under the deterministic cooperative driver, starving the victim
   shard during the fault window; the row's fractions come from the
   pool's telemetry deltas instead of probe traces. *)
let tick_slow r i t_now ~pool ~wl ~victim ~slowdown ~flows =
  let batch = Workload.batch wl ~count:flows in
  let total = Workload.total_packets batch in
  let before = Telemetry.total (Domainpool.telemetry pool) in
  let d0 = before.Telemetry.delivered in
  let t0 = before.Telemetry.ttl_expired in
  let shed0 = Domainpool.shed pool in
  let slow = if in_fault_window r t_now then Some (victim, slowdown) else None in
  ignore (Domainpool.run_cooperative ?slow pool batch : int);
  let after = Telemetry.total (Domainpool.telemetry pool) in
  let delivered = after.Telemetry.delivered - d0 in
  let looped = after.Telemetry.ttl_expired - t0 in
  let shed_d = Domainpool.shed pool - shed0 in
  if shed_d > 0 then
    detect_overload r t_now
      "backpressure detected: shard %d starved, %d packet(s) shed (spill \
       high-water %d)"
      victim shed_d
      (Domainpool.overflow_high_water pool);
  let tf = float_of_int total in
  let ok = float_of_int delivered /. tf in
  let looped = float_of_int looped /. tf in
  r.rows_rev <-
    {
      tick = i;
      time = t_now;
      phase = phase_at r t_now;
      ok;
      stale = 0.0;
      hijacked = 0.0;
      lost = Float.max 0.0 (1.0 -. ok -. looped);
      looped;
    }
    :: r.rows_rev

let tick r i eng =
  let t_now = Engine.now eng in
  (* line cards pick up control-plane changes in batches across a
     refresh window, as in E32 *)
  Rollout.step r.rollout r.pump;
  match r.overload with
  | Some (Slow { pool; wl; victim; slowdown; flows }) ->
      tick_slow r i t_now ~pool ~wl ~victim ~slowdown ~flows
  | (Some (Flash _) | None) as ov ->
  let probe_cls =
    match ov with
    | Some (Flash f) ->
        if in_fault_window r t_now then begin
          flood r ~burst:f.burst ~seq:f.seq;
          f.seq <- f.seq + f.burst
        end;
        (* operational probes are control traffic: the link queues'
           reserve gives them drop precedence over the crowd *)
        Some Telemetry.Control
    | _ -> None
  in
  let members = Service.members r.service in
  let addr = Service.address r.service in
  let ok = ref 0 and stale = ref 0 and hij = ref 0 in
  let lost = ref 0 and looped = ref 0 in
  List.iter
    (fun h ->
      let hh = Internet.endhost r.inet h in
      let p =
        Netcore.Packet.make_data ~src:hh.Internet.haddr ~dst:addr "probe"
      in
      let tr = Pump.inject ?cls:probe_cls r.pump p ~entry:hh.Internet.access_router in
      let ended_in_rogue =
        match r.rogue with
        | Some rg -> (
            match List.rev tr.Forward.hops with
            | last :: _ -> (Internet.router r.inet last).Internet.rdomain = rg
            | [] -> false)
        | None -> false
      in
      match tr.Forward.outcome with
      | Forward.Router_accepted rr ->
          if ended_in_rogue then incr hij
          else if List.mem rr members && Faults.node_up r.link_faults rr then
            incr ok
          else incr stale
      | Forward.Endhost_accepted _ ->
          if ended_in_rogue then incr hij else incr stale
      | Forward.Dropped Forward.Ttl_expired -> incr looped
      | Forward.Dropped _ -> if ended_in_rogue then incr hij else incr lost)
    r.probe_hosts;
  (* a hijack is detected by monitoring the probe stream itself *)
  if !hij > 0 && Option.is_none r.detected_at then
    r.detected_at <- Some t_now;
  let total = float_of_int (List.length r.probe_hosts) in
  let frac c = float_of_int !c /. total in
  let phase = phase_at r t_now in
  r.rows_rev <-
    {
      tick = i;
      time = t_now;
      phase;
      ok = frac ok;
      stale = frac stale;
      hijacked = frac hij;
      lost = frac lost;
      looped = frac looped;
    }
    :: r.rows_rev;
  match ov with
  | Some (Flash f) ->
      (* serve the queues once per tick, then detect overload from the
         pump's own counters *)
      Linkq.tick f.lq;
      let tot = Telemetry.total (Pump.telemetry r.pump) in
      let drops = tot.Telemetry.queue_dropped + tot.Telemetry.shed in
      if drops > 0 then
        detect_overload r t_now
          "flash crowd detected: %d queue drop(s), %d shed"
          tot.Telemetry.queue_dropped tot.Telemetry.shed
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Fault script + operator playbook                                    *)

let arm r =
  let b = r.book in
  let at = b.Drillbook.fault_at and until = b.Drillbook.fault_until in
  let detect_time = at +. b.Drillbook.detection_delay in
  let restore_time = until +. b.Drillbook.detection_delay in
  let g = r.inet.Internet.graph in
  (match b.Drillbook.kind with
  | Drillbook.Flash_crowd _ | Drillbook.Slow_consumer _ ->
      (* the overload kinds inject demand inside the tick itself and
         detect from the overload counters — no fault-fabric script *)
      ()
  | Drillbook.Blackout _ ->
      List.iter
        (fun (a, b', _) ->
          Faults.flap_link r.link_faults r.engine ~a ~b:b' ~down_at:at
            ~up_at:until)
        r.victims;
      List.iter
        (fun n ->
          Faults.schedule_outage r.link_faults r.engine ~node:n ~at
            ~duration:(until -. at))
        r.crashed;
      if b.Drillbook.recovery then begin
        Engine.schedule_at r.engine ~time:detect_time (fun eng ->
            r.detected_at <- Some (Engine.now eng);
            event r
              "blackout detected: rerouting around %d link(s), withdrawing %d \
               member(s)"
              (List.length r.victims) (List.length r.crashed);
            List.iter (fun m -> Service.remove_member r.service ~router:m)
              r.crashed;
            List.iter (fun (a, b', _) -> Graph.remove_edge g a b') r.victims;
            List.iter
              (fun (a, b', _) ->
                let d = (Internet.router r.inet a).Internet.rdomain in
                match List.assoc_opt d r.lsprotos with
                | Some ls -> Lsproto.link_failed ls eng a b'
                | None -> ())
              r.victims;
            Forward.recompute_igps r.env ~domains:(victim_domains r);
            repair_vnbone r;
            mark_dirty r);
        Engine.schedule_at r.engine ~time:restore_time (fun eng ->
            event r "blackout over: links restored, members re-enrolled";
            List.iter (fun (a, b', w) -> Graph.add_edge g a b' w) r.victims;
            List.iter
              (fun (a, b', _) ->
                let d = (Internet.router r.inet a).Internet.rdomain in
                match List.assoc_opt d r.lsprotos with
                | Some ls -> Lsproto.link_restored ls eng a b'
                | None -> ())
              r.victims;
            List.iter (fun m -> Service.add_member r.service ~router:m)
              r.crashed;
            Forward.recompute_igps r.env ~domains:(victim_domains r);
            rebuild_vnbone r;
            mark_dirty r)
      end
  | Drillbook.Depeer _ -> (
      match (r.victim_domain, r.depeered) with
      | Some v, Some p ->
          Faults.flap_link r.session_faults r.engine ~a:v ~b:p ~down_at:at
            ~up_at:until;
          List.iter
            (fun il ->
              Faults.flap_link r.link_faults r.engine ~a:il.Internet.a_router
                ~b:il.Internet.b_router ~down_at:at ~up_at:until)
            (Internet.interlinks_between r.inet v p)
      | _ -> ())
  | Drillbook.Provider_flap { cycles; period; down_for; _ } -> (
      match (r.victim_domain, r.depeered) with
      | Some v, Some p ->
          Faults.schedule_flap_train r.session_faults r.engine ~a:v ~b:p
            ~start:at ~cycles ~period ~down_for;
          List.iter
            (fun il ->
              Faults.schedule_flap_train r.link_faults r.engine
                ~a:il.Internet.a_router ~b:il.Internet.b_router ~start:at
                ~cycles ~period ~down_for)
            (Internet.interlinks_between r.inet v p)
      | _ -> ())
  | Drillbook.Hijack _ -> (
      match r.rogue with
      | Some rg ->
          Engine.schedule_at r.engine ~time:at (fun eng ->
              event r "rogue domain %d originates the anycast prefix %s" rg
                (Netcore.Prefix.to_string (group r));
              Bgp.originate r.env.Forward.bgp ~domain:rg (group r);
              ignore (Forward.reconverge r.env);
              Bgpdyn.originate r.bgpdyn eng ~domain:rg (group r);
              mark_dirty r);
          Engine.schedule_at r.engine ~time:until (fun eng ->
              event r "rogue origin withdrawn; routes converge back";
              Bgp.withdraw_origin r.env.Forward.bgp ~domain:rg (group r);
              ignore (Forward.reconverge r.env);
              Bgpdyn.withdraw r.bgpdyn eng ~domain:rg (group r);
              mark_dirty r)
      | None -> ()));
  (* session-teardown playbook: withdraw the cut-off origin so the rest
     of the internet reroutes to the surviving members, reinstate it
     once the session is back (manual flap dampening for the flap
     drill) *)
  (match b.Drillbook.kind with
  | Drillbook.Depeer _ | Drillbook.Provider_flap _
    when b.Drillbook.recovery -> (
      match r.victim_domain with
      | Some v ->
          Engine.schedule_at r.engine ~time:detect_time (fun _ ->
              r.detected_at <- Some detect_time;
              event r
                "session loss detected: withdrawing domain %d's anycast origin"
                v;
              Bgp.withdraw_origin r.env.Forward.bgp ~domain:v (group r);
              ignore (Forward.reconverge r.env);
              mark_dirty r);
          Engine.schedule_at r.engine ~time:restore_time (fun _ ->
              event r "session restored: re-originating at domain %d" v;
              Bgp.originate r.env.Forward.bgp ~domain:v (group r);
              ignore (Forward.reconverge r.env);
              mark_dirty r)
      | None -> ())
  | _ -> ());
  for i = 1 to b.Drillbook.ticks do
    Engine.schedule_at r.engine ~time:(float_of_int i) (fun eng ->
        tick r i eng)
  done

(* ------------------------------------------------------------------ *)
(* Preparation                                                         *)

let prepare ?params (b : Drillbook.t) =
  let params =
    match params with
    | Some p -> { p with Internet.seed = b.Drillbook.seed }
    | None ->
        {
          Internet.default_params with
          Internet.transit_domains = b.Drillbook.transit;
          stubs_per_transit = b.Drillbook.stubs;
          seed = b.Drillbook.seed;
        }
  in
  let inet = Internet.build params in
  let policy = Policy.create () in
  let env = Forward.make_env ~config:(Policy.bgp_config policy) inet in
  let service = Service.deploy env ~version:8 ~strategy:Service.Option1 in
  let rng = Rng.create (Int64.add b.Drillbook.seed 7200L) in
  let stubs =
    Array.to_list inet.Internet.domains
    |> List.filter_map (fun d ->
           if d.Internet.is_transit then None else Some d.Internet.did)
  in
  let deployed =
    Rng.sample rng (min b.Drillbook.deploy_domains (List.length stubs)) stubs
    |> List.sort Int.compare
  in
  Service.add_participants service
    (List.map
       (fun d ->
         (d, Array.to_list (Internet.domain inet d).Internet.router_ids))
       deployed);
  let non_deployed =
    List.filter (fun d -> not (List.mem d deployed)) stubs
  in
  let rogue =
    match b.Drillbook.kind with
    | Drillbook.Hijack { rogue_rank } -> (
        match non_deployed with
        | [] -> None
        | l -> Some (List.nth l (rogue_rank mod List.length l)))
    | _ -> None
  in
  let victim_domain =
    match b.Drillbook.kind with
    | Drillbook.Depeer { stub_rank }
    | Drillbook.Provider_flap { stub_rank; _ } -> (
        match deployed with
        | [] -> None
        | l -> Some (List.nth l (stub_rank mod List.length l)))
    | _ -> None
  in
  let depeered =
    match victim_domain with
    | None -> None
    | Some v ->
        Internet.neighbor_domains inet v
        |> List.filter (fun (_, rel) ->
               Relationship.equal rel Relationship.Provider)
        |> List.map fst |> List.sort Int.compare
        |> fun l -> (match l with [] -> None | p :: _ -> Some p)
  in
  let probe_hosts =
    Rng.sample rng b.Drillbook.probes
      (Array.to_list inet.Internet.endhosts
      |> List.map (fun h -> h.Internet.hid))
  in
  let pump = Pump.create env in
  let engine = Engine.create () in
  let lossy_policy =
    if b.Drillbook.loss > 0.0 || b.Drillbook.jitter > 0.0 then
      Faults.lossy ~jitter:b.Drillbook.jitter b.Drillbook.loss
    else Faults.reliable
  in
  let link_faults =
    Faults.create
      ~policy:(fun ~src:_ ~dst:_ -> lossy_policy)
      (Int64.add b.Drillbook.seed 7201L)
  in
  let session_faults =
    Faults.create
      ~policy:(fun ~src:_ ~dst:_ -> lossy_policy)
      ~fifo:true
      (Int64.add b.Drillbook.seed 7202L)
  in
  Pump.set_link_filter pump (Faults.link_up link_faults);
  let horizon = float_of_int b.Drillbook.ticks +. 1.0 in
  let bgpdyn =
    Bgpdyn.create ~config:(Policy.bgp_config policy) ~faults:session_faults
      ~jitter:0.1 inet
  in
  Bgpdyn.originate_all_domain_prefixes bgpdyn engine;
  let grp = Service.group service in
  List.iter (fun d -> Bgpdyn.originate bgpdyn engine ~domain:d grp) deployed;
  Bgpdyn.enable_timers bgpdyn engine ~until:horizon;
  let lsprotos =
    List.map
      (fun d ->
        let ls = Lsproto.create ~faults:link_faults inet ~domain:d in
        Lsproto.start ls engine;
        List.iter
          (fun m -> Lsproto.advertise_anycast ls engine ~router:m grp)
          (Service.members_in service ~domain:d);
        (d, ls))
      deployed
  in
  let fabric = Fabric.build service in
  let bgpvn = Bgpvn.create fabric in
  ignore (Bgpvn.converge bgpvn);
  (* scout which deployed-domain intra links probe traffic actually
     crosses, so a blackout hits live paths (as E32 does) *)
  let victims, crashed =
    match b.Drillbook.kind with
    | Drillbook.Blackout { links; routers_down } ->
        let addr = Service.address service in
        (* with every router of a deployed domain a member, probes
           terminate at the border member they first reach, so live
           paths have no intra-domain hops to cut; the blackout instead
           takes out the local adjacency of the on-path routers in the
           region — the links the reroute and the repair depend on *)
        let seen = Hashtbl.create 64 in
        let acceptors = ref [] in
        List.iter
          (fun h ->
            let hh = Internet.endhost inet h in
            let p =
              Netcore.Packet.make_data ~src:hh.Internet.haddr ~dst:addr
                "scout"
            in
            let tr = Pump.inject pump p ~entry:hh.Internet.access_router in
            (match tr.Forward.outcome with
            | Forward.Router_accepted rr -> acceptors := rr :: !acceptors
            | _ -> ());
            List.iter
              (fun a ->
                let da = (Internet.router inet a).Internet.rdomain in
                if List.mem da deployed then
                  List.iter
                    (fun (nb, _) ->
                      if (Internet.router inet nb).Internet.rdomain = da then
                        Hashtbl.replace seen (min a nb, max a nb) ())
                    (Graph.neighbors inet.Internet.graph a))
              tr.Forward.hops)
          probe_hosts;
        let candidates =
          Hashtbl.fold (fun k () acc -> k :: acc) seen []
          |> List.sort (fun (a1, b1) (a2, b2) ->
                 match Int.compare a1 a2 with
                 | 0 -> Int.compare b1 b2
                 | c -> c)
        in
        let victims =
          Rng.sample rng (min links (List.length candidates)) candidates
          |> List.filter_map (fun (a, b') ->
                 Graph.edge_weight inet.Internet.graph a b'
                 |> Option.map (fun w -> (a, b', w)))
        in
        let focus =
          match victims with
          | (a, _, _) :: _ -> (Internet.router inet a).Internet.rdomain
          | [] -> ( match deployed with d :: _ -> d | [] -> 0)
        in
        (* crash members that actually accept probe traffic, so the
           blackout bites delivery until the playbook reroutes it *)
        let pool_all = Service.members_in service ~domain:focus in
        let pool =
          match
            List.sort_uniq Int.compare !acceptors
            |> List.filter (fun rr ->
                   (Internet.router inet rr).Internet.rdomain = focus)
          with
          | [] -> pool_all
          | hit -> hit
        in
        (* never crash the whole region: keep at least one member *)
        let n_crash =
          min routers_down
            (max 0 (min (List.length pool) (List.length pool_all - 1)))
        in
        (victims, Rng.sample rng n_crash pool)
    | _ -> ([], [])
  in
  let rollout =
    let arr = Array.init (Internet.num_routers inet) Fun.id in
    Rng.shuffle rng arr;
    Rollout.create ~order:arr ~window:3
  in
  let overload =
    match b.Drillbook.kind with
    | Drillbook.Flash_crowd { rate; depth; reserve; burst } ->
        let lq = Linkq.of_internet ~control_reserve:reserve ~rate ~depth inet in
        Pump.attach_linkq pump lq;
        Some (Flash { lq; burst; seq = 0 })
    | Drillbook.Slow_consumer { shards; victim; slowdown; spill_cap; flows } ->
        (* a tiny topology override may have fewer routers than the
           book's shard count — clamp, keeping the victim in range *)
        let shards = max 1 (min shards (Internet.num_routers inet)) in
        let pool =
          (* tight rings and paced injection (two fresh flows per pass)
             turn the tick's batch into a sustained arrival process, so
             starving the victim builds real backlog instead of one
             absorbable burst *)
          Domainpool.create ~ring_capacity:spill_cap ~spill_cap
            ~inject_per_pass:2 env ~shards
            ~seed:(Int64.add b.Drillbook.seed 7300L)
        in
        let wl =
          Workload.create inet Workload.Uniform
            ~seed:(Int64.add b.Drillbook.seed 7301L)
        in
        Some (Slow { pool; wl; victim = victim mod shards; slowdown; flows })
    | _ -> None
  in
  let r =
    {
      book = b;
      inet;
      env;
      service;
      pump;
      engine;
      link_faults;
      session_faults;
      bgpdyn;
      lsprotos;
      fabric;
      bgpvn;
      fib = None;
      probe_hosts;
      victims;
      crashed;
      rogue;
      victim_domain;
      depeered;
      deployed;
      overload;
      horizon;
      rollout;
      detected_at = None;
      rows_rev = [];
      events_rev = [];
    }
  in
  arm r;
  r

let run_until r ~time = ignore (Engine.run ~until:time r.engine)
let execute r = ignore (Engine.run r.engine)

let complete ?params b =
  let r = prepare ?params b in
  execute r;
  r

(* ------------------------------------------------------------------ *)
(* Transcript                                                          *)

let transcript r =
  let b = r.book in
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  p "drill %s (seed %Ld, %s)" b.Drillbook.name b.Drillbook.seed
    (Drillbook.kind_label b.Drillbook.kind);
  (* the counts that ran: [params] may replace the book's topology, and
     [prepare] clamps the deploy and probe counts to what it has *)
  let transit =
    Array.fold_left
      (fun n d -> if d.Internet.is_transit then n + 1 else n)
      0 r.inet.Internet.domains
  in
  (* stub domains per transit, as a book counts them *)
  let stubs = Array.length r.inet.Internet.domains - transit in
  p "  topology: %d transit x %d stubs; deploy %d domain(s); %d probes over \
     %d ticks"
    transit (stubs / max 1 transit) (List.length r.deployed)
    (List.length r.probe_hosts) b.Drillbook.ticks;
  p "  fault: [%.2f, %.2f]  loss %.3f  jitter %.3f  recovery %s (detection \
     delay %.2f)"
    b.Drillbook.fault_at b.Drillbook.fault_until b.Drillbook.loss
    b.Drillbook.jitter
    (if b.Drillbook.recovery then "on" else "off")
    b.Drillbook.detection_delay;
  p "  deployed domains: %s"
    (String.concat " " (List.map string_of_int r.deployed));
  (match r.victims with
  | [] -> ()
  | vs ->
      p "  victim links: %s"
        (String.concat " "
           (List.map (fun (a, b', _) -> Printf.sprintf "%d-%d" a b') vs)));
  (match r.crashed with
  | [] -> ()
  | cs ->
      p "  crashed members: %s" (String.concat " " (List.map string_of_int cs)));
  (match r.rogue with
  | Some rg -> p "  rogue domain: %d" rg
  | None -> ());
  (match (r.victim_domain, r.depeered) with
  | Some v, Some pr -> p "  victim domain %d, provider %d" v pr
  | _ -> ());
  p "events:";
  List.iter (fun (t, m) -> p "  t=%.2f %s" t m) (events r);
  p "ticks:";
  p "  %4s %6s %-10s %6s %6s %6s %6s %6s" "tick" "time" "phase" "ok" "stale"
    "hijack" "lost" "loop";
  List.iter
    (fun row ->
      p "  %4d %6.2f %-10s %6.3f %6.3f %6.3f %6.3f %6.3f" row.tick row.time
        row.phase row.ok row.stale row.hijacked row.lost row.looped)
    (rows r);
  (match r.overload with
  | None -> ()
  | Some _ ->
      let d = drop_reasons r in
      p
        "drops: queue-full %d  shed native %d encap %d control %d  \
         fault-fabric %d"
        d.queue_full d.shed_native d.shed_encap d.shed_control d.fabric);
  (match r.detected_at with
  | Some t -> p "detected at t=%.2f" t
  | None -> p "never detected");
  Buffer.contents buf
