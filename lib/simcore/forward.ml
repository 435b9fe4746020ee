module Internet = Topology.Internet
module Igp = Routing.Igp
module Bgp = Interdomain.Bgp
module Prefix = Netcore.Prefix
module Packet = Netcore.Packet
module Addressing = Netcore.Addressing
module Ipv4 = Netcore.Ipv4

type env = {
  inet : Internet.t;
  igps : Igp.t array;
  bgp : Bgp.t;
}

let make_env ?config ?(flavor_of = fun _ -> Igp.Linkstate_igp) inet =
  let igps =
    Array.init (Internet.num_domains inet) (fun d ->
        Igp.compute inet ~domain:d ~flavor:(flavor_of d))
  in
  let bgp = Bgp.create ?config inet in
  Bgp.originate_all_domain_prefixes bgp;
  ignore (Bgp.converge bgp);
  { inet; igps; bgp }

let reconverge env = Bgp.converge env.bgp

let recompute_igps env ~domains =
  List.iter
    (fun d ->
      let old = env.igps.(d) in
      let fresh = Igp.compute env.inet ~domain:d ~flavor:(Igp.flavor old) in
      List.iter
        (fun group ->
          match Igp.anycast_members old ~group with
          | Some ms ->
              List.iter
                (fun m -> Igp.advertise_anycast fresh ~group ~member:m)
                ms
          | None -> ())
        (Igp.groups old);
      env.igps.(d) <- fresh)
    domains

type drop_reason = Ttl_expired | No_route | Stuck | Link_down | Queue_full | Shed

type outcome =
  | Router_accepted of int
  | Endhost_accepted of int
  | Dropped of drop_reason

type trace = { hops : int list; outcome : outcome }

let hop_count t = max 0 (List.length t.hops - 1)

let delivered t =
  match t.outcome with
  | Router_accepted _ | Endhost_accepted _ -> true
  | Dropped _ -> false

(* One forwarding decision at router [r] for destination [dst]. *)
type decision =
  | Accept_router
  | Accept_endhost of int
  | Next of int
  | Drop_no_route

let matching_group igp dst =
  List.find_opt (fun g -> Prefix.mem dst g) (Igp.groups igp)

let intra_target env r dst =
  (* the router inside r's domain that [dst] resolves to *)
  let d = (Internet.router env.inet r).rdomain in
  if Addressing.is_router_address dst then
    match Internet.router_of_addr env.inet dst with
    | Some rt when rt.rdomain = d -> Some (`Router rt.rid)
    | _ -> None
  else if Addressing.is_endhost_address dst then
    match Internet.endhost_of_addr env.inet dst with
    | Some h when h.hdomain = d -> Some (`Endhost h)
    | _ -> None
  else None

let decide env r dst =
  let router = Internet.router env.inet r in
  let d = router.rdomain in
  let igp = env.igps.(d) in
  if Ipv4.equal dst router.raddr then Accept_router
  else
    (* 1. intra-domain anycast *)
    let anycast_decision =
      match matching_group igp dst with
      | None -> None
      | Some g -> (
          match Igp.anycast_route igp ~src:r ~group:g with
          | Some d when d.Igp.deliver -> Some Accept_router
          | Some d -> Some (Next d.Igp.next_hop)
          | None -> None (* no member here: fall through to unicast *))
    in
    match anycast_decision with
    | Some dec -> dec
    | None -> (
        let own_prefix = (Internet.domain env.inet d).prefix in
        if Prefix.mem dst own_prefix then
          (* 2. local unicast *)
          match intra_target env r dst with
          | Some (`Router target) ->
              if target = r then Accept_router
              else (
                match Igp.next_hop igp ~src:r ~dst:target with
                | Some nh -> Next nh
                | None -> Drop_no_route)
          | Some (`Endhost h) ->
              if h.Internet.access_router = r then Accept_endhost h.Internet.hid
              else (
                match Igp.next_hop igp ~src:r ~dst:h.Internet.access_router with
                | Some nh -> Next nh
                | None -> Drop_no_route)
          | None -> Drop_no_route
        else
          (* 3. inter-domain *)
          match Bgp.lookup env.bgp ~domain:d dst with
          | None -> Drop_no_route
          | Some route -> (
              match Bgp.egress_link env.bgp ~domain:d route.Bgp.prefix with
              | None -> Drop_no_route
              | Some link ->
                  if link.Internet.a_router = r then Next link.Internet.b_router
                  else (
                    match
                      Igp.next_hop igp ~src:r ~dst:link.Internet.a_router
                    with
                    | Some nh -> Next nh
                    | None -> Drop_no_route)))

let forward env packet ~entry =
  let dst = packet.Packet.dst in
  let rec go r ttl acc =
    let acc = r :: acc in
    match decide env r dst with
    | Accept_router -> { hops = List.rev acc; outcome = Router_accepted r }
    | Accept_endhost h -> { hops = List.rev acc; outcome = Endhost_accepted h }
    | Drop_no_route -> { hops = List.rev acc; outcome = Dropped No_route }
    | Next nh ->
        if ttl <= 1 then { hops = List.rev acc; outcome = Dropped Ttl_expired }
        else if nh = r then { hops = List.rev acc; outcome = Dropped Stuck }
        else go nh (ttl - 1) acc
  in
  go entry packet.Packet.ttl []

let send_from_endhost env packet ~endhost =
  let h = Internet.endhost env.inet endhost in
  forward env packet ~entry:h.Internet.access_router

let anycast_member_reached env ~dst ~entry =
  let probe = Packet.make_data ~src:Ipv4.any ~dst "probe" in
  match (forward env probe ~entry).outcome with
  | Router_accepted r -> Some r
  | Endhost_accepted _ | Dropped _ -> None

let path_metric env trace =
  let rec go = function
    | a :: (b :: _ as rest) ->
        (match Topology.Graph.edge_weight env.inet.Internet.graph a b with
        | Some w -> w
        | None -> 0.0)
        +. go rest
    | [ _ ] | [] -> 0.0
  in
  go trace.hops

(* --- one destination's forwarding tree, memoised --- *)

(* How the walk from a router ends, however long the TTL. *)
type ending =
  | Ends of outcome  (* accepted, or dropped for [No_route] *)
  | Stuck_at  (* the last router forwards to itself *)
  | Loops  (* the walk enters a forwarding loop *)

type tree = {
  tenv : env;
  tdst : Ipv4.t;
  steps : int array;  (* hops to the walk's end; [unknown] or [on_walk] *)
  sum : float array;  (* path_metric from the router to the end *)
  ending : ending array;
}

let unknown = -1
let on_walk = -2

let toward env dst =
  let n = Internet.num_routers env.inet in
  {
    tenv = env;
    tdst = dst;
    steps = Array.make n unknown;
    sum = Array.make n 0.0;
    ending = Array.make n Loops;
  }

(* Follow the walk from [r] until a router whose answer is known (or
   which is already on this walk: a loop), then fill the routers
   passed on the way in backwards, so each decides once. *)
let settle t r =
  let rec climb r path =
    if t.steps.(r) <> unknown then (r, path)
    else
      match decide t.tenv r t.tdst with
      | Next nh when nh <> r ->
          t.steps.(r) <- on_walk;
          climb nh (r :: path)
      | d ->
          t.steps.(r) <- 0;
          t.ending.(r) <-
            (match d with
            | Accept_router -> Ends (Router_accepted r)
            | Accept_endhost h -> Ends (Endhost_accepted h)
            | Drop_no_route -> Ends (Dropped No_route)
            | Next _ -> Stuck_at);
          (r, path)
  in
  let stop, path = climb r [] in
  if t.steps.(stop) = on_walk then
    List.iter
      (fun p ->
        t.steps.(p) <- 0;
        t.ending.(p) <- Loops)
      path
  else
    ignore
      (List.fold_left
         (fun nh p ->
           t.steps.(p) <- t.steps.(nh) + 1;
           let w =
             match Topology.Graph.edge_weight t.tenv.inet.Internet.graph p nh with
             | Some w -> w
             | None -> 0.0
           in
           (* w(p, nh) +. rest: path_metric's right fold, bit for bit *)
           t.sum.(p) <- w +. t.sum.(nh);
           t.ending.(p) <- t.ending.(nh);
           p)
         stop path)

type walk = { verdict : outcome; hop_count : int; metric : float }

let reach t ~entry ~ttl =
  if t.steps.(entry) = unknown then settle t entry;
  let k = t.steps.(entry) in
  let expired =
    { verdict = Dropped Ttl_expired; hop_count = max 0 (ttl - 1); metric = infinity }
  in
  match t.ending.(entry) with
  | Loops -> expired
  | Stuck_at ->
      if ttl - k > 1 then { verdict = Dropped Stuck; hop_count = k; metric = infinity }
      else expired
  | Ends verdict ->
      if k > 0 && k >= ttl then expired
      else
        let metric =
          match verdict with
          | Router_accepted _ | Endhost_accepted _ -> t.sum.(entry)
          | Dropped _ -> infinity
        in
        { verdict; hop_count = k; metric }
