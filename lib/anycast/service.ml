module Internet = Topology.Internet
module Igp = Routing.Igp
module Bgp = Interdomain.Bgp
module Forward = Simcore.Forward
module Prefix = Netcore.Prefix
module Packet = Netcore.Packet
module Addressing = Netcore.Addressing
module Ipv4 = Netcore.Ipv4

type strategy =
  | Option1
  | Option2 of { default_domain : int }
  | Gia of { home_domain : int; radius : int }

type t = {
  env : Forward.env;
  version : int;
  strategy : strategy;
  group : Prefix.t;
  members : (int, unit) Hashtbl.t;  (* router id -> () *)
  mutable participant_domains : int list;
}

let env t = t.env
let version t = t.version
let strategy t = t.strategy
let group t = t.group
let address t = Addressing.anycast_address t.group

let deploy env ~version ~strategy =
  if version < 1 || version > 63 then
    invalid_arg "Service.deploy: version out of [1, 63]";
  let rooted domain =
    if domain < 0 || domain >= Internet.num_domains env.Forward.inet then
      invalid_arg "Service.deploy: default domain out of range";
    Addressing.anycast_in_domain ~domain ~group:version
  in
  let group =
    match strategy with
    | Option1 -> Addressing.anycast_global ~group:version
    | Option2 { default_domain } -> rooted default_domain
    | Gia { home_domain; radius } ->
        if radius < 0 then invalid_arg "Service.deploy: negative GIA radius";
        rooted home_domain
  in
  { env; version; strategy; group; members = Hashtbl.create 16; participant_domains = [] }

let is_participant t ~domain = List.mem domain t.participant_domains
let participants t = List.sort Int.compare t.participant_domains

let members t =
  Hashtbl.fold (fun r () acc -> r :: acc) t.members [] |> List.sort Int.compare

let members_in t ~domain =
  members t
  |> List.filter (fun r -> (Internet.router t.env.Forward.inet r).rdomain = domain)

let enroll_router t router =
  let d = (Internet.router t.env.Forward.inet router).rdomain in
  Igp.advertise_anycast t.env.Forward.igps.(d) ~group:t.group ~member:router;
  Hashtbl.replace t.members router ()

let enroll_domain t ~domain ~routers =
  if routers = [] then invalid_arg "Service.add_participant: no routers";
  List.iter
    (fun r ->
      if (Internet.router t.env.Forward.inet r).rdomain <> domain then
        invalid_arg "Service.add_participant: router outside the domain")
    routers;
  List.iter (enroll_router t) routers;
  if not (is_participant t ~domain) then
    t.participant_domains <- domain :: t.participant_domains;
  match t.strategy with
  | Option1 -> Bgp.originate t.env.Forward.bgp ~domain t.group
  | Option2 _ -> ()
  | Gia { radius; _ } ->
      Bgp.originate_limited t.env.Forward.bgp ~domain ~radius t.group

let add_participant t ~domain ~routers =
  enroll_domain t ~domain ~routers;
  ignore (Forward.reconverge t.env)

let add_participants t entries =
  List.iter (fun (domain, routers) -> enroll_domain t ~domain ~routers) entries;
  ignore (Forward.reconverge t.env)

let remove_participant t ~domain =
  List.iter
    (fun r ->
      Igp.withdraw_anycast t.env.Forward.igps.(domain) ~group:t.group ~member:r;
      Hashtbl.remove t.members r)
    (members_in t ~domain);
  t.participant_domains <- List.filter (fun d -> d <> domain) t.participant_domains;
  (match t.strategy with
  | Option1 -> Bgp.withdraw_origin t.env.Forward.bgp ~domain t.group
  | Option2 _ -> ()
  | Gia _ -> Bgp.withdraw_limited t.env.Forward.bgp ~domain t.group);
  ignore (Forward.reconverge t.env)

let add_member t ~router =
  let d = (Internet.router t.env.Forward.inet router).rdomain in
  if not (is_participant t ~domain:d) then
    invalid_arg "Service.add_member: domain is not a participant";
  enroll_router t router

let remove_member t ~router =
  let d = (Internet.router t.env.Forward.inet router).rdomain in
  Igp.withdraw_anycast t.env.Forward.igps.(d) ~group:t.group ~member:router;
  Hashtbl.remove t.members router

let advertise_to_neighbor t ~from_ ~to_ =
  (match t.strategy with
  | Option1 | Gia _ ->
      invalid_arg
        "Service.advertise_to_neighbor: peering advertisements are an Option 2 \
         mechanism"
  | Option2 _ -> ());
  if not (is_participant t ~domain:from_) then
    invalid_arg "Service.advertise_to_neighbor: advertiser is not a participant";
  (* the advertiser delivers via its own IGP anycast members; only the
     scoped (non-re-exported) route is placed at the neighbor *)
  Bgp.advertise_scoped t.env.Forward.bgp ~from_ ~to_ t.group;
  ignore (Forward.reconverge t.env)

let withdraw_neighbor_advertisement t ~from_ ~to_ =
  Bgp.withdraw_scoped t.env.Forward.bgp ~from_ ~to_ t.group;
  ignore (Forward.reconverge t.env)

let resolve_from_endhost t ~endhost =
  let probe = Packet.make_data ~src:Ipv4.any ~dst:(address t) "anycast-probe" in
  Forward.send_from_endhost t.env probe ~endhost

let ingress_for_endhost t ~endhost =
  match (resolve_from_endhost t ~endhost).Forward.outcome with
  | Forward.Router_accepted r -> Some r
  | Forward.Endhost_accepted _ | Forward.Dropped _ -> None
