module Internet = Topology.Internet
module Forward = Simcore.Forward
module Service = Anycast.Service
module Bgp = Interdomain.Bgp

type strategy = Exit_early | Bgp_aware | Proxy | Host_advertised

let strategy_to_string = function
  | Exit_early -> "exit-early"
  | Bgp_aware -> "bgpv(n-1)-aware"
  | Proxy -> "advertise-by-proxy"
  | Host_advertised -> "host-advertised"

type mode = Oracle | Protocol

type t = {
  fabric : Fabric.t;
  proxy_alpha : float;
  rmode : mode;
  registrations : (int, int) Hashtbl.t;  (* endhost -> advertising member *)
  mutable speaker : Bgpvn.t option;  (* lazily created BGPvN instance *)
  proxied : (Netcore.Prefix.t, unit) Hashtbl.t;  (* prefixes already proxy-advertised *)
}

let create ?(proxy_alpha = 0.5) ?(mode = Oracle) fabric =
  {
    fabric;
    proxy_alpha;
    rmode = mode;
    registrations = Hashtbl.create 16;
    speaker = None;
    proxied = Hashtbl.create 8;
  }

let fabric t = t.fabric

let protocol t =
  match t.speaker with
  | Some s -> s
  | None ->
      let s = Bgpvn.create ~alpha:t.proxy_alpha t.fabric in
      ignore (Bgpvn.converge s);
      t.speaker <- Some s;
      s

let env t = Service.env (Fabric.service t.fabric)
let domain_of t r = (Internet.router (env t).Forward.inet r).rdomain

let egress_to_vn_domain t ~ingress ~domain =
  match t.rmode with
  | Protocol ->
      Option.map
        (fun (r : Bgpvn.route) -> r.Bgpvn.egress)
        (Bgpvn.route (protocol t) ~at:ingress (Bgpvn.Vn_domain domain))
  | Oracle ->
      let candidates = Service.members_in (Fabric.service t.fabric) ~domain in
      List.fold_left
        (fun acc m ->
          let d = Fabric.vn_distance t.fabric ingress m in
          match acc with
          | Some (_, bd) when bd <= d -> acc
          | _ -> if d < infinity then Some (m, d) else acc)
        None candidates
      |> Option.map fst

let domain_path_length t ~member ~dest =
  Option.map List.length
    (Bgp.domain_path (env t).Forward.bgp ~src:(domain_of t member) dest)

let reachable_members t ~ingress =
  Array.to_list (Fabric.members t.fabric)
  |> List.filter (fun m -> Fabric.vn_distance t.fabric ingress m < infinity)

(* --- host-advertised registrations --- *)

let register_endhost t ~endhost =
  let service = Fabric.service t.fabric in
  match
    (Anycast.Service.resolve_from_endhost service ~endhost).Forward.outcome
  with
  | Forward.Router_accepted member ->
      Hashtbl.replace t.registrations endhost member;
      Some member
  | Forward.Endhost_accepted _ | Forward.Dropped _ -> None

let registered_advertiser t ~endhost = Hashtbl.find_opt t.registrations endhost
let deregister_endhost t ~endhost = Hashtbl.remove t.registrations endhost

let advertiser_alive t member =
  List.mem member (Anycast.Service.members (Fabric.service t.fabric))

let registration_stale t ~endhost =
  match registered_advertiser t ~endhost with
  | Some member -> not (advertiser_alive t member)
  | None -> false

let egress_for t ~strategy ~ingress ~dest =
  match Fabric.index_of t.fabric ingress with
  | None -> None
  | Some _ -> (
      match strategy with
      | Exit_early -> Some ingress
      | Host_advertised -> (
          (* the route exists only while the advertiser is a live
             member: fate-sharing between host and advertisement *)
          let inet = (env t).Forward.inet in
          match Internet.endhost_of_addr inet dest with
          | None -> Some ingress
          | Some h -> (
              match registered_advertiser t ~endhost:h.Internet.hid with
              | None -> Some ingress (* unregistered: fall back *)
              | Some advertiser ->
                  if advertiser_alive t advertiser then Some advertiser
                  else None (* stale route: black-holed *)))
      | Bgp_aware ->
          (* the member whose domain is AS-path-closest to the
             destination; ties break toward the vN-cheaper member *)
          let score m =
            match domain_path_length t ~member:m ~dest with
            | None -> None
            | Some l -> Some (float_of_int l, Fabric.vn_distance t.fabric ingress m)
          in
          (* lexicographic <= on (domain-path length, vN distance),
             spelled out: the polymorphic order on float pairs is not
             nan-safe (poly-compare) *)
          let key_le (a1, a2) (b1, b2) =
            a1 < b1 || (Float.equal a1 b1 && a2 <= b2)
          in
          let best =
            List.fold_left
              (fun acc m ->
                match score m with
                | None -> acc
                | Some key -> (
                    match acc with
                    | Some (_, bkey) when key_le bkey key -> acc
                    | _ -> Some (m, key)))
              None
              (reachable_members t ~ingress)
          in
          (match best with Some (m, _) -> Some m | None -> Some ingress)
      | Proxy -> (
          match t.rmode with
          | Protocol -> (
              (* run the real thing: members proxy-advertise the
                 destination's covering prefix into BGPvN, then the
                 ingress routes on its table *)
              let inet = (env t).Forward.inet in
              match Internet.domain_of_addr inet dest with
              | None -> Some ingress
              | Some dd ->
                  let prefix = Netcore.Addressing.domain_prefix dd in
                  let speaker = protocol t in
                  if not (Hashtbl.mem t.proxied prefix) then begin
                    Hashtbl.replace t.proxied prefix ();
                    Array.iter
                      (fun m ->
                        match domain_path_length t ~member:m ~dest with
                        | Some l ->
                            Bgpvn.originate_external speaker ~member:m ~prefix
                              ~exit_cost:(float_of_int l)
                        | None -> ())
                      (Fabric.members t.fabric);
                    ignore (Bgpvn.converge speaker)
                  end;
                  (match Bgpvn.route speaker ~at:ingress (Bgpvn.External prefix) with
                  | Some r -> Some r.Bgpvn.egress
                  | None -> Some ingress))
          | Oracle ->
              (* the same combined metric, computed centrally:
                 discounted vN-Bone hops plus the AS-level exit
                 distance each member would advertise *)
              let best =
                List.fold_left
                  (fun acc m ->
                    match
                      ( Fabric.vn_hop_distance t.fabric ingress m,
                        domain_path_length t ~member:m ~dest )
                    with
                    | Some vh, Some xl ->
                        let total =
                          (t.proxy_alpha *. float_of_int vh) +. float_of_int xl
                        in
                        (match acc with
                        | Some (_, bt) when bt <= total -> acc
                        | _ -> Some (m, total))
                    | _ -> acc)
                  None
                  (reachable_members t ~ingress)
              in
              (match best with Some (m, _) -> Some m | None -> Some ingress)))
