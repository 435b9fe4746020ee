module Internet = Topology.Internet
module Forward = Simcore.Forward
module Service = Anycast.Service
module Packet = Netcore.Packet
module Ipvn = Netcore.Ipvn
module Ipv4 = Netcore.Ipv4

type leg =
  | Access of Forward.trace
  | Vn of { from_router : int; to_router : int; underlay : Forward.trace }
  | Exit of Forward.trace

type failure = No_ingress | Vn_unreachable | Exit_failed | Vttl_expired

type journey = {
  legs : leg list;
  ingress : int option;
  egress : int option;
  packet : Packet.vn;
  result : (unit, failure) Stdlib.result;
}

let vn_address_of_endhost service ~endhost =
  let env = Service.env service in
  let h = Internet.endhost env.Forward.inet endhost in
  let version = Service.version service in
  if Service.is_participant service ~domain:h.Internet.hdomain then
    Ipvn.provider ~version ~domain:h.Internet.hdomain ~host:h.Internet.hindex
  else Ipvn.self_of_ipv4 ~version h.Internet.haddr

let leg_trace = function Access t | Exit t -> t | Vn { underlay; _ } -> underlay

let leg_hops leg = Forward.hop_count (leg_trace leg)

let total_hops j = List.fold_left (fun n l -> n + leg_hops l) 0 j.legs

let vn_hops j =
  List.fold_left
    (fun n l -> match l with Vn _ -> n + leg_hops l | Access _ | Exit _ -> n)
    0 j.legs

let access_hops j =
  List.fold_left
    (fun n l -> match l with Access _ -> n + leg_hops l | Vn _ | Exit _ -> n)
    0 j.legs

let exit_hops j =
  List.fold_left
    (fun n l -> match l with Exit _ -> n + leg_hops l | Vn _ | Access _ -> n)
    0 j.legs

let vn_fraction j =
  let total = total_hops j in
  if total = 0 then 0.0 else float_of_int (vn_hops j) /. float_of_int total

let last_vn_router j =
  match j.egress with Some e -> Some e | None -> j.ingress

let delivered j = Result.is_ok j.result

let path_metric router j =
  let env = Service.env (Fabric.service (Router.fabric router)) in
  List.fold_left (fun acc l -> acc +. Forward.path_metric env (leg_trace l)) 0.0 j.legs

let send_over router ~forward ~strategy ~src ~dst ~payload =
  let fabric = Router.fabric router in
  let service = Fabric.service fabric in
  let inet = (Service.env service).Forward.inet in
  let hsrc = Internet.endhost inet src and hdst = Internet.endhost inet dst in
  let version = Service.version service in
  let vsrc = vn_address_of_endhost service ~endhost:src in
  let vdst = vn_address_of_endhost service ~endhost:dst in
  let packet =
    Packet.make_vn ~version ~vsrc ~vdst ~dest_v4_hint:hdst.Internet.haddr payload
  in
  let finish ?ingress ?egress legs result =
    { legs = List.rev legs; ingress; egress; packet; result }
  in
  (* every leg wraps the same IPvN packet in one IPv4 header *)
  let leg ~src ~dst ~entry =
    forward (Packet.encapsulate ~src ~dst packet) ~entry
  in
  let raddr r = (Internet.router inet r).Internet.raddr in
  (* 1. access leg: encapsulate toward the anycast address *)
  let access_trace =
    leg ~src:hsrc.Internet.haddr ~dst:(Service.address service)
      ~entry:hsrc.Internet.access_router
  in
  let legs = [ Access access_trace ] in
  match access_trace.Forward.outcome with
  | Forward.Endhost_accepted _ | Forward.Dropped _ ->
      finish legs (Error No_ingress)
  | Forward.Router_accepted ingress -> (
      (* 2. pick the egress *)
      let egress =
        if Service.is_participant service ~domain:hdst.Internet.hdomain then
          Router.egress_to_vn_domain router ~ingress ~domain:hdst.Internet.hdomain
        else Router.egress_for router ~strategy ~ingress ~dest:hdst.Internet.haddr
      in
      match egress with
      | None -> finish ~ingress legs (Error Vn_unreachable)
      | Some egress -> (
          (* 3. vN-Bone legs; a failed tunnel keeps the hops it crossed *)
          let rec tunnel_legs legs vttl = function
            | a :: (b :: _ as rest) ->
                if vttl <= 1 then Error (legs, Vttl_expired)
                else
                  let underlay = leg ~src:(raddr a) ~dst:(raddr b) ~entry:a in
                  let legs =
                    Vn { from_router = a; to_router = b; underlay } :: legs
                  in
                  if Forward.delivered underlay then
                    tunnel_legs legs (vttl - 1) rest
                  else Error (legs, Vn_unreachable)
            | [ _ ] | [] -> Ok legs
          in
          match Fabric.vn_path fabric ingress egress with
          | None -> finish ~ingress ~egress legs (Error Vn_unreachable)
          | Some vn_nodes -> (
              match tunnel_legs legs packet.Packet.vttl vn_nodes with
              | Error (legs, f) -> finish ~ingress ~egress legs (Error f)
              | Ok legs -> (
                  (* 4. exit leg over IPv(N-1) *)
                  let exit_trace =
                    leg ~src:(raddr egress) ~dst:hdst.Internet.haddr ~entry:egress
                  in
                  let legs = Exit exit_trace :: legs in
                  match exit_trace.Forward.outcome with
                  | Forward.Endhost_accepted h when h = dst ->
                      finish ~ingress ~egress legs (Ok ())
                  | Forward.Endhost_accepted _ | Forward.Router_accepted _
                  | Forward.Dropped _ ->
                      finish ~ingress ~egress legs (Error Exit_failed)))))

let send router =
  let env = Service.env (Fabric.service (Router.fabric router)) in
  send_over router ~forward:(Forward.forward env)

let failure_to_string = function
  | No_ingress -> "anycast redirection failed (no ingress)"
  | Vn_unreachable -> "no vN-Bone path to the chosen egress"
  | Exit_failed -> "the IPv(N-1) exit leg did not deliver"
  | Vttl_expired -> "vN hop budget exhausted"

let pp_journey inet fmt j =
  let domain_of r = (Internet.router inet r).Internet.rdomain in
  let pp_trace fmt (t : Forward.trace) =
    Format.fprintf fmt "%s"
      (String.concat " > "
         (List.map
            (fun r -> Printf.sprintf "%d(d%d)" r (domain_of r))
            t.Forward.hops))
  in
  Format.fprintf fmt "IPv%d %a -> %a@."
    j.packet.Packet.version Ipvn.pp j.packet.Packet.vsrc Ipvn.pp
    j.packet.Packet.vdst;
  List.iter
    (fun leg ->
      match leg with
      | Access t ->
          Format.fprintf fmt "  access (anycast):  %a@." pp_trace t
      | Vn { from_router; to_router; underlay } ->
          Format.fprintf fmt "  vN tunnel %d->%d:   %a@." from_router to_router
            pp_trace underlay
      | Exit t -> Format.fprintf fmt "  exit (IPv(N-1)):   %a@." pp_trace t)
    j.legs;
  match j.result with
  | Ok () ->
      Format.fprintf fmt "  delivered: %d hops (%d on the vN-Bone)@."
        (total_hops j) (vn_hops j)
  | Error f -> Format.fprintf fmt "  FAILED: %s@." (failure_to_string f)
