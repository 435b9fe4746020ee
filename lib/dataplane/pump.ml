module Packet = Netcore.Packet
module Wire = Netcore.Wire
module Internet = Topology.Internet
module Forward = Simcore.Forward
module Fib = Simcore.Fib
module Service = Anycast.Service
module Router = Vnbone.Router
module Fabric = Vnbone.Fabric
module Transport = Vnbone.Transport

type t = { env : Forward.env; hop : Hop.t }

let create ?(use_cache = true) ?(cache_slots = 256) (env : Forward.env) =
  let fib = Fib.compile env in
  let n = Internet.num_routers env.Forward.inet in
  let tables = Array.init n (fun r -> Fib.table fib ~router:r) in
  let cache_slots = if use_cache then Some cache_slots else None in
  { env; hop = Hop.create ~tables ~lo:0 ~hi:n ~cache_slots }

let set_link_filter t f = Hop.set_link_filter t.hop (Some f)
let clear_link_filter t = Hop.set_link_filter t.hop None
let attach_linkq t lq = Hop.set_linkq t.hop (Some lq)
let detach_linkq t = Hop.set_linkq t.hop None

let env t = t.env
let telemetry t = Hop.telemetry t.hop
let cache_hit_rate t = Telemetry.cache_hit_rate (telemetry t)

let table t ~router = Hop.table t.hop ~router
let install t c r = Hop.install t.hop ~router:r (Fib.router_table c r)

let refresh ?routers t =
  let c = Fib.compiler t.env in
  match routers with
  | None ->
      for r = 0 to Internet.num_routers t.env.Forward.inet - 1 do
        install t c r
      done
  | Some rs -> List.iter (install t c) rs

(* The last walk's routers as a trace's hop list, entry first. The one
   cons per hop is the trace the pump exists to build (allowlisted). *)
let rec hop_list k i acc =
  if i < 0 then acc else hop_list k (i - 1) (Hop.visited k i :: acc)

(* delivery decodes (and decapsulates) the wire bytes *)
let deliver wire =
  match Wire.decode wire with
  | Ok p -> ignore (Packet.decapsulate p)
  | Error _ -> ()

let inject ?cls t packet ~entry =
  let wire = Wire.encode packet in
  let len = String.length wire in
  let cls = match cls with Some c -> c | None -> Hop.cls_of packet in
  (* the hot path reads the destination straight from the header bytes *)
  let dst = Wire.peek_dst_or wire ~default:packet.Packet.dst in
  let k = t.hop in
  let outcome =
    match
      Hop.walk k ~cls ~dst ~bytes:len ~encap_bytes:(Hop.encap_of packet ~len)
        ~count:1 ~entry ~ttl:packet.Packet.ttl
    with
    | Hop.Local ->
        deliver wire;
        Forward.Router_accepted (Hop.router k)
    | Hop.Attached ->
        deliver wire;
        Forward.Endhost_accepted (Hop.host k)
    | Hop.Dropped reason -> Forward.Dropped reason
    | Hop.Handoff -> assert false (* the pump's block spans every router *)
  in
  { Forward.hops = hop_list k (Hop.visits k - 1) []; outcome }

let send_data t ~src ~dst ~payload =
  let inet = t.env.Forward.inet in
  let hs = Internet.endhost inet src and hd = Internet.endhost inet dst in
  let p = Packet.make_data ~src:hs.Internet.haddr ~dst:hd.Internet.haddr payload in
  inject t p ~entry:hs.Internet.access_router

let run_flow t (f : Workload.flow) =
  let payload = String.make f.Workload.bytes_per_packet 'x' in
  for _ = 1 to f.Workload.packets do
    ignore (send_data t ~src:f.Workload.src ~dst:f.Workload.dst ~payload)
  done

let run_batch t flows = List.iter (run_flow t) flows

(* --- the IPvN journey over compiled tables -------------------------- *)

type vn_outcome =
  | Vn_delivered
  | Vn_no_ingress
  | Vn_unreachable
  | Vn_exit_failed
  | Vn_vttl_expired

let vn_outcome_to_string = function
  | Vn_delivered -> "delivered"
  | Vn_no_ingress -> "no ingress"
  | Vn_unreachable -> "vn unreachable"
  | Vn_exit_failed -> "exit failed"
  | Vn_vttl_expired -> "vttl expired"

type vn_delivery = {
  traces : Forward.trace list; (* access, tunnel legs, exit — in order *)
  vn_outcome : vn_outcome;
  vn_hops : int; (* underlay transmissions over all legs *)
  vn_bytes : int; (* wire bytes x transmissions over all legs *)
}

let send_vn t router ~strategy ~src ~dst ~payload =
  let fabric = Router.fabric router in
  let service = Fabric.service fabric in
  let inet = t.env.Forward.inet in
  let hsrc = Internet.endhost inet src and hdst = Internet.endhost inet dst in
  let version = Service.version service in
  let vsrc = Transport.vn_address_of_endhost service ~endhost:src in
  let vdst = Transport.vn_address_of_endhost service ~endhost:dst in
  let packet =
    Packet.make_vn ~version ~vsrc ~vdst ~dest_v4_hint:hdst.Internet.haddr
      payload
  in
  let hops = ref 0 and bytes = ref 0 in
  let track p (tr : Forward.trace) =
    let h = Forward.hop_count tr in
    hops := !hops + h;
    bytes := !bytes + (h * Wire.wire_length p);
    tr
  in
  let finish traces vn_outcome =
    { traces = List.rev traces; vn_outcome; vn_hops = !hops; vn_bytes = !bytes }
  in
  (* 1. access leg: encapsulate toward the anycast address *)
  let access_packet =
    Packet.encapsulate ~src:hsrc.Internet.haddr ~dst:(Service.address service)
      packet
  in
  let access =
    track access_packet
      (inject t access_packet ~entry:hsrc.Internet.access_router)
  in
  match access.Forward.outcome with
  | Forward.Endhost_accepted _ | Forward.Dropped _ ->
      finish [ access ] Vn_no_ingress
  | Forward.Router_accepted ingress -> (
      let traces = [ access ] in
      (* 2. pick the egress *)
      let egress =
        if Service.is_participant service ~domain:hdst.Internet.hdomain then
          Router.egress_to_vn_domain router ~ingress
            ~domain:hdst.Internet.hdomain
        else Router.egress_for router ~strategy ~ingress ~dest:hdst.Internet.haddr
      in
      match egress with
      | None -> finish traces Vn_unreachable
      | Some egress -> (
          (* 3. vN-Bone tunnel legs, hop by hop over compiled tables *)
          match Fabric.vn_path fabric ingress egress with
          | None -> finish traces Vn_unreachable
          | Some vn_nodes -> (
              let rec tunnels traces vttl = function
                | a :: (b :: _ as rest) ->
                    if vttl <= 1 then Error (traces, Vn_vttl_expired)
                    else
                      let p =
                        Packet.encapsulate
                          ~src:(Internet.router inet a).Internet.raddr
                          ~dst:(Internet.router inet b).Internet.raddr packet
                      in
                      let tr = track p (inject t p ~entry:a) in
                      if Forward.delivered tr then
                        tunnels (tr :: traces) (vttl - 1) rest
                      else Error (tr :: traces, Vn_unreachable)
                | [ _ ] | [] -> Ok traces
              in
              match tunnels traces packet.Packet.vttl vn_nodes with
              | Error (traces, f) -> finish traces f
              | Ok traces -> (
                  (* 4. exit leg over IPv(N-1) *)
                  let exit_packet =
                    Packet.encapsulate
                      ~src:(Internet.router inet egress).Internet.raddr
                      ~dst:hdst.Internet.haddr packet
                  in
                  let tr = track exit_packet (inject t exit_packet ~entry:egress) in
                  let traces = tr :: traces in
                  match tr.Forward.outcome with
                  | Forward.Endhost_accepted h when h = dst ->
                      finish traces Vn_delivered
                  | Forward.Endhost_accepted _ | Forward.Router_accepted _
                  | Forward.Dropped _ ->
                      finish traces Vn_exit_failed))))

let vn_delivered d =
  match d.vn_outcome with Vn_delivered -> true | _ -> false
