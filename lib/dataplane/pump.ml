module Packet = Netcore.Packet
module Wire = Netcore.Wire
module Internet = Topology.Internet
module Forward = Simcore.Forward
module Fib = Simcore.Fib

(* [compiler] is the last compile's, so that a refresh reuses the
   per-domain plans it built. *)
type t = { env : Forward.env; hop : Hop.t; mutable compiler : Fib.compiler }

let create ?(cache_slots = 256) (env : Forward.env) =
  if cache_slots < 0 then invalid_arg "Pump.create: cache_slots must be non-negative";
  let compiler = Fib.compiler env in
  let n = Internet.num_routers env.Forward.inet in
  let tables = Array.init n (Fib.router_table compiler) in
  { env; hop = Hop.create ~tables ~lo:0 ~hi:n ~cache_slots; compiler }

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
  let c = Fib.recompiler t.compiler in
  t.compiler <- c;
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
  Workload.validate f;
  let payload = String.make f.Workload.bytes_per_packet 'x' in
  for _ = 1 to f.Workload.packets do
    ignore (send_data t ~src:f.Workload.src ~dst:f.Workload.dst ~payload)
  done

(* Every flow is checked before the first is sent, so a refused batch
   sends nothing. *)
let run_batch t flows =
  List.iter Workload.validate flows;
  List.iter (run_flow t) flows
