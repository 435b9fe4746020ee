module Packet = Netcore.Packet
module Wire = Netcore.Wire
module Internet = Topology.Internet
module Forward = Simcore.Forward
module Fib = Simcore.Fib

(* [compiler] is the last compile's, so that a refresh reuses the
   per-domain plans it built. *)
type t = { env : Forward.env; hop : Hop.t; mutable compiler : Fib.compiler }

let create (env : Forward.env) =
  let compiler = Fib.compiler env in
  let n = Internet.num_routers env.Forward.inet in
  let tables = Array.init n (Fib.router_table compiler) in
  { env; hop = Hop.create ~tables ~lo:0 ~hi:n; compiler }

let set_link_filter t f = Hop.set_link_filter t.hop (Some f)
let clear_link_filter t = Hop.set_link_filter t.hop None
let attach_linkq t lq = Hop.set_linkq t.hop (Some lq)
let detach_linkq t = Hop.set_linkq t.hop None

let env t = t.env
let telemetry t = Hop.telemetry t.hop

let table t ~router = Hop.table t.hop ~router
let install t c r = Hop.install t.hop ~router:r (Fib.router_table c r)

(* Every id is checked before the compiler is replaced or any table
   installed, so a refused refresh leaves the pump as it was. *)
let refresh ?routers t =
  let n = Internet.num_routers t.env.Forward.inet in
  Option.iter
    (List.iter (fun r ->
         if r < 0 || r >= n then
           invalid_arg (Printf.sprintf "Pump.refresh: router %d outside [0, %d)" r n)))
    routers;
  let c = Fib.recompiler t.compiler in
  t.compiler <- c;
  match routers with
  | None ->
      for r = 0 to n - 1 do
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

(* One packet through the line card, without the trace: encode once,
   read the destination straight from the header bytes, walk, and
   decode on delivery. The caller reads the rest from the kernel. *)
let transmit t ~cls packet ~entry =
  let wire = Wire.encode packet in
  let len = String.length wire in
  let dst = Wire.peek_dst_or wire ~default:packet.Packet.dst in
  let v =
    Hop.walk t.hop ~cls ~dst ~bytes:len ~encap_bytes:(Hop.encap_of packet ~len) ~count:1
      ~entry ~ttl:packet.Packet.ttl
  in
  (match v with Hop.Local | Hop.Attached -> deliver wire | Hop.Dropped _ | Hop.Handoff -> ());
  v

let inject ?cls t packet ~entry =
  let cls = match cls with Some c -> c | None -> Hop.cls_of packet in
  let k = t.hop in
  let outcome =
    match transmit t ~cls packet ~entry with
    | Hop.Local -> Forward.Router_accepted (Hop.router k)
    | Hop.Attached -> Forward.Endhost_accepted (Hop.host k)
    | Hop.Dropped reason -> Forward.Dropped reason
    | Hop.Handoff -> assert false (* the pump's block spans every router *)
  in
  { Forward.hops = hop_list k (Hop.visits k - 1) []; outcome }

let data_packet t ~src ~dst ~payload =
  let inet = t.env.Forward.inet in
  let hs = Internet.endhost inet src and hd = Internet.endhost inet dst in
  (Packet.make_data ~src:hs.Internet.haddr ~dst:hd.Internet.haddr payload, hs.Internet.access_router)

let send_data t ~src ~dst ~payload =
  let p, entry = data_packet t ~src ~dst ~payload in
  inject t p ~entry

(* One packet built per flow and walked [packets] times, each with its
   own encode, walk and decode, and no trace. *)
let run_flow t (f : Workload.flow) =
  Workload.validate f;
  if f.Workload.packets > 0 then begin
    let p, entry =
      data_packet t ~src:f.Workload.src ~dst:f.Workload.dst
        ~payload:(String.make f.Workload.bytes_per_packet 'x')
    in
    let cls = Hop.cls_of p in
    for _ = 1 to f.Workload.packets do
      ignore (transmit t ~cls p ~entry : Hop.verdict)
    done
  end

(* Every flow is checked before the first is sent, so a refused batch
   sends nothing. *)
let run_batch t flows =
  List.iter Workload.validate flows;
  List.iter (run_flow t) flows
