module Packet = Netcore.Packet
module Wire = Netcore.Wire
module Lpm = Netcore.Lpm
module Internet = Topology.Internet
module Forward = Simcore.Forward
module Fib = Simcore.Fib
module Service = Anycast.Service
module Router = Vnbone.Router
module Fabric = Vnbone.Fabric
module Transport = Vnbone.Transport

type t = {
  env : Forward.env;
  tables : Fib.action Lpm.t array; (* installed per-router snapshots *)
  caches : Fib.action Flowcache.t array option;
  telemetry : Telemetry.t;
  mutable link_up : int -> int -> bool;
      (* stored closure, so the hot path calls it without allocating *)
  mutable linkq : Linkq.t option;
      (* finite-capacity link queues; None = infinite pipes *)
}

let every_link_up _ _ = true

let create ?(use_cache = true) ?(cache_slots = 256) (env : Forward.env) =
  let fib = Fib.compile env in
  let n = Internet.num_routers env.Forward.inet in
  {
    env;
    tables = Array.init n (fun r -> Fib.table fib ~router:r);
    caches =
      (if use_cache then
         Some (Array.init n (fun _ -> Flowcache.create ~slots:cache_slots))
       else None);
    telemetry = Telemetry.create ~routers:n;
    link_up = every_link_up;
    linkq = None;
  }

let set_link_filter t f = t.link_up <- f
let clear_link_filter t = t.link_up <- every_link_up
let attach_linkq t lq = t.linkq <- Some lq
let detach_linkq t = t.linkq <- None
let linkq t = t.linkq

let env t = t.env
let telemetry t = t.telemetry
let cached t = Option.is_some t.caches
let cache_hit_rate t = Telemetry.cache_hit_rate t.telemetry

let table t ~router = t.tables.(router)

let install t c r =
  t.tables.(r) <- Fib.router_table c r;
  match t.caches with Some cs -> Flowcache.clear cs.(r) | None -> ()

let refresh ?routers t =
  let c = Fib.compiler t.env in
  match routers with
  | None -> Array.iteri (fun r _ -> install t c r) t.tables
  | Some rs -> List.iter (install t c) rs

(* one forwarding decision: flow cache in front of the router's LPM *)
let lookup_action t ~router ~cls dst =
  match t.caches with
  | None -> Lpm.lookup_value dst t.tables.(router)
  | Some cs -> (
      let c = cs.(router) in
      match Flowcache.lookup c dst with
      | Some _ as hit ->
          Telemetry.record_cache t.telemetry ~router ~cls ~hit:true;
          hit
      | None -> (
          Telemetry.record_cache t.telemetry ~router ~cls ~hit:false;
          match Lpm.lookup_value dst t.tables.(router) with
          | Some a as r ->
              Flowcache.insert c dst a;
              r
          | None -> None))

(* Delivery/drop bookkeeping shared by every exit from the hop loop.
   Top level — not nested in [inject] — so the loop below stays
   capture-free (hot-path-alloc). *)
let finish_trace tel ~router:r ~cls ~wire acc outcome =
  (match outcome with
  | Forward.Router_accepted _ | Forward.Endhost_accepted _ ->
      (* delivery decodes (and decapsulates) the wire bytes *)
      (match Wire.decode wire with
      | Ok p -> ignore (Packet.decapsulate p)
      | Error _ -> ());
      Telemetry.record_delivered tel ~router:r ~cls
  | Forward.Dropped Forward.Ttl_expired ->
      Telemetry.record_ttl_expired tel ~router:r ~cls
  | Forward.Dropped Forward.Queue_full ->
      Telemetry.record_queue_drop tel ~router:r ~cls
  | Forward.Dropped Forward.Shed -> Telemetry.record_shed tel ~router:r ~cls
  | Forward.Dropped _ -> Telemetry.record_drop tel ~router:r ~cls);
  { Forward.hops = List.rev acc; outcome }

(* The per-packet hop loop. All state threads through arguments, so
   the recursion is a static closure; the one cons per hop is the
   trace the function exists to build (allowlisted). *)
let rec hop_loop t tel ~cls ~dst ~wire ~len ~encap_bytes r ttl acc =
  let acc = r :: acc in
  Telemetry.record_hop tel ~router:r ~cls ~bytes:len ~encap_bytes;
  match lookup_action t ~router:r ~cls dst with
  | None -> finish_trace tel ~router:r ~cls ~wire acc (Forward.Dropped Forward.No_route)
  | Some Fib.Local -> finish_trace tel ~router:r ~cls ~wire acc (Forward.Router_accepted r)
  | Some (Fib.Attached h) ->
      finish_trace tel ~router:r ~cls ~wire acc (Forward.Endhost_accepted h)
  | Some (Fib.Next_hop nh) ->
      if ttl <= 1 then
        finish_trace tel ~router:r ~cls ~wire acc
          (Forward.Dropped Forward.Ttl_expired)
      else if nh = r then
        finish_trace tel ~router:r ~cls ~wire acc (Forward.Dropped Forward.Stuck)
      else if not (t.link_up r nh) then
        finish_trace tel ~router:r ~cls ~wire acc
          (Forward.Dropped Forward.Link_down)
      else begin
        match Linkq.admit_opt t.linkq ~src:r ~dst:nh ~cls ~bytes:len with
        | Linkq.Admitted ->
            hop_loop t tel ~cls ~dst ~wire ~len ~encap_bytes nh (ttl - 1) acc
        | Linkq.Rejected_full ->
            finish_trace tel ~router:r ~cls ~wire acc
              (Forward.Dropped Forward.Queue_full)
        | Linkq.Rejected_shed ->
            finish_trace tel ~router:r ~cls ~wire acc
              (Forward.Dropped Forward.Shed)
      end

let inject ?cls t packet ~entry =
  let wire = Wire.encode packet in
  let len = String.length wire in
  let cls =
    match cls with
    | Some c -> c
    | None -> (
        match packet.Packet.payload with
        | Packet.Data _ -> Telemetry.Native
        | Packet.Encap _ -> Telemetry.Encap)
  in
  (* bytes beyond a native packet carrying the same body *)
  let encap_bytes =
    match packet.Packet.payload with
    | Packet.Data _ -> 0
    | Packet.Encap vn -> len - Wire.data_length (String.length vn.Packet.body)
  in
  (* the hot path reads the destination straight from the header bytes *)
  let dst = Wire.peek_dst_or wire ~default:packet.Packet.dst in
  hop_loop t t.telemetry ~cls ~dst ~wire ~len ~encap_bytes entry
    packet.Packet.ttl []

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

(* --- arena-backed batch entry points --------------------------------- *)

type buffer = Heap | Slab of Netcore.Arena.t

(* Trace-free hop loop over an arena view: same forwarding decisions
   and telemetry bumps as [hop_loop], minus the per-hop cons and the
   delivery-side decode, so a steady-state batch does zero GC work. *)
let rec step_loop t tel ~cls ~dst ~len ~encap_bytes r ttl =
  Telemetry.record_hop tel ~router:r ~cls ~bytes:len ~encap_bytes;
  match lookup_action t ~router:r ~cls dst with
  | None ->
      Telemetry.record_drop tel ~router:r ~cls;
      Forward.Dropped Forward.No_route
  | Some Fib.Local ->
      Telemetry.record_delivered tel ~router:r ~cls;
      Forward.Router_accepted r
  | Some (Fib.Attached h) ->
      Telemetry.record_delivered tel ~router:r ~cls;
      Forward.Endhost_accepted h
  | Some (Fib.Next_hop nh) ->
      if ttl <= 1 then begin
        Telemetry.record_ttl_expired tel ~router:r ~cls;
        Forward.Dropped Forward.Ttl_expired
      end
      else if nh = r then begin
        Telemetry.record_drop tel ~router:r ~cls;
        Forward.Dropped Forward.Stuck
      end
      else if not (t.link_up r nh) then begin
        Telemetry.record_drop tel ~router:r ~cls;
        Forward.Dropped Forward.Link_down
      end
      else begin
        match Linkq.admit_opt t.linkq ~src:r ~dst:nh ~cls ~bytes:len with
        | Linkq.Admitted -> step_loop t tel ~cls ~dst ~len ~encap_bytes nh (ttl - 1)
        | Linkq.Rejected_full ->
            Telemetry.record_queue_drop tel ~router:r ~cls;
            Forward.Dropped Forward.Queue_full
        | Linkq.Rejected_shed ->
            Telemetry.record_shed tel ~router:r ~cls;
            Forward.Dropped Forward.Shed
      end

let step t ~buf ~off ~len ~cls ~encap_bytes ~entry =
  let dst =
    Wire.peek_dst_big buf ~off ~len ~default:(Netcore.Ipv4.of_int 0)
  in
  let ttl = Wire.peek_ttl_big buf ~off ~len ~default:0 in
  step_loop t t.telemetry ~cls ~dst ~len ~encap_bytes entry ttl

let run_flow_in t buffer (f : Workload.flow) =
  match buffer with
  | Heap -> run_flow t f
  | Slab arena ->
      let inet = t.env.Forward.inet in
      let hs = Internet.endhost inet f.Workload.src
      and hd = Internet.endhost inet f.Workload.dst in
      let payload = String.make f.Workload.bytes_per_packet 'x' in
      let p =
        Packet.make_data ~src:hs.Internet.haddr ~dst:hd.Internet.haddr payload
      in
      let len = Wire.wire_length p in
      (* the slab is scratch space: rewind and reuse it per flow, so
         capacity only ever needs one encoded packet *)
      Netcore.Arena.reset arena;
      Netcore.Arena.ensure arena ~bytes:len;
      let off = Wire.encode_into p arena in
      let buf = Netcore.Arena.buf arena in
      for _ = 1 to f.Workload.packets do
        ignore
          (step t ~buf ~off ~len ~cls:Telemetry.Native ~encap_bytes:0
             ~entry:hs.Internet.access_router
            : Forward.outcome)
      done

let run_batch_in t buffer flows = List.iter (run_flow_in t buffer) flows

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
