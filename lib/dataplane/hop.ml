module Packet = Netcore.Packet
module Wire = Netcore.Wire
module Lpm = Netcore.Lpm
module Fib = Simcore.Fib
module Forward = Simcore.Forward

type verdict = Local | Attached | Dropped of Forward.drop_reason | Handoff

type t = {
  tables : Fib.action Lpm.t array; (* installed snapshots, by router id *)
  lo : int; (* the block [lo, hi) *)
  hi : int;
  telemetry : Telemetry.t;
  mutable link_up : (int -> int -> bool) option; (* None = every link up *)
  mutable linkq : Linkq.t option; (* None = infinite pipes *)
  path : int array; (* routers the last walk visited, in order *)
  mutable visits : int; (* filled prefix of [path] *)
  mutable router : int; (* terminal router, or the handoff's next hop *)
  mutable host : int; (* the endhost of an [Attached] verdict *)
  mutable ttl : int; (* the TTL a handoff arrives with *)
}

let create ~tables ~lo ~hi =
  {
    tables;
    lo;
    hi;
    telemetry = Telemetry.create ~routers:(Array.length tables);
    link_up = None;
    linkq = None;
    (* Wire refuses a TTL above 255, so no walk visits more routers *)
    path = Array.make 256 0;
    visits = 0;
    router = 0;
    host = 0;
    ttl = 0;
  }

let telemetry k = k.telemetry
let table k ~router = k.tables.(router)

(* [tables] is shared by every block's state: a router outside this
   block is another walker's to install *)
let install k ~router table =
  if router < k.lo || router >= k.hi then
    invalid_arg
      (Printf.sprintf "Hop.install: router %d lies outside the block [%d, %d)" router k.lo
         k.hi);
  k.tables.(router) <- table

let set_link_filter k f = k.link_up <- f
let set_linkq k lq = k.linkq <- lq

let cls_of (p : Packet.t) =
  match p.Packet.payload with
  | Packet.Data _ -> Telemetry.Native
  | Packet.Encap _ -> Telemetry.Encap

(* bytes beyond a native packet carrying the same body *)
let encap_of (p : Packet.t) ~len =
  match p.Packet.payload with
  | Packet.Data _ -> 0
  | Packet.Encap vn -> len - Wire.data_length (String.length vn.Packet.body)

let visits k = k.visits
let visited k i = k.path.(i)
let router k = k.router
let host k = k.host
let ttl k = k.ttl

(* Queue admission, decided here when there are no queues, so a hop
   without them makes no call. *)
let admit k r nh ~cls ~bytes =
  match k.linkq with
  | Some q -> Linkq.admit q ~src:r ~dst:nh ~cls ~bytes
  | None -> Linkq.Admitted

(* A terminal verdict at router [r]: count it once per packet there and
   in the class. *)
let stop k r ~cls ~count v =
  let tel = k.telemetry in
  k.router <- r;
  (match v with
  | Local | Attached -> Telemetry.record_delivered_n tel ~router:r ~cls ~count
  | Dropped Forward.Ttl_expired ->
      Telemetry.record_ttl_expired_n tel ~router:r ~cls ~count
  | Dropped Forward.Queue_full ->
      Telemetry.record_queue_drop_n tel ~router:r ~cls ~count
  | Dropped Forward.Shed -> Telemetry.record_shed_n tel ~router:r ~cls ~count
  | Dropped (Forward.No_route | Forward.Stuck | Forward.Link_down) ->
      Telemetry.record_drop_n tel ~router:r ~cls ~count
  | Handoff -> ());
  v

(* The hop loop. All state threads through arguments and [k], so the
   recursion is a static closure and a hop allocates nothing. The
   table's tag is decoded in place (Fib.tag): a next hop is
   non-negative, -1 is local delivery, [Lpm.no_tag] no route, and
   anything else the endhost [-2 - tag]. *)
let rec go k ~cls ~dst ~bytes ~encap_bytes ~count r ttl =
  k.path.(k.visits) <- r;
  k.visits <- k.visits + 1;
  Telemetry.record_hop_n k.telemetry ~router:r ~cls ~bytes ~encap_bytes ~count;
  let tag = Lpm.lookup_tag dst k.tables.(r) in
  if tag >= 0 then
    let nh = tag in
    if ttl <= 1 then stop k r ~cls ~count (Dropped Forward.Ttl_expired)
    else if nh = r then stop k r ~cls ~count (Dropped Forward.Stuck)
    else if
      (* inline, so a hop without a filter makes no call *)
      match k.link_up with Some up -> not (up r nh) | None -> false
    then stop k r ~cls ~count (Dropped Forward.Link_down)
    else
      match admit k r nh ~cls ~bytes with
      | Linkq.Rejected_full -> stop k r ~cls ~count (Dropped Forward.Queue_full)
      | Linkq.Rejected_shed -> stop k r ~cls ~count (Dropped Forward.Shed)
      | Linkq.Admitted ->
          (* ownership is a block test — no division on the per-hop path *)
          if nh >= k.lo && nh < k.hi then
            go k ~cls ~dst ~bytes ~encap_bytes ~count nh (ttl - 1)
          else begin
            k.router <- nh;
            k.ttl <- ttl - 1;
            Handoff
          end
  else if tag = -1 then stop k r ~cls ~count Local
  else if tag = Lpm.no_tag then stop k r ~cls ~count (Dropped Forward.No_route)
  else begin
    k.host <- -2 - tag;
    stop k r ~cls ~count Attached
  end

let walk k ~cls ~dst ~bytes ~encap_bytes ~count ~entry ~ttl =
  k.visits <- 0;
  go k ~cls ~dst ~bytes ~encap_bytes ~count entry ttl
