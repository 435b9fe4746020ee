module Packet = Netcore.Packet
module Wire = Netcore.Wire
module Lpm = Netcore.Lpm
module Fib = Simcore.Fib
module Forward = Simcore.Forward

type verdict = Local | Attached | Dropped of Forward.drop_reason | Handoff

type t = {
  tables : Fib.action Lpm.t array; (* installed snapshots, by router id *)
  caches : Fib.action Flowcache.t array option;
      (* the block [lo, hi) only, index [r - lo]; None = uncached *)
  lo : int;
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

let create ~tables ~lo ~hi ~cache_slots =
  if cache_slots < 0 then invalid_arg "Hop.create: cache_slots must be non-negative";
  {
    tables;
    caches =
      (if cache_slots = 0 then None
       else Some (Array.init (hi - lo) (fun _ -> Flowcache.create ~slots:cache_slots)));
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

let install k ~router table =
  k.tables.(router) <- table;
  match k.caches with
  | Some cs -> Flowcache.clear cs.(router - k.lo)
  | None -> ()

let clear_caches k =
  match k.caches with Some cs -> Array.iter Flowcache.clear cs | None -> ()

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

(* One forwarding decision at router [r] for [count] byte-identical
   packets: probe the flow cache once, account for every packet. A miss
   followed by a refill makes the remaining [count - 1] packets hits —
   exactly what [count] single walks record, since nothing else touches
   this router's cache between the packets of one flow. The refill
   stores the table's own [Some] cell, so a miss allocates nothing. *)
let lookup k r ~cls ~count dst =
  match k.caches with
  | None -> Lpm.lookup_value dst k.tables.(r)
  | Some cs -> (
      let c = cs.(r - k.lo) in
      match Flowcache.lookup c dst with
      | Some _ as hit ->
          Telemetry.record_cache_n k.telemetry ~router:r ~cls ~hits:count
            ~misses:0;
          hit
      | None -> (
          match Lpm.lookup_value dst k.tables.(r) with
          | Some _ as res ->
              Telemetry.record_cache_n k.telemetry ~router:r ~cls
                ~hits:(count - 1) ~misses:1;
              Flowcache.refill c dst res;
              res
          | None ->
              Telemetry.record_cache_n k.telemetry ~router:r ~cls ~hits:0
                ~misses:count;
              None))

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
   recursion is a static closure and a hop allocates nothing. *)
let rec go k ~cls ~dst ~bytes ~encap_bytes ~count r ttl =
  k.path.(k.visits) <- r;
  k.visits <- k.visits + 1;
  Telemetry.record_hop_n k.telemetry ~router:r ~cls ~bytes ~encap_bytes ~count;
  match lookup k r ~cls ~count dst with
  | None -> stop k r ~cls ~count (Dropped Forward.No_route)
  | Some Fib.Local -> stop k r ~cls ~count Local
  | Some (Fib.Attached h) ->
      k.host <- h;
      stop k r ~cls ~count Attached
  | Some (Fib.Next_hop nh) -> (
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
            end)

let walk k ~cls ~dst ~bytes ~encap_bytes ~count ~entry ~ttl =
  k.visits <- 0;
  go k ~cls ~dst ~bytes ~encap_bytes ~count entry ttl
