type cls = Native | Encap | Control

let cls_to_string = function
  | Native -> "native"
  | Encap -> "encap"
  | Control -> "control"

type counters = {
  mutable packets : int;
  mutable bytes : int;
  mutable encap_bytes : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable ttl_expired : int;
  mutable queue_dropped : int;
  mutable shed : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let fresh () =
  {
    packets = 0;
    bytes = 0;
    encap_bytes = 0;
    delivered = 0;
    dropped = 0;
    ttl_expired = 0;
    queue_dropped = 0;
    shed = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

type t = { per_router : counters array; per_class : counters array }

let create ~routers =
  {
    per_router = Array.init routers (fun _ -> fresh ());
    per_class = Array.init 3 (fun _ -> fresh ());
  }

let num_routers t = Array.length t.per_router
let cls_index = function Native -> 0 | Encap -> 1 | Control -> 2
let router t r = t.per_router.(r)
let cls t c = t.per_class.(cls_index c)

(* Count-weighted recorders: a walk of [count] byte-identical packets
   of one flow (DESIGN.md §11) bumps each counter once with the
   multiplier, field for field what [count] single-packet events would
   leave. They live at top level with the amounts as arguments: a
   nested [let bump x = ...] capturing them would heap-allocate a
   closure on every recorded hop (hot-path-alloc). *)
let bump_hop_n (x : counters) ~bytes ~encap_bytes ~count =
  x.packets <- x.packets + count;
  x.bytes <- x.bytes + (bytes * count);
  x.encap_bytes <- x.encap_bytes + (encap_bytes * count)

let record_hop_n t ~router ~cls:c ~bytes ~encap_bytes ~count =
  bump_hop_n t.per_router.(router) ~bytes ~encap_bytes ~count;
  bump_hop_n (cls t c) ~bytes ~encap_bytes ~count

let record_delivered_n t ~router ~cls:c ~count =
  t.per_router.(router).delivered <- t.per_router.(router).delivered + count;
  (cls t c).delivered <- (cls t c).delivered + count

let record_drop_n t ~router ~cls:c ~count =
  t.per_router.(router).dropped <- t.per_router.(router).dropped + count;
  (cls t c).dropped <- (cls t c).dropped + count

let record_ttl_expired_n t ~router ~cls:c ~count =
  t.per_router.(router).ttl_expired <-
    t.per_router.(router).ttl_expired + count;
  (cls t c).ttl_expired <- (cls t c).ttl_expired + count

let record_queue_drop_n t ~router ~cls:c ~count =
  t.per_router.(router).queue_dropped <-
    t.per_router.(router).queue_dropped + count;
  (cls t c).queue_dropped <- (cls t c).queue_dropped + count

let record_shed_n t ~router ~cls:c ~count =
  t.per_router.(router).shed <- t.per_router.(router).shed + count;
  (cls t c).shed <- (cls t c).shed + count

let bump_cache_n (x : counters) ~hits ~misses =
  x.cache_hits <- x.cache_hits + hits;
  x.cache_misses <- x.cache_misses + misses

let record_cache_n t ~router ~cls:c ~hits ~misses =
  bump_cache_n t.per_router.(router) ~hits ~misses;
  bump_cache_n (cls t c) ~hits ~misses

let add_into (dst : counters) (src : counters) =
  dst.packets <- dst.packets + src.packets;
  dst.bytes <- dst.bytes + src.bytes;
  dst.encap_bytes <- dst.encap_bytes + src.encap_bytes;
  dst.delivered <- dst.delivered + src.delivered;
  dst.dropped <- dst.dropped + src.dropped;
  dst.ttl_expired <- dst.ttl_expired + src.ttl_expired;
  dst.queue_dropped <- dst.queue_dropped + src.queue_dropped;
  dst.shed <- dst.shed + src.shed;
  dst.cache_hits <- dst.cache_hits + src.cache_hits;
  dst.cache_misses <- dst.cache_misses + src.cache_misses

let merge a b =
  if num_routers a <> num_routers b then
    invalid_arg "Telemetry.merge: router counts differ";
  let m = create ~routers:(num_routers a) in
  Array.iteri
    (fun i c ->
      add_into m.per_router.(i) c;
      add_into m.per_router.(i) b.per_router.(i))
    a.per_router;
  Array.iteri
    (fun i c ->
      add_into m.per_class.(i) c;
      add_into m.per_class.(i) b.per_class.(i))
    a.per_class;
  m

let total t =
  let acc = fresh () in
  Array.iter (add_into acc) t.per_router;
  acc

let cache_hit_rate t =
  let acc = total t in
  let lookups = acc.cache_hits + acc.cache_misses in
  if lookups = 0 then 0.0
  else float_of_int acc.cache_hits /. float_of_int lookups
