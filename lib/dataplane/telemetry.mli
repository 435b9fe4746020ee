(** Per-hop data-plane telemetry.

    What the paper's data-plane questions (§3.2 state and stretch,
    §3.3.2 encapsulation overhead) cost in packets and bytes, counted
    the way a router's interface counters would: every field is an
    event count, incremented once per event at the router where it
    happened and once in the packet's class ([Native] IPv4 data vs
    [Encap]sulated IPvN). A packet crossing [k] routers therefore
    contributes [k] to [packets]; terminal events (delivery, drop,
    TTL expiry) count once. Telemetries from separate runs merge by
    summation, so per-batch counters can be aggregated. *)

type cls =
  | Native  (** IPv4 data packet *)
  | Encap  (** encapsulated IPvN data packet *)
  | Control
      (** control/keepalive traffic (probes, protocol messages): the
          overload model (DESIGN.md §13) gives it drop precedence —
          control is never shed before data at the same queue. *)

(** traffic class of a packet *)

val cls_to_string : cls -> string

type counters = {
  mutable packets : int;  (** per-hop handlings *)
  mutable bytes : int;  (** wire bytes handled *)
  mutable encap_bytes : int;  (** encapsulation-overhead bytes handled *)
  mutable delivered : int;
  mutable dropped : int;  (** No_route, Stuck and Link_down drops *)
  mutable ttl_expired : int;
  mutable queue_dropped : int;
      (** droptail losses at a finite-capacity link queue ([Linkq]) *)
  mutable shed : int;
      (** deliberate load-shedding losses: class-precedence eviction at
          a link queue, or backpressure shedding at a shard spill
          buffer (DESIGN.md §13) *)
  mutable cache_hits : int;
  mutable cache_misses : int;
}

type t

val create : routers:int -> t
(** All-zero counters for an internet with [routers] routers. *)

val num_routers : t -> int

val router : t -> int -> counters
(** One router's counters (live view — fields mutate as events are
    recorded). *)

val cls : t -> cls -> counters
(** One traffic class's counters. *)

val total : t -> counters
(** Fresh sum over all routers. *)

val cache_hit_rate : t -> float
(** [cache_hits / (cache_hits + cache_misses)] over all routers; 0
    before any lookup. *)

(** {2 Recording} — called by the {!Hop} kernel, which walks the
    [count] byte-identical packets of one flow as a unit (1 for the
    serial pump, a flowlet's width in the sharded pool, DESIGN.md
    §11) and records each event once with the multiplier. Each
    recorder leaves the counters exactly as [count] single-packet
    events would. *)

val record_hop_n :
  t -> router:int -> cls:cls -> bytes:int -> encap_bytes:int -> count:int -> unit

val record_delivered_n : t -> router:int -> cls:cls -> count:int -> unit
val record_drop_n : t -> router:int -> cls:cls -> count:int -> unit
val record_ttl_expired_n : t -> router:int -> cls:cls -> count:int -> unit
val record_queue_drop_n : t -> router:int -> cls:cls -> count:int -> unit
val record_shed_n : t -> router:int -> cls:cls -> count:int -> unit

val record_cache_n : t -> router:int -> cls:cls -> hits:int -> misses:int -> unit
(** [hits] + [misses] probes' worth of cache statistics in one bump —
    a batched walk probes once but accounts for every packet (a miss
    followed by an insert makes the remaining [count - 1] packets
    hits, exactly as they would serially). *)

val merge : t -> t -> t
(** Field-wise sum; inputs are unchanged.
    @raise Invalid_argument when router counts differ. *)
