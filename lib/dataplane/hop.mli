(** The forwarding kernel: the one per-hop decision of the data plane.

    Both data paths walk packets through {!walk} — the serial {!Pump}
    with count 1 over a block spanning every router, and each
    [Multicore.Shard] with a flowlet's count over its own router
    block. A walk starts at an entry router and, hop by hop, looks up
    the tag of the router's compiled {!Simcore.Fib} table (§3.2's
    per-router data-plane state) with {!Netcore.Lpm.lookup_tag} and
    decodes it in place ({!Simcore.Fib.tag}), checks TTL and a next hop
    that does not advance, consults the link filter and the optional
    {!Linkq}, and records count-weighted {!Telemetry}, until the
    packets are delivered, dropped, or the next hop leaves the block.
    Its decisions are those of the {!Simcore.Forward.forward} oracle
    over the installed tables; the test-suite asserts that for both
    callers.

    A hop is a binary search over one int array that interleaves the
    table's interval starts and action tags, and no flow cache sits in
    front of it: on the frozen, merged tables {!Simcore.Fib} compiles,
    the search costs less than a cache probe plus its misses on
    uniform traffic and about as much as a hit on gravity traffic
    walked packet by packet. Only hot flows walked as flowlets, as a
    pool shard walks them, would see a cache pay.
    A walk allocates nothing (the test-suite counts its minor words):
    it returns a constant verdict and leaves the routers it visited,
    the terminal router, the endhost, or the handoff hop and TTL in the
    state for the caller to read. *)

type t
(** Kernel state for one caller: the shared FIB tables, the caller's
    router block [\[lo, hi)], its telemetry, its link filter and its
    optional link queues. Owned by one walker at a time. *)

type verdict =
  | Local  (** delivered at {!router}: its own or an anycast address *)
  | Attached  (** delivered to endhost {!host}, attached at {!router} *)
  | Dropped of Simcore.Forward.drop_reason  (** dropped at {!router} *)
  | Handoff
      (** admitted over a link to {!router}, which lies outside the
          block; the packets arrive there with TTL {!ttl} *)

val create : tables:Simcore.Fib.action Netcore.Lpm.t array -> lo:int -> hi:int -> t
(** State over [tables] (indexed by router id; shared, and mutated
    only through {!install}) for the block [\[lo, hi)]: fresh
    telemetry over every router of [tables], every link up and no link
    queues. A walk looks up every table it reaches with
    {!Netcore.Lpm.lookup_tag}, so the tables must be frozen, as
    {!Simcore.Fib} compiles them. *)

val telemetry : t -> Telemetry.t

val table : t -> router:int -> Simcore.Fib.action Netcore.Lpm.t
(** The table installed at [router]. *)

val install : t -> router:int -> Simcore.Fib.action Netcore.Lpm.t -> unit
(** Install a frozen table at [router], in the shared array.
    @raise Invalid_argument when [router] lies outside the block,
    before anything is written: the tables of other blocks belong to
    other walkers. *)

val set_link_filter : t -> (int -> int -> bool) option -> unit
(** Link liveness over (router, next-hop) pairs: a walk whose FIB
    action crosses a down link drops with
    {!Simcore.Forward.Link_down}. [None] brings every link back up
    (the default). The predicate is stored, so a hop calls it without
    allocating; with none, a hop makes no call. *)

val set_linkq : t -> Linkq.t option -> unit
(** Attach ([Some]) or detach ([None], the default) finite-capacity
    link queues: every router-to-router transmission then consults
    {!Linkq.admit}, and a refused walk drops with
    {!Simcore.Forward.Queue_full} or {!Simcore.Forward.Shed} at the
    sending router. Admission is per packet, so link queues may only
    be attached to a state whose walks all have count 1. *)

val cls_of : Netcore.Packet.t -> Telemetry.cls
(** The telemetry class of a packet: [Native] data or [Encap]sulated
    IPvN. *)

val encap_of : Netcore.Packet.t -> len:int -> int
(** The §3.3.2 encapsulation overhead of a packet whose wire image is
    [len] bytes: its length beyond a native packet carrying the same
    body, 0 for native data. *)

val walk :
  t ->
  cls:Telemetry.cls ->
  dst:Netcore.Ipv4.t ->
  bytes:int ->
  encap_bytes:int ->
  count:int ->
  entry:int ->
  ttl:int ->
  verdict
(** Walk [count] byte-identical packets of class [cls], [bytes] wire
    bytes each ([encap_bytes] of them overhead), toward [dst] from
    router [entry] with TTL [ttl]. Every counter ends exactly as
    [count] walks with count 1 would leave it. [entry] must lie in
    the block, and [ttl] must be at most 255, as {!Netcore.Wire}
    enforces; a larger one overflows the 256-slot path buffer with
    [Invalid_argument]. A table that is not frozen also raises
    [Invalid_argument] ({!Netcore.Lpm.lookup_tag}). *)

val visits : t -> int
(** Routers the last walk visited, the entry and a revisit included. *)

val visited : t -> int -> int
(** [visited k i] is the [i]-th router of the last walk, 0 = entry. *)

val router : t -> int
(** After a walk: the router of a terminal verdict, or the next hop of
    a {!Handoff}. *)

val host : t -> int
(** After an {!Attached} verdict: the endhost delivered to. *)

val ttl : t -> int
(** After a {!Handoff}: the TTL the packets arrive with. *)
