(** One worker of the sharded data plane: a block of routers, their
    telemetry, and the run loop that forwards packets until the
    pool-wide live count drains (DESIGN.md §11).

    Each shard owns every piece of state it writes — the
    {!Dataplane.Hop} kernel state of its router block (its own
    {!Dataplane.Telemetry} and path buffer), its queue of staged
    injections and its counters — which is what lets the evolvelint
    domain-safety pack prove the sharded hot path race-free from the
    {!run} root, the same §9.4 proof that covers the serial pump.
    Routing state is shared read-only: compiled {!Simcore.Fib}
    snapshots (§3.2's per-router data-plane state) are frozen interval
    arrays, never written once built, so domains read them without
    locks. A shard walks each
    flowlet through the same kernel as the serial pump, with the
    flowlet's count, every link up and no link queues, and hands it to
    the owning shard when the next hop leaves its block. A flowlet
    carries header fields only: §3.3.2's transit routers treat the
    payload as opaque, so no wire bytes cross a shard. *)

type msg
(** A flowlet at one router: the header fields its next walk reads
    (destination, TTL, wire length, class, encapsulation bytes) and
    its packet count. A staged injection and a cross-shard handoff
    published through a {!Ring} are the same value. *)

val msg :
  cls:Dataplane.Telemetry.cls ->
  dst:Netcore.Ipv4.t ->
  bytes:int ->
  encap_bytes:int ->
  count:int ->
  router:int ->
  ttl:int ->
  msg
(** [count] byte-identical packets of class [cls], [bytes] wire bytes
    each ([encap_bytes] of them encapsulation overhead), toward [dst]
    with TTL [ttl], waiting at [router] — the arguments of
    {!Dataplane.Hop.walk}, whose contract they must meet. *)

val dummy_msg : msg
(** Filler for empty ring slots ({!Ring.create}'s [dummy]). *)

type t

val create :
  ?spill_cap:int ->
  ?inject_per_pass:int ->
  sid:int ->
  map:Shardmap.t ->
  tables:Simcore.Fib.action Netcore.Lpm.t array ->
  rng:Topology.Rng.t ->
  live:int Atomic.t ->
  unit ->
  t
(** A worker for shard [sid] of [map]. [tables] is the shared frozen
    FIB snapshot array indexed by router id, read by
    {!Dataplane.Hop.walk}; [live] is the pool-wide
    in-flight packet count this worker decrements on every terminal
    outcome. Rings are wired separately via {!set_channels} once all
    shards exist.

    [spill_cap] (default 65536) bounds the spill buffer that holds
    handoffs refused by a full ring — beyond it the shard {e sheds}
    (DESIGN.md §13) instead of growing memory without bound. A flowlet
    never splits, so a batch whose flow count stays below [spill_cap]
    can never shed and the pool stays bit-deterministic; the default
    clears every experiment in the suite. [inject_per_pass] (default
    unbounded) paces fresh-flow injections: at most that many staged
    flows enter per scheduling pass, turning a batch into a multi-round
    arrival process — the slow-consumer drill's demand model; the
    default drains the whole queue in the first pass, the historical
    behaviour every experiment relies on for bit-reproducibility.
    The doorbell pipe is opened last, so a refused call holds no
    descriptor.
    @raise Invalid_argument when [spill_cap] or [inject_per_pass] is
    not positive. *)

val set_channels : t -> inbox:msg Ring.t array -> outbox:msg Ring.t array -> unit
(** Wire the per-pair rings: [inbox.(p)] carries handoffs from shard
    [p] to this one, [outbox.(c)] to shard [c]. Setup-time only. *)

val set_doorbells :
  t ->
  peer_asleep:bool Atomic.t array ->
  peer_wake:Unix.file_descr array ->
  unit
(** Wire the wakeup fabric: [peer_asleep.(c)] is shard [c]'s published
    sleep flag and [peer_wake.(c)] the write end of its doorbell pipe.
    A producer that pushes a handoff to a sleeping consumer writes one
    byte there, so idle workers block in [select] instead of burning
    timer slack — the flag is re-read after the ring push (both
    seq_cst), which closes the lost-wakeup race. Setup-time only. *)

val asleep_flag : t -> bool Atomic.t
(** This shard's published sleep flag (for {!set_doorbells} wiring). *)

val dead_flag : t -> bool Atomic.t
(** Published by a crashing worker as it exits its run loop; the
    supervisor ({!Domainpool.run}) detects it, joins the domain,
    {!revive}s the shard and respawns. *)

val wake_fd : t -> Unix.file_descr
(** Write end of this shard's doorbell pipe (for {!set_doorbells}). *)

val close : t -> unit
(** Release the doorbell pipe's file descriptors. Call once the worker
    will never {!run} again; the pool's [close] does this for every
    shard. *)

val telemetry : t -> Dataplane.Telemetry.t
(** This shard's own counters; merge across shards in fixed order for
    the pool-wide view (commutative — see {!Domainpool.telemetry}). *)

val crossings : t -> int
(** Handoffs this shard initiated (lifetime total). *)

val rng : t -> Topology.Rng.t
(** A randomness stream split from the pool seed. No worker draws from
    it: it stays while benchmarks pass [Domainpool.create ~seed]. *)

val enqueue : t -> msg -> unit
(** Queue a staged flowlet for injection at its router, which must
    lie in this shard's block. Setup-time only (before {!run}). *)

val overflow_high_water : t -> int
(** Most handoffs the spill buffer ever held at once (lifetime). *)

val overflow_len : t -> int
(** Handoffs in the spill buffer right now. *)

val overflow_cap : t -> int
(** The configured spill bound ([spill_cap]); [overflow_high_water]
    can never exceed it — the boundedness satellite's assertion. *)

val shed : t -> int
(** Packets this shard deliberately shed (lifetime total), already
    recorded per class in its telemetry and retired from the live
    count. *)

(** {2 Deterministic crash injection and supervision} (DESIGN.md §13) *)

val arm_crash : t -> after:int -> unit
(** Crash this worker right before its [after+1]-th next handling:
    it publishes {!dead_flag} and exits {!run} between flowlets, so
    the message that was next is still queued and nothing in flight
    is lost.
    @raise Invalid_argument when [after] is negative. *)

val crash_armed : t -> bool

val revive : t -> unit
(** Supervisor side: clear the crash and the dead flag. Nothing else
    needs rebuilding — a shard's walks read only the shared immutable
    FIB snapshots — so forwarding decisions and counters after a
    revive are identical to a never-crashed run's. Call only when the
    worker is not running (after joining its domain). *)

val pass : t -> bool
(** One scheduling pass of the run loop (drain cross-shard
    arrivals, retry stalled handoffs, inject pending flows); returns
    whether anything moved. {!Domainpool.run_cooperative} interleaves
    shards with it deterministically on one domain; {!run} is the
    parallel driver. *)

val run : t -> unit
(** The worker loop: drain cross-shard arrivals, retry stalled
    handoffs, inject pending flows; exit when the pool-wide live
    count reaches zero. Safe to run one domain per shard — this is
    the root the evolvelint domain-safety and hot-path-allocation
    packs scan. Idles politely — a short spin, then blocking on the
    doorbell pipe with a backstop timeout — so worker counts above the
    core count still make progress: sleepers stop stealing timeslices
    and wake the moment a producer hands them traffic. *)

(**/**)
