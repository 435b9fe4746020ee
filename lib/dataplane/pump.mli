(** The data-plane traffic engine: batched packets over compiled FIB
    snapshots.

    Everything below this module decides {e one} packet at a time
    against the live control plane; the pump is the line-card view the
    ROADMAP's "heavy traffic" goal needs. It holds one compiled
    {!Simcore.Fib} table per router (a snapshot — §3.2's data-plane
    state), fronts each with a {!Flowcache}, performs real {!Wire}
    encode at injection / header peeks per hop / decode-and-decap at
    delivery (the IPvN-in-IPv4 encapsulation of §3.3.2), and records
    every event into a {!Telemetry}.

    Tables are snapshots: after a deployment or routing change the
    control plane moves on but the pump keeps forwarding on stale
    tables until {!refresh} — exactly the convergence window experiment
    E30 measures. The pump must agree with the {!Simcore.Forward}
    oracle whenever its snapshot is current (asserted, cache on and
    off, by the test-suite). *)

type t

val create : ?use_cache:bool -> ?cache_slots:int -> Simcore.Forward.env -> t
(** Compile a FIB snapshot of the env's current control plane and
    stand up per-router flow caches ([use_cache] default true,
    [cache_slots] default 256) and telemetry. *)

val env : t -> Simcore.Forward.env
val telemetry : t -> Telemetry.t

val cached : t -> bool
(** Whether flow caches are enabled. *)

val cache_hit_rate : t -> float
(** Aggregate flow-cache hit rate since creation. *)

val set_link_filter : t -> (int -> int -> bool) -> unit
(** Install a link-liveness predicate over (router, next-hop) pairs:
    a packet whose FIB action crosses a down link is dropped with
    {!Simcore.Forward.Link_down} instead of traversing it. This is how
    E32 pumps traffic {e while links flap} — the snapshot FIB keeps
    pointing over the dead link until the control plane reconverges
    and {!refresh} installs the detour. The predicate is a stored
    closure; the hot path calls it without allocating. *)

val clear_link_filter : t -> unit
(** Back to every link up (the default). *)

val attach_linkq : t -> Linkq.t -> unit
(** Attach finite-capacity link queues (DESIGN.md §13): every
    router-to-router transmission then consults {!Linkq.admit} and a
    refused packet is dropped with {!Simcore.Forward.Queue_full}
    (droptail) or {!Simcore.Forward.Shed} (class precedence) at the
    sending router. The caller drives {!Linkq.tick} between injection
    rounds; experiment E36 is the reference user. *)

val detach_linkq : t -> unit
(** Back to infinite pipes (the default). *)

val linkq : t -> Linkq.t option

val refresh : ?routers:int list -> t -> unit
(** Recompile the FIB from the env's current control-plane state and
    install it at the given routers (default: all), invalidating their
    flow caches. Partial refresh leaves the rest forwarding on the old
    snapshot — the mixed-table state of a convergence window. Only the
    listed routers are compiled ({!Simcore.Fib.router_table}), so the
    cost is proportional to the routers listed, plus one BGP egress
    resolution per domain they span. *)

val table : t -> router:int -> Simcore.Fib.action Netcore.Lpm.t
(** The table currently installed at [router] — read-only view of
    what the pump forwards against. *)

val inject :
  ?cls:Telemetry.cls -> t -> Netcore.Packet.t -> entry:int -> Simcore.Forward.trace
(** Push one packet hop by hop from router [entry] over the installed
    tables: encode once, peek the destination from the header bytes at
    each hop, look up through the flow cache, decode/decapsulate on
    delivery. Returns the same trace shape as {!Simcore.Forward.forward}.
    [cls] overrides the telemetry class derived from the payload —
    operational probes inject as {!Telemetry.Control} so the overload
    machinery gives them drop precedence. *)

val send_data : t -> src:int -> dst:int -> payload:string -> Simcore.Forward.trace
(** Native IPv4 endhost-to-endhost send (the access link is not a
    router hop, as in {!Simcore.Forward.send_from_endhost}). *)

val run_flow : t -> Workload.flow -> unit
(** Send all of a flow's packets natively, for the telemetry. *)

val run_batch : t -> Workload.flow list -> unit

(** {2 Arena entry points} — the zero-copy path of the sharded data
    plane (DESIGN.md §11). Packet bytes live in a pre-allocated
    {!Netcore.Arena} slab; forwarding reads the fixed header straight
    out of the slab (§3.3.2's opaque-payload rule) and builds no
    trace, so a steady-state batch does zero GC work. *)

val step :
  t ->
  buf:Netcore.Arena.buf ->
  off:int ->
  len:int ->
  cls:Telemetry.cls ->
  encap_bytes:int ->
  entry:int ->
  Simcore.Forward.outcome
(** Forward one encoded packet — the [(off, len)] view of [buf], as
    produced by {!Netcore.Wire.encode_into} — hop by hop from router
    [entry]. Telemetry-equivalent to {!inject} on the decoded packet
    (asserted by the test-suite); differs only in building no trace
    and skipping the delivery-side decode. A malformed view reads a
    zero destination and TTL and is dropped accordingly. *)

type buffer = Heap | Slab of Netcore.Arena.t
    (** Buffer provider for batch runs: [Heap] is the classic
        {!run_batch} path (encode to a fresh string per packet);
        [Slab] rewinds and reuses the given arena, keeping the whole
        batch off the OCaml heap. Both record identical telemetry. *)

val run_flow_in : t -> buffer -> Workload.flow -> unit
(** {!run_flow} parameterized over the buffer provider. *)

val run_batch_in : t -> buffer -> Workload.flow list -> unit
(** {!run_batch} parameterized over the buffer provider. *)

(** {2 IPvN journeys} — the §3.3.2 universal-access data path
    (access anycast leg, vN-Bone tunnel legs, IPv(N-1) exit leg),
    with every underlay leg forwarded by {!inject} instead of the
    control-plane oracle {!Vnbone.Transport.send} uses. *)

type vn_outcome =
  | Vn_delivered
  | Vn_no_ingress  (** anycast redirection failed *)
  | Vn_unreachable  (** no egress or no vN-Bone path *)
  | Vn_exit_failed
  | Vn_vttl_expired

val vn_outcome_to_string : vn_outcome -> string

type vn_delivery = {
  traces : Simcore.Forward.trace list;
      (** access, tunnel and exit underlay traces, in order *)
  vn_outcome : vn_outcome;
  vn_hops : int;  (** underlay transmissions over all legs *)
  vn_bytes : int;  (** wire bytes crossing links (bytes x transmissions) *)
}

val send_vn :
  t ->
  Vnbone.Router.t ->
  strategy:Vnbone.Router.strategy ->
  src:int ->
  dst:int ->
  payload:string ->
  vn_delivery
(** End-to-end IPvN send between endhost ids over the pump's tables.
    The router must be built over the same env as the pump. *)

val vn_delivered : vn_delivery -> bool
