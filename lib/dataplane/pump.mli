(** The data-plane traffic engine: batched packets over compiled FIB
    snapshots.

    Everything below this module decides {e one} packet at a time
    against the live control plane; the pump is the line-card view the
    ROADMAP's "heavy traffic" goal needs. It holds one compiled
    {!Simcore.Fib} table per router (a snapshot — §3.2's data-plane
    state), fronts each with a {!Flowcache}, performs real {!Wire}
    encode at injection / a header peek / decode-and-decap at delivery
    (the IPvN-in-IPv4 encapsulation of §3.3.2), and records every
    event into a {!Telemetry}. The hops themselves are the {!Hop}
    kernel's, walked one packet at a time over a block spanning every
    router — the same decision the sharded pool makes per flowlet.

    The pump forwards IPv4 packets only. Experiment E29 runs IPvN
    journeys over it by passing {!inject} as the forwarder of the
    vN-Bone transport's [send_over], which walks the access, tunnel and
    exit legs; the data plane itself knows nothing of anycast or the
    vN-Bone.

    Tables are snapshots: after a deployment or routing change the
    control plane moves on but the pump keeps forwarding on stale
    tables until {!refresh} — exactly the convergence window experiment
    E30 measures. The pump must agree with the {!Simcore.Forward}
    oracle whenever its snapshot is current (asserted, cache on and
    off, by the test-suite). *)

type t

val create : ?cache_slots:int -> Simcore.Forward.env -> t
(** Compile a FIB snapshot of the env's current control plane and
    stand up per-router flow caches of [cache_slots] slots (default
    256; 0 = no cache, every hop a table lookup) and telemetry.
    @raise Invalid_argument when [cache_slots] is negative, or too
    large for {!Flowcache.create}. *)

val env : t -> Simcore.Forward.env
val telemetry : t -> Telemetry.t

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

val refresh : ?routers:int list -> t -> unit
(** Recompile the FIB from the env's current control-plane state and
    install it at the given routers (default: all), invalidating their
    flow caches. Partial refresh leaves the rest forwarding on the old
    snapshot — the mixed-table state of a convergence window. Only the
    listed routers are compiled ({!Simcore.Fib.router_table}), so the
    cost is proportional to the routers listed, plus one BGP egress
    resolution per domain they span. The pump keeps its last compile's
    per-domain plans ({!Simcore.Fib.recompiler}), so a domain's
    prefixes are sorted again only when its prefix list changed. *)

val table : t -> router:int -> Simcore.Fib.action Netcore.Lpm.t
(** The table currently installed at [router] — read-only view of
    what the pump forwards against. *)

val inject :
  ?cls:Telemetry.cls -> t -> Netcore.Packet.t -> entry:int -> Simcore.Forward.trace
(** Push one packet hop by hop from router [entry] over the installed
    tables: encode once, peek the destination from the header bytes,
    walk it through {!Hop.walk} with count 1, decode/decapsulate on
    delivery. Returns the same trace shape as {!Simcore.Forward.forward}.
    [cls] overrides the telemetry class derived from the payload —
    operational probes inject as {!Telemetry.Control} so the overload
    machinery gives them drop precedence. *)

val send_data : t -> src:int -> dst:int -> payload:string -> Simcore.Forward.trace
(** Native IPv4 endhost-to-endhost send (the access link is not a
    router hop, as in {!Simcore.Forward.send_from_endhost}). *)

val run_flow : t -> Workload.flow -> unit
(** Send all of a flow's packets natively, for the telemetry.
    @raise Invalid_argument when the flow fails {!Workload.validate}
    (checked before any packet is sent). *)

val run_batch : t -> Workload.flow list -> unit
(** {!run_flow} over the batch in order.
    @raise Invalid_argument when any flow fails {!Workload.validate};
    every flow is checked before the first is sent, so a refused
    batch leaves the pump as it was. *)
