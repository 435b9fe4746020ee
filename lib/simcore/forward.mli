(** The IPv4 forwarding plane.

    Hop-by-hop forwarding over the router graph, driven by three route
    sources in priority order, mirroring a real FIB:

    + intra-domain anycast routes (the paper's §3.2 redirection
      primitive),
    + the domain's own unicast routes (routers and endhosts of the
      local /16),
    + inter-domain (BGP) routes, resolved through the chosen egress
      border link.

    Forwarding is synchronous and returns the full trace, which the
    experiments mine for path lengths, redirection targets and
    stretch. *)

type env = {
  inet : Topology.Internet.t;
  igps : Routing.Igp.t array;  (** one per domain *)
  bgp : Interdomain.Bgp.t;
}

val make_env :
  ?config:Interdomain.Bgp.config ->
  ?flavor_of:(int -> Routing.Igp.flavor) ->
  Topology.Internet.t ->
  env
(** Compute every domain's IGP ([flavor_of] picks link-state or
    distance-vector per domain; default all link-state), originate all
    domain /16s into BGP and converge it. The result is ready for
    {!forward}. *)

val reconverge : env -> int
(** Re-run BGP to a stable state after originations/withdrawals;
    returns rounds. *)

val recompute_igps : env -> domains:int list -> unit
(** Recompute the IGP of each listed domain over the internet's current
    (possibly edited) graph, keeping the domain's flavor and every
    anycast group's members. This is how a detour around a down link
    is installed (experiment E32 and the blackout drill); BGP is left
    alone. *)

type drop_reason =
  | Ttl_expired
  | No_route  (** no FIB entry anywhere on the way *)
  | Stuck  (** next hop exists but does not advance (should not happen) *)
  | Link_down
      (** the FIB pointed over a link that is currently down — only the
          fault-aware data path ({!Dataplane.Pump} under a link filter,
          experiment E32) produces this *)
  | Queue_full
      (** droptail loss at a finite-capacity link queue — only the
          capacity-aware data path ({!Dataplane.Pump} with a
          {!Dataplane.Linkq} attached, experiment E36) produces this *)
  | Shed
      (** deliberate load shedding: a data-class packet evicted or
          refused in favour of control traffic under the per-class drop
          precedence (DESIGN.md §13) *)

type outcome =
  | Router_accepted of int  (** packet addressed to this router, or anycast
                                delivery at this group member *)
  | Endhost_accepted of int
  | Dropped of drop_reason

type trace = {
  hops : int list;  (** router ids in forwarding order, first = entry point *)
  outcome : outcome;
}

val hop_count : trace -> int
(** Number of router-to-router transmissions in the trace. *)

val delivered : trace -> bool

val forward : env -> Netcore.Packet.t -> entry:int -> trace
(** Forward a packet hop by hop starting at router [entry] until
    delivery or drop. TTL decrements per hop. *)

val send_from_endhost : env -> Netcore.Packet.t -> endhost:int -> trace
(** Hand the packet to the endhost's access router and forward. The
    access link is not counted as a router hop. *)

val anycast_member_reached : env -> dst:Netcore.Ipv4.t -> entry:int -> int option
(** Convenience: forward a probe to [dst] from [entry] and report the
    router that accepted it, if delivery succeeded. *)

val path_metric : env -> trace -> float
(** Sum of link weights along the trace's hops. *)

(** {1 Pricing many entries toward one destination}

    A forwarding decision depends only on the router and the
    destination, so every walk toward one destination follows one tree
    (§3.2's "closest" is "the network's measure of routing distance",
    and pricing it for every entry is what the stretch metrics and the
    vN-Bone's tunnel metrics do). A {!tree} memoises that tree: it
    calls the {!forward} oracle's per-router decision at most once per
    router, however many entries and TTLs it is asked about. *)

type tree
(** One destination's forwarding tree over one env snapshot, filled in
    lazily. It is valid only while the env is unchanged: build it, ask
    it about every entry, and drop it within one call. Never keep one
    across a {!reconverge}, {!recompute_igps} or membership change. *)

val toward : env -> Netcore.Ipv4.t -> tree
(** An empty memo of the walks toward the address. Cheap: no decision
    is made until {!reach} asks. *)

type walk = {
  verdict : outcome;  (** [(forward env p ~entry).outcome] *)
  hop_count : int;  (** [hop_count (forward env p ~entry)] *)
  metric : float;
      (** [path_metric env (forward env p ~entry)] when delivered,
          bit for bit (the same right fold, a missing edge weighing
          [0.0]); [infinity] when not *)
}
(** What {!forward} answers for a packet [p] toward the tree's address
    with TTL [ttl], entering at [entry]. *)

val reach : tree -> entry:int -> ttl:int -> walk
(** The walk from router [entry] with TTL [ttl], exactly as
    {!forward} would make it: the entry router always decides, depth
    [k] is reached only when [k < ttl], a self-forwarding router is
    [Stuck] only with more than one TTL left, and a forwarding loop
    expires at every TTL. Callers pricing paths pass
    [Netcore.Packet.default_ttl], as a fresh packet carries. *)
