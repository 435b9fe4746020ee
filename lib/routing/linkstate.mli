(** OSPF-like intra-domain link-state routing with anycast support.

    Every router floods its links; each router then computes shortest
    paths over the common link-state database. Anycast follows the
    paper's §3.2 rule: an IPvN router additionally advertises its
    anycast address (modelled as membership in an anycast group), so
    every router can both route toward the closest member {e and}
    identify the full member set — the property vN-Bone construction
    relies on. *)

type t
(** Link-state routing state for one domain. Mutable: anycast
    membership can be advertised and withdrawn. *)

type anycast_decision =
  | Deliver  (** the querying router is itself a group member *)
  | Toward of { member : int; next_hop : int; metric : float }
      (** forward to [next_hop] on the shortest path to the closest
          member *)

val compute : Topology.Internet.t -> domain:int -> t
(** Build the LSDB and all shortest-path trees for the routers of one
    domain. Routes never leave the domain. *)

val advertise_anycast : t -> group:Netcore.Prefix.t -> member:int -> unit
(** [member] (a global router id in this domain) starts accepting
    packets for [group].
    @raise Invalid_argument if the router is not in this domain. *)

val withdraw_anycast : t -> group:Netcore.Prefix.t -> member:int -> unit

val distance : t -> src:int -> dst:int -> float
(** Metric of the shortest intra-domain path; [infinity] when either
    router is outside the domain. *)

val next_hop : t -> src:int -> dst:int -> int option
(** First hop of the shortest path between two routers of the domain. *)

val anycast_route : t -> src:int -> group:Netcore.Prefix.t -> anycast_decision option
(** Routing decision for an anycast-addressed packet at [src]; [None]
    when the group has no member in this domain. Ties between members
    break toward the lower router id, matching deterministic OSPF
    tie-breaking. *)

val anycast_route_pseudo_node : t -> src:int -> group:Netcore.Prefix.t -> anycast_decision option
(** The same decision computed by the paper's {e other} LS encoding:
    "IPvN routers also advertise a high-cost 'link' to the
    corresponding anycast address" — the group becomes a pseudo-node
    hanging off every member by an identical high-cost edge, and
    routing toward it lands at the metric-closest member. Provably
    equal to {!anycast_route} (asserted by the test-suite); provided
    to document the equivalence of the two §3.2 encodings. *)

val anycast_members : t -> group:Netcore.Prefix.t -> int list
(** The member set, as visible in the LSDB (sorted). This is the
    "IPvN routers can identify one another" property of link-state
    anycast that intra-domain vN-Bone construction uses. *)

val groups : t -> Netcore.Prefix.t list
(** All groups with at least one member. *)

val flood_rounds : t -> origin:int -> int
(** Rounds for an LSA originated at [origin] to reach every router of
    the domain (its eccentricity in hops): the link-state convergence
    cost after an anycast membership change. *)

val routers : t -> int list
(** Global ids of the domain's routers. *)
