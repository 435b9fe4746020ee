(** RIP-like intra-domain distance-vector routing with anycast support.

    Routers exchange distance vectors with their neighbors in
    synchronous rounds (split horizon enabled). Anycast follows the
    paper's §3.2 rule for distance-vector protocols: "an IPvN router
    advertise[s] a distance of zero to its anycast address; standard
    distance-vector then ensures that every router will discover the
    next hop to its closest IPvN router". Unlike link-state, a router
    learns only distances and next hops — it cannot identify the other
    members, which is why intra-domain vN-Bone construction over plain
    DV needs the explicit discovery fallback (paper, footnote 2). *)

type t
(** Mutable distance-vector state for one domain. *)

type anycast_decision =
  | Deliver  (** the querying router is itself a group member *)
  | Toward of { next_hop : int; metric : float }
      (** note: no member identity — DV does not reveal it *)

val create : Topology.Internet.t -> domain:int -> t
(** Fresh state. Vectors start cold; call {!converge}. *)

val infinity_metric : float
(** The protocol's "unreachable" metric (the RIP 16, scaled for our
    weights). *)

val advertise_anycast : t -> group:Netcore.Prefix.t -> member:int -> unit
(** Member starts advertising distance zero to the group address. Takes
    effect over subsequent {!converge} rounds.

    @raise Invalid_argument when [member] is not a router of this
    domain. *)

val withdraw_anycast : t -> group:Netcore.Prefix.t -> member:int -> unit

val step : t -> bool
(** One synchronous exchange round; true when any entry changed. *)

val converge : t -> int
(** Run rounds until stable; returns the number of rounds that changed
    something (0 when already stable). *)

val distance : t -> src:int -> dst:int -> float
(** Current believed metric from [src] to router [dst];
    [infinity] when unreachable or outside the domain. *)

val next_hop : t -> src:int -> dst:int -> int option

val anycast_route : t -> src:int -> group:Netcore.Prefix.t -> anycast_decision option
(** Routing decision for an anycast packet at [src] under the current
    (possibly not yet converged) vectors. *)

val anycast_distance : t -> src:int -> group:Netcore.Prefix.t -> float
