(** Routing over the vN-Bone (paper §3.3.2), including egress selection
    for destinations in non-IPvN domains.

    Routing between IPvN routers is shortest-path over the vN-Bone
    ("BGPvN" — the paper assumes no specific algorithm). The
    interesting question is picking the {e egress} router for a
    destination whose domain has not deployed IPvN; the strategies
    mirror the paper's walk-through:

    - {!Exit_early}: "simply exit the vN-Bone and forward the packet
      directly to the destination's IPv(N-1) address" from the current
      router — fails to exploit IPvN deployment (Fig 3, path through X).
    - {!Bgp_aware}: IPvN border routers acquire BGPv(N-1) tables and
      exit at the member whose domain is closest (in AS-path terms) to
      the destination's domain (Fig 3, path through Y).
    - {!Proxy}: advertising-by-proxy (Fig 4) — members advertise their
      IPv(N-1) distance to non-IPvN destinations into BGPvN, and the
      combined BGPvN cost (vN-Bone hops, discounted because deployers
      prefer traffic on IPvN — assumption A4 — plus the advertised
      AS-level exit distance) is minimized.
    - {!Host_advertised}: the paper's declined-but-appealing §3.3.2
      alternative — "have the IPvN client use anycast to locate a
      closeby IPvN router and have that router advertise the client's
      temporary IPvN address". The endhost must {!register_endhost}
      first; the advertising member becomes its egress. This gives the
      best exits, but introduces exactly the fate-sharing the paper
      worries about: if the advertiser leaves the deployment, the
      registered route goes stale and journeys fail until the host
      re-registers (exercised in the E9 experiment). Unregistered
      destinations fall back to exit-early. *)

type strategy = Exit_early | Bgp_aware | Proxy | Host_advertised

val strategy_to_string : strategy -> string

type mode =
  | Oracle
      (** centralized shortest-path computation over the fabric — fast
          and convenient for experiments *)
  | Protocol
      (** route on the tables of a real distributed {!Bgpvn} instance;
          the tests assert this agrees with the oracle *)

type t

val create : ?proxy_alpha:float -> ?mode:mode -> Fabric.t -> t
(** [proxy_alpha] (default 0.5) is the weight of one vN-Bone hop
    relative to one IPv(N-1) AS hop in the {!Proxy} combined metric;
    values < 1 encode the deployers' preference for carrying traffic
    on the vN-Bone. [mode] (default [Oracle]) selects how BGPvN routes
    are obtained. *)

val protocol : t -> Bgpvn.t
(** The underlying BGPvN speaker state (lazily created and converged;
    available in either mode for inspection). *)

val fabric : t -> Fabric.t

val egress_to_vn_domain : t -> ingress:int -> domain:int -> int option
(** The member of a participant destination domain that BGPvN routes
    toward from [ingress] (cheapest on the vN-Bone); [None] when the
    domain has no reachable member. *)

val egress_for : t -> strategy:strategy -> ingress:int -> dest:Netcore.Ipv4.t -> int option
(** The member where a packet for [dest] (an address in a non-IPvN
    domain) should leave the vN-Bone, per the strategy. Always returns
    [ingress] for {!Exit_early}; [None] only when [ingress] is not a
    member. *)

val domain_path_length : t -> member:int -> dest:Netcore.Ipv4.t -> int option
(** Length of the BGPv(N-1) AS-level path from the member's domain to
    the destination's covering prefix — what a BGPv(N-1)-aware border
    router compares (Fig 3). *)

(** {1 Host-advertised registrations (§3.3.2)} *)

val register_endhost : t -> endhost:int -> int option
(** The endhost anycasts to find its closest IPvN router, which then
    advertises the host's temporary address into BGPvN. Returns the
    advertising member ([None] when anycast resolution fails).
    Re-registration overwrites the previous advertiser — the paper's
    "endhost would periodically repeat this process in order to adapt
    to spread in deployment". *)

val registered_advertiser : t -> endhost:int -> int option
(** The member currently advertising this endhost, if any. The entry
    may be stale: the member may have left the deployment since. *)

val deregister_endhost : t -> endhost:int -> unit

val registration_stale : t -> endhost:int -> bool
(** True when a registration exists but its advertiser is no longer a
    vN-Bone member — the fate-sharing hazard. *)
