(** Inter-domain path-vector routing (BGP) with Gao–Rexford policies —
    the unmodified protocol that, per §3.2, carries the new
    generation's anycast prefix as a policy matter.

    Domains originate prefixes and exchange per-prefix routes with
    their neighbors under the standard policy discipline: prefer
    customer routes over peer routes over provider routes, export
    customer routes to everyone but peer/provider routes only to
    customers. Under these rules the protocol provably converges; we
    iterate synchronous rounds to the unique stable state.

    The paper's two inter-domain anycast options map onto this module:

    - {e Option 1} (non-aggregatable global anycast routes): several
      domains {!originate} the same anycast prefix; per-domain
      willingness to carry such prefixes is the {!config}'s
      [propagate] filter ("a change in policy ... on the part of an
      ISP").
    - {e Option 2} (default-ISP rooted): only the default ISP's /16
      covers the anycast address, so unmodified BGP already delivers
      toward the default domain; participants may additionally place
      scope-limited advertisements at chosen neighbors with
      {!advertise_scoped} ("Q can peer with Y to advertise its path for
      the anycast address"). *)

type route = {
  prefix : Netcore.Prefix.t;
  as_path : int list;
      (** [head] is the owning domain itself, [last] the originator *)
  pref : int;  (** local preference; origination beats any learned route *)
  no_export : bool;  (** scoped advertisement: never re-exported *)
  scope : int option;
      (** remaining export radius in AS hops: [Some 0] is not exported
          further, [None] is unlimited. Radius-limited origination is
          how GIA-style "search for nearby members" advertisements are
          modelled. *)
}

type config = {
  propagate : int -> Netcore.Prefix.t -> bool;
      (** [propagate d p]: is domain [d] willing to import/carry prefix
          [p]? Default: always true. Option-1 experiments restrict
          non-participants here. *)
}

type t
(** Mutable protocol state over one {!Topology.Internet.t}. *)

val default_config : config
val create : ?config:config -> Topology.Internet.t -> t

val originate : t -> domain:int -> Netcore.Prefix.t -> unit
(** Domain starts originating the prefix. Multiple domains may
    originate the same prefix (anycast Option 1). Takes effect on the
    next {!converge}. *)

val withdraw_origin : t -> domain:int -> Netcore.Prefix.t -> unit

val originate_limited : t -> domain:int -> radius:int -> Netcore.Prefix.t -> unit
(** Originate with a bounded export radius: the route reaches domains
    at most [radius] AS hops away (subject to the usual policy rules)
    and is silently dropped beyond. [radius = 0] keeps it local. Used
    by the GIA-style anycast deployment, where members make themselves
    discoverable only within a search radius.
    @raise Invalid_argument on negative radius. *)

val withdraw_limited : t -> domain:int -> Netcore.Prefix.t -> unit

val originate_all_domain_prefixes : t -> unit
(** Every domain originates its own /16 — the normal unicast
    substrate. *)

val advertise_scoped : t -> from_:int -> to_:int -> Netcore.Prefix.t -> unit
(** One-hop advertisement of [prefix] from a participant to a directly
    linked neighbor; the neighbor installs it (subject to preference)
    but never re-exports it.
    @raise Invalid_argument when the domains are not linked. *)

val withdraw_scoped : t -> from_:int -> to_:int -> Netcore.Prefix.t -> unit

val step : t -> bool
(** One synchronous exchange round; true when any RIB changed. *)

val converge : t -> int
(** Iterate to the stable state; returns rounds executed. *)

val route_to : t -> domain:int -> Netcore.Prefix.t -> route option
(** The chosen route of a domain for exactly this prefix ([None] when
    it has no route). *)

val lookup : t -> domain:int -> Netcore.Ipv4.t -> route option
(** Longest-prefix-match over the domain's RIB. *)

val next_hop_domain : route -> int option
(** The neighbor the route goes through; [None] for self-originated
    routes. *)

val as_path_length : route -> int

val rib_size : t -> domain:int -> int
(** Number of prefixes in the domain's RIB — the routing-state metric
    of experiment E5. *)

val rib : t -> domain:int -> route list
val internet : t -> Topology.Internet.t

val egress_link : t -> domain:int -> Netcore.Prefix.t -> Topology.Internet.interlink option
(** The inter-domain link the domain's chosen route for the covering
    prefix uses (deterministically the lowest-numbered link to the
    next-hop domain); [None] for local or unreachable prefixes. *)

val egress_links :
  t -> domain:int -> (Netcore.Prefix.t * Topology.Internet.interlink) list
(** Every prefix of the domain's {!rib}, in RIB order, paired with its
    {!egress_link}; prefixes without one are left out. Equal to calling
    {!egress_link} per prefix, but each neighbour's link is chosen once
    — the per-domain half of FIB compilation (§3.2's data-plane
    state). *)

val domain_path : t -> src:int -> Netcore.Ipv4.t -> int list option
(** The AS-level path from [src] to the address's best-matching prefix:
    [src] first, originator last. [None] when unreachable. *)
