(** The simulated multi-provider internet.

    A router-level graph partitioned into domains (ISPs/ASes) that are
    linked by inter-domain edges carrying Gao–Rexford relationships,
    plus endhosts attached to access routers. This is the substrate on
    which the paper's anycast redirection (§3.2) and vN-Bones (§3.3)
    are deployed. *)

type router = {
  rid : int;  (** global router id = node in {!graph} *)
  rdomain : int;
  rindex : int;  (** index within the domain *)
  raddr : Netcore.Ipv4.t;
}

type endhost = {
  hid : int;
  hdomain : int;
  hindex : int;
  haddr : Netcore.Ipv4.t;
  access_router : int;  (** global router id of the attachment point *)
}

type domain = {
  did : int;
  prefix : Netcore.Prefix.t;  (** the /16 this domain originates *)
  router_ids : int array;  (** global ids, in domain-index order *)
  endhost_ids : int array;
  is_transit : bool;
}

type interlink = {
  a_domain : int;
  b_domain : int;
  a_router : int;  (** border router on the [a] side, global id *)
  b_router : int;
  rel : Relationship.t;
      (** role of [b_domain] as seen from [a_domain]; e.g. [Provider]
          when [a] buys transit from [b] *)
}

type t = {
  graph : Graph.t;  (** router-level graph: intra + inter-domain links *)
  routers : router array;
  endhosts : endhost array;
  domains : domain array;
  interlinks : interlink list;
  domain_graph : Graph.t;  (** AS-level graph: one node per domain *)
}

(** {1 Accessors} *)

val num_domains : t -> int
val num_routers : t -> int
val router : t -> int -> router
val domain : t -> int -> domain
val endhost : t -> int -> endhost
val router_of_addr : t -> Netcore.Ipv4.t -> router option
val endhost_of_addr : t -> Netcore.Ipv4.t -> endhost option

val domain_of_addr : t -> Netcore.Ipv4.t -> int option
(** The domain originating the longest matching domain prefix, if any. *)

val relationship : t -> of_:int -> to_:int -> Relationship.t option
(** Role of [to_] as seen from [of_], when the two domains are
    directly linked. *)

val neighbor_domains : t -> int -> (int * Relationship.t) list
(** Directly linked domains with their role seen from the argument. *)

val border_routers : t -> int -> int list
(** Global ids of the routers of a domain that terminate at least one
    inter-domain link. *)

val interlinks_between : t -> int -> int -> interlink list
(** All inter-domain links between two domains (in either orientation,
    normalised so that [a_domain] is the first argument). *)

(** {1 Construction} *)

type intra_style =
  | Ring_chords of int  (** ring plus [k] random chords *)
  | Waxman of float * float  (** Waxman alpha, beta; repaired to connected *)
  | Erdos_renyi of float  (** edge probability; repaired to connected *)

type link_weight = Unit_weight | Uniform_weight of float * float

type params = {
  transit_domains : int;
  stubs_per_transit : int;
  routers_per_transit : int;
  routers_per_stub : int;
  endhosts_per_domain : int;
  extra_transit_peering : float;
      (** probability of a second, parallel peering link (a distinct
          border-router pair) between each transit pair, beyond the
          full-mesh transit core *)
  stub_multihoming : float;  (** probability a stub buys a second provider *)
  stub_peering : float;
      (** probability of a peer link between stubs sharing a provider *)
  intra_style : intra_style;
  link_weight : link_weight;
  interlink_weight : float;  (** weight of inter-domain edges *)
  seed : int64;
}

val default_params : params
(** 4 transit domains, 6 stubs each, 12/6 routers, 4 endhosts per
    domain, ring+chords internals, unit weights, seed 42. *)

val build : params -> t
(** Generate a transit–stub internet. The result is connected at both
    the router and the domain level, and every domain's internal
    topology is connected.
    @raise Invalid_argument on non-positive sizes. *)

type domain_spec = { routers : int; endhosts : int; transit : bool }

type link_spec = {
  a : int;
  b : int;
  rel_of_b : Relationship.t;
      (** role of domain [b] as seen from domain [a] — e.g. [Provider]
          when [a] buys transit from [b] *)
}

val build_custom :
  ?seed:int64 ->
  ?intra_style:intra_style ->
  ?link_weight:link_weight ->
  ?interlink_weight:float ->
  domain_spec array ->
  link_spec list ->
  t
(** Build an internet with an explicit domain-level topology — used to
    replicate the paper's figure scenarios exactly. Domain ids are the
    array indices; border routers for each link are drawn
    deterministically from the seed.
    @raise Invalid_argument on out-of-range link endpoints or empty
    domains. *)

type ba_params = {
  ba_domains : int;  (** total domains *)
  ba_seed_clique : int;  (** initial fully-peered core (the tier-1s) *)
  ba_attach : int;  (** providers each newcomer buys transit from *)
  ba_routers_core : int;
  ba_routers_edge : int;
  ba_endhosts_per_domain : int;
  ba_sibling_peering : float;
      (** probability a newcomer also peers with one same-degree domain *)
  ba_seed : int64;
}

val default_ba_params : ba_params
(** 30 domains, 3-clique core, 2 providers each, seed 42. *)

val build_ba : ba_params -> t
(** Preferential-attachment (Barabási–Albert style) internet: domains
    join one by one and buy transit from existing domains chosen with
    probability proportional to degree, yielding the heavy-tailed
    provider degree distribution of the measured AS graph. The core
    clique peers fully, so the policy graph is valley-free-connected.
    Used to check that the reproduction's claims are not artifacts of
    the transit-stub model (experiment E23). *)

val small_example : unit -> t
(** A tiny fixed internet (4 domains) handy for unit tests. *)

val check_invariants : t -> (unit, string) result
(** Structural sanity: ids consistent, addresses match the plan, intra
    connectivity, interlink endpoints in the right domains. Used by the
    test-suite. *)
