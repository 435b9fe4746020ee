(** The anycast redirection service for one IPvN deployment.

    One anycast group serves each new generation of IP (paper §3.2:
    "a single anycast address is needed to serve each new generation").
    IPvN routers are the group members; participant ISPs advertise the
    group into their IGP, and — depending on the inter-domain option —
    either originate the group's non-aggregatable prefix into BGP
    (Option 1) or rely on the default ISP's covering unicast prefix,
    improved by scoped peering advertisements (Option 2). *)

type strategy =
  | Option1
      (** dedicated non-aggregatable /24, originated into BGP by every
          participant; subject to per-domain propagation policy *)
  | Option2 of { default_domain : int }
      (** prefix carved from the default ISP's /16; plain unicast
          routing carries packets toward the default domain *)
  | Gia of { home_domain : int; radius : int }
      (** the GIA design the paper cites (Katabi et al.): the anycast
          address is rooted in a {e home} domain, so default routes
          always deliver, and participants additionally make
          themselves discoverable within [radius] AS hops (modelling
          GIA's "border routers can initiate searches for nearby
          members"). [radius = 0] behaves like pure Option 2 with no
          peering advertisements; a large radius approaches Option 1. *)

type t

val deploy : Simcore.Forward.env -> version:int -> strategy:strategy -> t
(** Create the (initially empty) deployment for IP generation
    [version]. No participant is enrolled yet; under Option 2 and GIA,
    the anycast prefix is carved out of the default/home domain's /16.
    @raise Invalid_argument if [version] is not in [\[1, 63\]], the
    default/home domain does not exist, or a GIA radius is negative. *)

val env : t -> Simcore.Forward.env
val version : t -> int
val strategy : t -> strategy

val group : t -> Netcore.Prefix.t
(** The anycast prefix of this deployment. *)

val address : t -> Netcore.Ipv4.t
(** The well-known anycast address endhosts send to. *)

val add_participant : t -> domain:int -> routers:int list -> unit
(** The domain deploys IPvN on the given routers (global ids inside
    the domain): they join the anycast group in the domain's IGP, and
    under Option 1 the domain originates the anycast prefix into BGP.
    BGP is re-converged before returning.
    @raise Invalid_argument if a router is outside the domain or the
    list is empty. *)

val add_participants : t -> (int * int list) list -> unit
(** Enroll several domains at once ((domain, routers) pairs) with a
    single BGP re-convergence — what a coordinated rollout (or a test
    over a large internet) wants instead of per-domain convergence.
    Same validation as {!add_participant}. *)

val remove_participant : t -> domain:int -> unit
(** Withdraw the whole domain (IGP withdrawals + BGP origin
    withdrawal). *)

val add_member : t -> router:int -> unit
(** Enroll one more router of an already-participating domain. *)

val remove_member : t -> router:int -> unit

val is_participant : t -> domain:int -> bool
val participants : t -> int list
val members : t -> int list
(** All IPvN routers, ascending. *)

val members_in : t -> domain:int -> int list

val advertise_to_neighbor : t -> from_:int -> to_:int -> unit
(** Option 2 "peering advertisement": participant [from_] advertises
    its anycast route to neighbor [to_] (installed there, not
    re-exported). Re-converges BGP.
    @raise Invalid_argument under Option 1, when [from_] is not a
    participant, or when the domains are not linked. *)

val withdraw_neighbor_advertisement : t -> from_:int -> to_:int -> unit

val resolve_from_endhost : t -> endhost:int -> Simcore.Forward.trace
(** Send a probe to the anycast address from an endhost; the trace's
    outcome identifies the IPvN ingress router the network chose. *)

val ingress_for_endhost : t -> endhost:int -> int option
(** The member router this endhost's packets are redirected to, if
    delivery succeeds. *)
