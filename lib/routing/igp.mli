(** A unified view over the two intra-domain routing families.

    The paper requires its mechanisms to work whether a domain runs a
    link-state or a distance-vector IGP (§3.2), with one capability
    difference that drives vN-Bone construction: link-state reveals the
    anycast member set, plain distance-vector does not (footnote 2).
    This wrapper lets the forwarding plane, the anycast service and the
    vN-Bone treat domains uniformly while preserving that difference. *)

type flavor = Linkstate_igp | Distvec_igp

type t

type anycast_decision = {
  deliver : bool;  (** the querying router is itself a member *)
  next_hop : int;  (** meaningful when not delivering *)
  metric : float;
  member : int option;
      (** the chosen member — [None] under distance-vector, which only
          knows distances *)
}

val compute : Topology.Internet.t -> domain:int -> flavor:flavor -> t
(** Build (and, for distance-vector, converge) the domain's routing
    state. *)

val flavor : t -> flavor

val members_known : t -> bool
(** True exactly for link-state: members can enumerate one another. *)

val distance : t -> src:int -> dst:int -> float
val next_hop : t -> src:int -> dst:int -> int option

val advertise_anycast : t -> group:Netcore.Prefix.t -> member:int -> unit
(** Membership change; distance-vector re-converges internally. *)

val withdraw_anycast : t -> group:Netcore.Prefix.t -> member:int -> unit

val groups : t -> Netcore.Prefix.t list
(** Groups with at least one member in this domain (tracked for both
    flavors — any router knows which anycast prefixes are locally
    live, it just may not know {e who} serves them). *)

val anycast_route : t -> src:int -> group:Netcore.Prefix.t -> anycast_decision option

val anycast_members : t -> group:Netcore.Prefix.t -> int list option
(** [Some members] under link-state; [None] under distance-vector —
    the capability gap that forces anycast-walk vN-Bone discovery. *)
