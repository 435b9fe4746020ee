(** BGPvN — the routing protocol the IPvN routers actually run over
    the vN-Bone (paper §3.3.2, "routing between IPvN routers").

    The paper assumes "no specific routing algorithm" and uses BGPvN as
    a stand-in name; here it is a distance-vector protocol whose
    speakers are the vN-Bone members and whose links are the tunnels.
    Two address families are carried:

    - {e vN-domain aggregates}: every member originates its own
      domain's IPvN aggregate at cost 0; costs accumulate tunnel
      underlay metrics. This is how packets for provider-addressed
      IPvN destinations find the destination domain.
    - {e external (proxy) prefixes}: advertising-by-proxy (Fig 4) —
      a member originates an IPv(N-1) prefix at its measured exit
      distance; each vN-Bone hop adds the policy weight [alpha]
      (deployers prefer traffic on IPvN), so the protocol converges on
      [min over egress (alpha * vn_hops + exit_cost)].

    {!Router} can route either on this protocol's tables or on its
    centralized oracle; the test-suite proves the two agree. *)

type dest =
  | Vn_domain of int  (** a participant domain's IPvN aggregate *)
  | External of Netcore.Prefix.t  (** an IPv(N-1) prefix, proxy-advertised *)

type route = {
  rdest : dest;
  cost : float;
  next : int option;  (** next-hop member router; [None] at the origin *)
  egress : int;  (** the member where this route leaves the vN-Bone *)
  vn_hops : int;  (** tunnel hops accumulated *)
}

type t

val create : ?alpha:float -> Fabric.t -> t
(** Fresh speaker state over a fabric. Every member's own-domain
    aggregate is originated automatically; call {!converge}. [alpha]
    defaults to 0.5 (same knob as {!Router.create}). *)

val originate_external : t -> member:int -> prefix:Netcore.Prefix.t -> exit_cost:float -> unit
(** The member proxy-advertises an IPv(N-1) prefix at the given exit
    distance. Takes effect over subsequent {!converge} rounds.
    @raise Invalid_argument when [member] is not a fabric node or the
    cost is negative. *)

val converge : t -> int
(** Synchronous exchange rounds to the fixpoint; returns rounds that
    changed something. *)

val fail_members : t -> alive:(int -> bool) -> unit
(** Member deaths, as tunnel liveness probing reveals them (§3.3: the
    vN-Bone is "easily detected and repaired"). Dead speakers lose
    their tables; live speakers withdraw, to a fixpoint, every route
    whose egress or next hop is dead, whose tunnel is gone, or whose
    cost the next hop no longer justifies (a stale underestimate would
    otherwise anchor the table below reality forever). Dead members
    stop originating. Repair the fabric first
    ({!Fabric.probe_tunnels} then {!Fabric.reanchor}), then call this,
    then {!converge}: distance-vector relaxation from above lands
    exactly on the centralized optimum over the repaired graph — the
    test-suite proves it against the {!Fabric} shortest paths. *)

val route : t -> at:int -> dest -> route option
(** The member's best route for a destination ([None] when unknown or
    [at] is not a member). *)

val routes : t -> at:int -> route list
val table_size : t -> at:int -> int
(** Routes held by one member — BGPvN's per-router state. *)
