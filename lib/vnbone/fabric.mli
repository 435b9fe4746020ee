(** vN-Bone topology construction (paper §3.3.1).

    The vN-Bone is the virtual IPvN network overlaid on the IPv(N-1)
    substrate: its nodes are the IPvN routers (the anycast-group
    members), its edges are tunnels whose weight is the metric of the
    underlying IPv4 path.

    Construction follows the paper:
    - {e intra-domain}: every IPvN router picks its [k] closest IPvN
      domain-mates as neighbors (closeness from the IGP); partitions
      are "easily detected and repaired because every router has
      complete knowledge of all other IPvN routers" — we reconnect
      components through their closest cross pair.
    - {e inter-domain}: participant domains that share a (business)
      link set up a tunnel between their closest member pair. A domain
      left unconnected bootstraps through anycast: it tunnels to the
      nearest foreign member — and every domain is anchored
      (directly or indirectly) to the {e anchor} (the default provider
      under Option 2, the first participant otherwise) so the
      inter-domain vN-Bone cannot partition.

    Tunnel metrics are priced as the IPv4 data plane forwards: by the
    {!Simcore.Forward} oracle, through one memoised forwarding tree per
    destination member ({!Simcore.Forward.toward}). Each call that
    prices pairs — {!build}, {!add_manual_tunnel}, {!reanchor},
    {!mean_vn_stretch} — builds its own trees and
    drops them when it returns; none is kept in {!t}, so a later call
    sees a converge, an IGP recompute or a membership change. *)

type tunnel = {
  from_router : int;
  to_router : int;
  underlay_metric : float;
  kind : [ `Intra | `Inter_policy | `Inter_bootstrap | `Manual ];
}

type t

type discovery =
  | Linkstate_lsdb
      (** members read the full member set out of the LSDB and apply
          the k-closest rule — the paper's default assumption *)
  | Anycast_walk
      (** the footnote-2 fallback for domains on unmodified
          distance-vector IGPs: members cannot enumerate each other, so
          each joiner anycasts {e before} advertising (footnote 4) and
          tunnels to the closest already-joined member, yielding a
          nearest-neighbor join tree *)

val build : ?k:int -> ?anchored:bool -> ?discovery:discovery -> Anycast.Service.t -> t
(** Construct the vN-Bone for the current deployment. [k] defaults to
    2 and only applies under [Linkstate_lsdb] discovery (the default).
    [anchored] (default true) controls the paper's partition-prevention
    rule — "every domain ensure[s] that it is connected ... to the
    default provider"; disabling it is the ablation of experiment E7.
    Re-call after deployment changes (construction is cheap at
    simulation scale). *)

val service : t -> Anycast.Service.t
val members : t -> int array
(** Member router ids, ascending; node [i] of {!graph} is
    [members.(i)]. *)

val graph : t -> Topology.Graph.t
val index_of : t -> int -> int option
(** vN node index of a router id, when it is a member. *)

val tunnels : t -> tunnel list
(** All vN edges with their provenance. *)

val add_manual_tunnel : t -> int -> int -> unit
(** Hand-configured tunnel between two member routers — the MBone
    style the paper expects many ISPs to keep using ("many ISPs might,
    as in the past, simply choose to configure their networks by
    hand"). Weighted by the measured underlay metric like any other
    tunnel; no-op when the pair is already linked.
    @raise Invalid_argument when either router is not a member. *)

val anchor_domain : t -> int option
(** The domain every participant is anchored to; [None] when there are
    no members. *)

val is_connected : t -> bool
(** Whether the whole vN-Bone is one component (vacuously true when
    empty). *)

val vn_distance : t -> int -> int -> float
(** Metric of the cheapest vN-Bone path between two member routers
    (sums of tunnel underlay metrics); [infinity] when disconnected or
    not members. *)

val vn_path : t -> int -> int -> int list option
(** Member-router sequence of the cheapest vN-Bone path, inclusive. *)

val vn_hop_distance : t -> int -> int -> int option
(** Minimum number of vN-Bone tunnel hops between two member routers
    (BFS, ignoring tunnel metrics); [None] when disconnected or not
    members. This is the hop count BGPvN's policy metric charges for. *)

val probe_tunnels : t -> alive:(int -> bool) -> int
(** Tunnel liveness: every tunnel with a dead endpoint (per the
    [alive] predicate over member router ids) fails its probe and is
    torn down — edge removed, record dropped. Returns the number
    removed. A death here means the IPvN process, not the underlying
    IPv4 router: the substrate keeps forwarding. Follow with
    {!reanchor}, which is the repair half of §3.3's claim that
    partitions are "easily detected and repaired". *)

val reanchor : t -> alive:(int -> bool) -> int
(** The paper's partition repair, restricted to survivors: every live
    member must again reach the anchor (default-provider) component,
    so stranded components are merged in through their cheapest live
    cross pair, as bootstrap tunnels. When the anchor domain itself
    lost every member, the first surviving member's component stands
    in. Returns the number of tunnels added. *)

val mean_vn_stretch : t -> float
(** Congruence of the vN-Bone with the physical topology (§3.3.1):
    mean over member pairs of [vn_distance a b] over the IPv4 path
    metric between [a] and [b],
    every pair priced in one pass over the members' forwarding trees.
    1.0 means every vN-Bone path is as good as native IPv4 between the
    same routers; [nan] with fewer than two mutually reachable
    members. *)
