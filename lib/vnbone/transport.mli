(** End-to-end IPvN transport between endhosts under partial
    deployment — the paper's full universal-access data path:

    + the source endhost addresses an IPvN packet (self-assigned
      address when its own domain has not deployed) and encapsulates
      it toward the well-known anycast address;
    + anycast redirection steers it to the closest IPvN ingress;
    + BGPvN carries it across the vN-Bone to the chosen egress;
    + the egress tunnels it over IPv(N-1) to the destination.

    A {!journey} records every leg with its underlying IPv4 trace, so
    experiments can count how much of the path ran on the vN-Bone.
    This module is the only implementation of the journey: it decides
    the leg sequence, the egress and how a journey fails, whichever
    IPv4 forwarder carries the legs ({!send_over}). *)

type leg =
  | Access of Simcore.Forward.trace
      (** source endhost → ingress member, via anycast *)
  | Vn of { from_router : int; to_router : int; underlay : Simcore.Forward.trace }
      (** one vN-Bone tunnel hop with its underlay path *)
  | Exit of Simcore.Forward.trace
      (** egress member → destination endhost, over IPv(N-1) *)

type failure =
  | No_ingress  (** anycast redirection failed: universal access broken *)
  | Vn_unreachable  (** no vN-Bone path from ingress to chosen egress *)
  | Exit_failed  (** the final IPv(N-1) leg did not deliver *)
  | Vttl_expired

type journey = {
  legs : leg list;
  ingress : int option;
  egress : int option;
  packet : Netcore.Packet.vn;
  result : (unit, failure) Stdlib.result;
}

val vn_address_of_endhost : Anycast.Service.t -> endhost:int -> Netcore.Ipvn.t
(** Provider-assigned when the endhost's domain participates,
    self-assigned (paper §3.3.2 / RFC 3056) otherwise. *)

val send_over :
  Router.t ->
  forward:(Netcore.Packet.t -> entry:int -> Simcore.Forward.trace) ->
  strategy:Router.strategy ->
  src:int ->
  dst:int ->
  payload:string ->
  journey
(** Send an IPvN packet between two endhosts (ids), carrying every
    underlay leg — access, each vN-Bone tunnel, exit — with
    [forward packet ~entry], which forwards one IPv4 packet from router
    [entry] to a verdict. The strategy governs egress selection when
    the destination domain has not deployed IPvN; destinations in
    participant domains always use BGPvN's own routes. A leg that
    fails is kept in the journey with the hops it crossed before the
    drop. Experiment E29 passes {!Dataplane.Pump.inject} to run the
    journey over compiled FIB snapshots; the forwarder must see the
    same internet as the router's fabric. *)

val send :
  Router.t ->
  strategy:Router.strategy ->
  src:int ->
  dst:int ->
  payload:string ->
  journey
(** {!send_over} with the control-plane oracle
    {!Simcore.Forward.forward} over the fabric's env. *)

val delivered : journey -> bool
val total_hops : journey -> int
val vn_hops : journey -> int
(** Underlay hops spent inside vN-Bone legs. *)

val access_hops : journey -> int
val exit_hops : journey -> int

val vn_fraction : journey -> float
(** [vn_hops / total_hops]; 0 when the journey has no hops. *)

val last_vn_router : journey -> int option
(** The last IPvN router that handled the packet (Fig 3's "last IPvN
    hop"). *)

val pp_journey : Topology.Internet.t -> Format.formatter -> journey -> unit
(** Leg-by-leg rendering — addresses, per-leg router paths, the
    failure if any. What [evolvenet sim --verbose] prints. *)
