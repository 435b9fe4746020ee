(** Packets: the IPv4 substrate header and the IPvN header it may
    encapsulate.

    The paper's universal-access mechanism is "encapsulate an IPvN
    packet in an IPv4 packet addressed to the well-known anycast
    address"; this module is that encapsulation. *)

type vn = {
  version : int;  (** the IPvN generation *)
  vsrc : Ipvn.t;
  vdst : Ipvn.t;
  vttl : int;  (** hop budget at the IPvN layer (vN-Bone hops) *)
  dest_v4_hint : Ipv4.t option;
      (** the destination's IPv(N-1) address when carried "in a separate
          option field in the IPvN header" (paper, §3.3.2); [None] when
          the sender relies on inference from a self-address. *)
  body : string;
}
(** An IPvN packet. *)

type payload =
  | Data of string  (** ordinary IPv4 traffic *)
  | Encap of vn  (** an IPvN packet tunneled over IPv4 *)

type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  ttl : int;  (** hop budget at the IPv4 layer *)
  payload : payload;
}
(** An IPv4 packet. *)

val default_ttl : int
(** Initial hop budget (64). *)

val make_data : src:Ipv4.t -> dst:Ipv4.t -> string -> t
(** A plain IPv4 data packet with the default TTL. *)

val make_vn :
  version:int ->
  vsrc:Ipvn.t ->
  vdst:Ipvn.t ->
  ?dest_v4_hint:Ipv4.t ->
  string ->
  vn
(** An IPvN packet with the default vTTL.
    @raise Invalid_argument if the source or destination version
    disagrees with [version]. *)

val encapsulate : src:Ipv4.t -> dst:Ipv4.t -> vn -> t
(** Wrap an IPvN packet in an IPv4 packet (fresh IPv4 TTL). *)

val decapsulate : t -> vn option
(** The IPvN packet inside, if any. *)

val decrement_ttl : t -> t option
(** [None] once the hop budget is exhausted. *)

val dest_ipv4 : vn -> Ipv4.t option
(** The destination's IPv4 address as recoverable by an IPvN router:
    the explicit header hint if present, else the address embedded in a
    self-assigned destination, else [None]. *)
