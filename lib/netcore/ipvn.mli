(** Addresses for a next-generation IP ("IPvN").

    The paper deliberately places no constraint on IPvN addressing
    beyond what universal access (§2.1) forces: an endhost whose access
    provider has not deployed IPvN must be able to assign itself a
    temporary address (§3.3.2). Following the paper (and RFC 3056), a
    self-address uses one flag bit and embeds the host's unique
    IPv(N-1) — here IPv4 — address in the remaining bits.

    Provider-assigned addresses carry the assigning domain, so vN-Bone
    routing can advertise them as a per-domain aggregate. *)

type t
(** An IPvN address: a protocol version (the "N") plus a 64-bit value. *)

val version : t -> int
(** The IP generation this address belongs to (e.g. 8 for "IPv8"). *)

val self_of_ipv4 : version:int -> Ipv4.t -> t
(** [self_of_ipv4 ~version a] is the temporary self-assigned address an
    endhost with IPv4 address [a] gives itself, per the paper's
    one-flag-bit construction.
    @raise Invalid_argument if [version] is outside [\[1, 255\]]. *)

val provider : version:int -> domain:int -> host:int -> t
(** [provider ~version ~domain ~host] is the address a participating
    ISP ([domain]) assigns to its [host]-th IPvN endpoint.
    @raise Invalid_argument if any field is out of range
    ([version] in [\[1,255\]], [domain] in [\[0, 2^20)], [host] in
    [\[0, 2^31)]). *)

val is_self : t -> bool
(** True for self-assigned (temporary) addresses. *)

val embedded_ipv4 : t -> Ipv4.t option
(** For a self-address, the IPv4 address it was derived from. This is
    the hook the paper's egress-selection options use: the destination's
    IPv(N-1) address "inferred from its temporary IPvN address". *)

val domain : t -> int option
(** For a provider-assigned address, the assigning domain. *)

val host : t -> int option
(** For a provider-assigned address, the host index within its domain. *)

val raw_ipv4 : t -> Ipv4.t
(** Allocation-free companion of {!embedded_ipv4} for the wire
    encoder's per-packet path; meaningful only when {!is_self}. *)

val raw_domain : t -> int
(** Allocation-free companion of {!domain}; meaningful only when the
    address is provider-assigned (not {!is_self}). *)

val raw_host : t -> int
(** Allocation-free companion of {!host}; meaningful only when the
    address is provider-assigned (not {!is_self}). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
