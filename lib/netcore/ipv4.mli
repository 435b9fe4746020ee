(** IPv4 addresses.

    Addresses are 32-bit unsigned values. In the reproduction they play
    the role of the paper's ubiquitous IPv(N-1) addresses: the substrate
    over which anycast redirection (§3.2) and vN-Bone tunnels (§3.3)
    run. *)

type t
(** A 32-bit IPv4 address. Values are totally ordered and hashable. *)

val of_int : int -> t
(** [of_int i] builds the address whose 32-bit value is [i land
    0xFFFFFFFF]. *)

external to_int : t -> int = "%identity"
(** [to_int a] is the address value in [\[0, 2^32)]. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is the address [a.b.c.d].
    @raise Invalid_argument if any octet is outside [\[0, 255\]]. *)

val of_string : string -> t
(** Parse dotted-quad notation.
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option

val to_string : t -> string
(** Dotted-quad rendering, e.g. ["10.0.3.1"]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val bit : t -> int -> bool
(** [bit a i] is bit [i] of the address, where bit 0 is the most
    significant bit (network side) and bit 31 the least significant.
    @raise Invalid_argument if [i] is outside [\[0, 31\]]. *)

val succ : t -> t
(** Next address, wrapping at the top of the space. *)

val add : t -> int -> t
(** [add a k] offsets [a] by [k] addresses (mod 2^32). *)

val any : t
(** [0.0.0.0]. *)

val broadcast : t
(** [255.255.255.255]. *)
