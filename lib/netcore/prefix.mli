(** CIDR prefixes over {!Ipv4} addresses.

    A prefix is a network address plus a mask length. The paper's
    Option 1 inter-domain anycast (§3.2) revolves around "non-aggregatable"
    prefixes (longer than the /22 commonly accepted for global
    propagation); {!is_globally_routable} encodes that policy line. *)

type t
(** A CIDR prefix. The network address is kept in canonical form: all
    host bits are zero. *)

val make : Ipv4.t -> int -> t
(** [make addr len] is the prefix [addr/len] with host bits cleared.
    @raise Invalid_argument if [len] is outside [\[0, 32\]]. *)

val of_string : string -> t
(** Parse ["a.b.c.d/len"]. @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
val network : t -> Ipv4.t
val length : t -> int
val to_string : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool

val mem : Ipv4.t -> t -> bool
(** [mem addr p] is true when [addr] lies inside [p]. *)

val subsumes : t -> t -> bool
(** [subsumes outer inner] is true when every address of [inner] lies in
    [outer]. *)

val split : t -> t * t
(** [split p] halves [p] into its two children [p0/len+1] and
    [p1/len+1]. @raise Invalid_argument when [length p = 32]. *)

val host : t -> int -> Ipv4.t
(** [host p i] is the [i]-th address inside [p].
    @raise Invalid_argument if [i] does not fit in the host bits. *)

val size : t -> int
(** Number of addresses covered, as an int (safe: 2^32 fits). *)

val is_globally_routable : t -> bool
(** True when the prefix is no longer than the /22 that the paper deems
    acceptable for propagation in today's inter-domain routing. *)

val global_routability_limit : int
(** The /22 boundary used by {!is_globally_routable}. *)
