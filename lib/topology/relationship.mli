(** Inter-domain business relationships (Gao–Rexford model) — the
    policy substrate over which §3.2's anycast prefixes propagate and
    §2's adoption incentives are computed.

    The value names the role the {e remote} domain plays for the local
    one: if domain [a] buys transit from [b], then seen from [a] the
    relationship is [Provider], and seen from [b] it is [Customer]. *)

type t = Customer | Peer | Provider

val invert : t -> t
(** The same relationship seen from the other side. *)

val to_string : t -> string
val equal : t -> t -> bool

val export_allowed : learned_from:t -> to_:t -> bool
(** Gao–Rexford export rule: a route learned from [learned_from] may be
    announced to a neighbor in role [to_] only if the route came from a
    customer, or the neighbor is a customer. Keeping to this rule makes
    policy routing convergent (no dispute wheels). *)

val local_preference : t -> int
(** Route-selection preference by the role of the neighbor the route
    was learned from: customer routes are preferred over peer routes
    over provider routes. Larger is better. *)
