(** Longest-prefix-match tables.

    A persistent binary trie from {!Prefix} keys to arbitrary values,
    with longest-match lookup — the core forwarding-table structure for
    both the IPv4 substrate and the anycast routing experiments, where
    §3.2's non-aggregatable anycast prefixes sit alongside ordinary
    unicast routes.

    A table has two read layouts. The trie serves every operation and
    is what incremental writers (the BGP RIBs, updated one prefix at a
    time) keep. {!freeze} adds a flat one for tables that are only read
    — a compiled FIB snapshot, looked up on every hop: the address
    space cut into the intervals over which the longest match is
    constant, so that {!lookup_value} is a binary search instead of a
    walk of up to 32 nodes. *)

type 'a t
(** A table mapping prefixes to values of type ['a]. Persistent:
    operations return new tables. *)

val empty : 'a t
val is_empty : 'a t -> bool

val add : Prefix.t -> 'a -> 'a t -> 'a t
(** [add p v t] binds [p] to [v], replacing any previous binding of
    exactly [p]. Bindings for other (longer or shorter) prefixes are
    unaffected. *)

val remove : Prefix.t -> 'a t -> 'a t
(** Remove the binding for exactly [p], if any. *)

val find_exact : Prefix.t -> 'a t -> 'a option
(** The value bound to exactly [p]. *)

val lookup : Ipv4.t -> 'a t -> (Prefix.t * 'a) option
(** [lookup addr t] is the binding with the longest prefix containing
    [addr], or [None] when no bound prefix covers it. *)

val lookup_value : Ipv4.t -> 'a t -> 'a option
(** The value of {!lookup}, without its prefix: the per-packet lookup.
    A hit returns the [Some] cell the table stores for the matching
    binding, the same cell on every lookup, so no lookup allocates. On
    a frozen table it is a binary search over the interval starts. *)

val freeze : 'a t -> 'a t
(** [freeze t] has exactly the bindings of [t] and adds the flat read
    layout: the maximal address intervals on which the longest match
    is one binding (or none), at most [2 * cardinal t + 1] of them,
    each holding that binding's own [Some] cell. Only {!lookup_value}
    reads the layout; every other read sees the trie [t], and {!add}
    and {!remove} on a frozen table return an unfrozen one. Freezing a
    frozen table returns it. Costs two walks of the trie; meant for
    tables that are built once and then only read, which may then be
    shared read-only across domains. *)

val fold : (Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over all bindings, in unspecified order. *)

val iter : (Prefix.t -> 'a -> unit) -> 'a t -> unit
val bindings : 'a t -> (Prefix.t * 'a) list
(** All bindings sorted by {!Prefix.compare}. *)

val cardinal : 'a t -> int
(** Number of bound prefixes. *)

val of_list : (Prefix.t * 'a) list -> 'a t

val map : ('a -> 'b) -> 'a t -> 'b t
(** The same prefixes bound to [f] of their values; not frozen. *)

val union : (Prefix.t -> 'a -> 'a -> 'a) -> 'a t -> 'a t -> 'a t
(** [union f a b] contains every binding of [a] and [b]; prefixes bound
    in both are merged with [f]. *)
