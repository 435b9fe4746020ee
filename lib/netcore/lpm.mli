(** Longest-prefix-match tables.

    A persistent binary trie from {!Prefix} keys to arbitrary values,
    with longest-match lookup — the core forwarding-table structure for
    both the IPv4 substrate and the anycast routing experiments, where
    §3.2's non-aggregatable anycast prefixes sit alongside ordinary
    unicast routes.

    A table has one of two forms. A trie serves every operation and is
    what incremental writers (the BGP RIBs, updated one prefix at a
    time) keep. A frozen table, built by {!freeze} straight from a
    binding list, is for tables that are only read — a compiled FIB
    snapshot, looked up on every hop: it holds its bindings sorted and
    the address space cut into the maximal intervals over which the
    longest match's value is constant, so that {!lookup_value} is a
    binary search instead of a walk of up to 32 nodes. It keeps no
    trie. *)

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
    A hit returns a [Some] cell the table already stores, the same cell
    on every lookup of the address, so no lookup allocates. On a trie
    it is the matching binding's own cell. On a frozen table it is a
    binary search over the interval starts, returning the interval's
    cell: its value is [equal] (under {!freeze}'s [equal]) to the
    longest match's value, but it need not be that binding's cell. *)

val freeze : equal:('a -> 'a -> bool) -> (Prefix.t * 'a) list -> 'a t
(** [freeze ~equal bindings] is the frozen table of [bindings], read as
    a sequence of {!add}s: where a prefix is bound more than once, the
    last binding wins. It holds those bindings sorted by
    {!Prefix.compare} and the maximal address intervals over which the
    longest match's value is constant under [equal] (no match counts
    as one more value): at most [2 * cardinal + 1] intervals, no two
    adjacent ones holding equal values, each holding one [Some] cell
    allocated here. It keeps no trie: {!find_exact} is a binary search
    over the sorted prefixes, {!lookup} tries them from /32 down,
    {!fold}, {!iter}, {!bindings} and {!cardinal} read them in
    {!Prefix.compare} order, and {!add}, {!remove} and {!map} return an
    unfrozen trie built from them. Costs one sort and one sweep over
    the bindings. A frozen table holds no lazy or mutable state, so it
    may be shared read-only across domains. *)

val fold : (Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over all bindings, in {!Prefix.compare} order. *)

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
