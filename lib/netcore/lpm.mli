(** Longest-prefix-match tables.

    A persistent binary trie from {!Prefix} keys to arbitrary values,
    with longest-match lookup — the core forwarding-table structure for
    both the IPv4 substrate and the anycast routing experiments, where
    §3.2's non-aggregatable anycast prefixes sit alongside ordinary
    unicast routes.

    A table has one of two forms. A trie serves every operation and is
    what incremental writers (the BGP RIBs, updated one prefix at a
    time) keep. A frozen table is for tables that are only read — a
    compiled FIB snapshot, looked up on every hop: it holds its
    bindings sorted and the address space cut into the maximal
    intervals over which the longest match's value is constant, so
    that a lookup is a binary search instead of a walk of up to 32
    nodes. It keeps no trie. Each interval carries an int {e tag} of
    its value, given by the caller when the table is built, and the
    interval starts and tags sit interleaved in one int array: a line
    card's lookup ({!lookup_tag}) reads that array alone and follows
    no pointer.

    A frozen table is built in two steps. A {!layout} depends only on a
    sequence of prefixes: it sorts them and cuts the address space, in
    one sweep, into elementary intervals, each naming the innermost
    prefix that covers it. A {!fill} then freezes one table over a
    layout from one value per distinct prefix, without sorting or
    sweeping the prefixes again. Many tables that bind the same prefixes to
    different values — the routers of one domain — share one layout.
    {!freeze} is a layout and a fill of one binding list. *)

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
(** The value of {!lookup}, without its prefix. A hit returns a [Some]
    cell the table already stores, the same cell on every lookup of the
    address, so no lookup allocates. On a trie it is the matching
    binding's own cell. On a frozen table it is a binary search over
    the interval starts, returning the interval's cell: its value has
    the tag (under the [tag] it was filled with) of the longest match's
    value, but it need not be that binding's cell. *)

val no_tag : int
(** The tag of "no bound prefix covers the address": [min_int]. No
    value may have it ({!fill} refuses one). *)

val lookup_tag : Ipv4.t -> 'a t -> int
(** [lookup_tag addr t] is the tag of the longest match's value in the
    frozen table [t], or {!no_tag} when no bound prefix covers [addr]:
    the per-packet lookup of a forwarding kernel. A binary search over
    one int array that allocates nothing and dereferences no value.
    @raise Invalid_argument when [t] is a trie, not frozen: only
    compiled tables are looked up by tag. *)

type layout
(** The prefix-dependent half of a frozen table: a sequence of
    prefixes, its distinct prefixes in {!Prefix.compare} order (each
    before the longer ones it covers), the prefix enclosing each, and
    the elementary intervals they cut the address space into (at most
    [2 * distinct + 1]), each naming its innermost covering prefix.
    Immutable, so any number of {!fill}s may share it. *)

val layout : Prefix.t array -> layout
(** [layout ps] is the layout of [ps], duplicates allowed. Costs one
    sort of [ps] (as ints) and one sweep over its distinct prefixes. *)

val slots : layout -> int
(** The number of distinct prefixes: a {!fill}'s value count. *)

val slot : layout -> int -> int
(** [slot l i] is the slot of the i-th prefix given to {!layout}: its
    rank among the distinct prefixes in {!Prefix.compare} order. Equal
    prefixes share a slot. *)

val fill : tag:('a -> int) -> layout -> 'a option array -> 'a t
(** [fill ~tag l values] is the frozen table binding the prefix of
    each slot [s] to [v] where [values.(s) = Some v]. A prefix whose
    slot holds [None] is not bound, so its addresses fall through to
    the innermost bound prefix enclosing it. The table holds the bound
    prefixes sorted by {!Prefix.compare} and the maximal address
    intervals over which the tag of the longest match's value is
    constant ({!no_tag} where none matches): at most
    [2 * cardinal + 1] intervals, no two adjacent ones holding equal
    tags, each holding its tag and one of [values]' own [Some] cells
    (or [None]). [tag] is called once per bound slot, so merging
    neighbours costs an int comparison; it should be injective on the
    values that must stay apart. It keeps no trie: {!find_exact} is a
    binary search over the sorted prefixes, {!lookup} tries them from
    /32 down, {!fold}, {!iter}, {!bindings} and {!cardinal} read them
    in {!Prefix.compare} order, and {!add}, {!remove} and {!map} return
    an unfrozen trie built from them. Costs a pass over the slots and
    two over the elementary intervals (one counts the intervals, one
    writes them into arrays of that size), with no sort. A frozen table
    holds no lazy or mutable state, so it may be shared read-only
    across domains.
    @raise Invalid_argument unless [values] holds {!slots}[ l] values,
    or when a value's tag is {!no_tag}. *)

val freeze : tag:('a -> int) -> (Prefix.t * 'a) list -> 'a t
(** [freeze ~tag bindings] is the frozen table of [bindings], read as
    a sequence of {!add}s: where a prefix is bound more than once, the
    last binding wins. It is the {!fill} of the bindings' values over
    the {!layout} of their prefixes: one sort, one sweep and one fill.
    @raise Invalid_argument when a value's tag is {!no_tag}. *)

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
