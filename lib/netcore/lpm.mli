(** Longest-prefix-match tables.

    A persistent binary trie from {!Prefix} keys to arbitrary values,
    with longest-match lookup — the core forwarding-table structure for
    both the IPv4 substrate and the anycast routing experiments, where
    §3.2's non-aggregatable anycast prefixes sit alongside ordinary
    unicast routes.

    A table has one of two forms. A trie serves every operation and is
    what incremental writers (the BGP RIBs, updated one prefix at a
    time) keep. A frozen table is for tables that are only read — a
    compiled FIB snapshot, looked up on every hop: it keeps no trie,
    so that a lookup is a binary search instead of a walk of up to 32
    nodes.

    A frozen table is built in two steps. A {!layout} depends only on a
    sequence of prefixes: it sorts them and cuts the address space, in
    one sweep, into elementary intervals, each naming the innermost
    prefix that covers it. A {!fill} then freezes one table over a
    layout from one value per distinct prefix, without sorting or
    sweeping the prefixes again. Many tables that bind the same prefixes to
    different values — the routers of one domain — share one layout.
    {!freeze} is a layout and a fill of one binding list.

    A frozen table's intervals are its layout's elementary intervals,
    and it shares the layout's array of their starts. Besides it holds
    one int {e tag} per interval, the tag of the longest match's value
    there (the caller gives [tag] when the table is filled), and its
    bound values. So an interval index means the same addresses in
    every table filled over one layout. A line card's lookup reads the
    starts and the tags and follows no value pointer: {!interval} finds
    an address's interval, testing a hint first, and {!interval_tag}
    reads its tag. A walk that carries the index from one router's
    table to the next one's searches once per layout it enters.
    {!lookup_tag} is the same lookup with no hint. *)

type 'a t
(** A table mapping prefixes to values of type ['a]. Persistent:
    operations return new tables. *)

val empty : 'a t

val add : Prefix.t -> 'a -> 'a t -> 'a t
(** [add p v t] binds [p] to [v], replacing any previous binding of
    exactly [p]. Bindings for other (longer or shorter) prefixes are
    unaffected. *)

val remove : Prefix.t -> 'a t -> 'a t
(** Remove the binding for exactly [p], if any. *)

val find_exact : Prefix.t -> 'a t -> 'a option
(** The value bound to exactly [p]. *)

val lookup_value : Ipv4.t -> 'a t -> 'a option
(** [lookup_value addr t] is the value bound to the longest prefix
    containing [addr], or [None] when no bound prefix covers it. A hit
    returns a [Some] cell the table already stores, the same cell on
    every lookup of the address, so no lookup allocates. On a trie it
    is the matching binding's own cell. On a frozen table it is a
    binary search over the interval starts, then a climb from the
    interval's innermost prefix up its enclosing ones to the first the
    table binds: that binding's cell, one of the [Some] cells the table
    was filled with. *)

val no_tag : int
(** The tag of "no bound prefix covers the address": [min_int]. No
    value may have it ({!fill} refuses one). *)

val lookup_tag : Ipv4.t -> 'a t -> int
(** [lookup_tag addr t] is the tag of the longest match's value in the
    frozen table [t], or {!no_tag} when no bound prefix covers [addr]:
    {!interval_tag} of {!interval} with no hint. A binary search over
    the layout's interval starts, then one read of the table's tags;
    it allocates nothing and dereferences no value.
    @raise Invalid_argument when [t] is a trie, not frozen: only
    compiled tables are looked up by tag. *)

val interval : 'a t -> Ipv4.t -> near:int -> int
(** [interval t addr ~near] is the index of the interval of the frozen
    table [t] that holds [addr]: the per-packet lookup of a forwarding
    kernel. It first tests the hint [near]: when [near] is an index of
    [t] whose interval holds [addr] (two reads of the starts, two
    comparisons), that is the answer; otherwise it binary-searches the
    starts. Any int is a safe hint: the test compares [addr] with
    [t]'s own starts, so an index out of range is a miss, and one from
    another layout costs at most a search, never a wrong answer. Interval 0 always
    exists, so it is a valid first hint. The result is the same for
    every hint, and for every table filled over [t]'s layout.
    Allocates nothing.
    @raise Invalid_argument when [t] is not frozen. *)

val interval_tag : 'a t -> int -> int
(** [interval_tag t i] is the tag of the longest match's value over
    interval [i] of the frozen table [t] ({!no_tag} where none
    matches), for an [i] that {!interval} returned on [t]: so
    [interval_tag t (interval t addr ~near)] is [lookup_tag addr t]
    for any [near].
    @raise Invalid_argument when [t] is not frozen, or [i] is not one
    of its intervals. *)

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
    the innermost bound prefix enclosing it. The table's intervals are
    [l]'s elementary ones, whatever it binds: it shares [l]'s starts
    and holds one tag per interval, the tag of the longest match's
    value there ({!no_tag} where none matches), so neighbours with
    equal tags are not merged. It keeps [values]' own [Some] cells, in
    a copy of the array, and no other per-interval or per-binding
    block. [tag] is called once per bound slot; it should be injective
    on the values that must stay apart. It keeps no trie: {!find_exact}
    is a binary search over [l]'s sorted prefixes, {!fold},
    {!bindings} and {!cardinal} read the bound ones in
    {!Prefix.compare} order, and {!add} and {!remove} return an
    unfrozen trie built from them. Costs a pass
    over the slots and one over the elementary intervals, with no sort
    and no merge. A frozen table holds no lazy or mutable state, so it
    may be shared read-only across domains.
    @raise Invalid_argument unless [values] holds {!slots}[ l] values,
    or when a value's tag is {!no_tag}. *)

val freeze : tag:('a -> int) -> (Prefix.t * 'a) list -> 'a t
(** [freeze ~tag bindings] is the frozen table of [bindings], read as
    a sequence of {!add}s: where a prefix is bound more than once, the
    last binding wins. It is the {!fill} of the bindings' values over
    the {!layout} of their prefixes, a layout of its own: one sort, one
    sweep and one fill.
    @raise Invalid_argument when a value's tag is {!no_tag}. *)

val fold : (Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over all bindings, in {!Prefix.compare} order. *)

val bindings : 'a t -> (Prefix.t * 'a) list
(** All bindings sorted by {!Prefix.compare}. *)

val cardinal : 'a t -> int
(** Number of bound prefixes. *)

val of_list : (Prefix.t * 'a) list -> 'a t

val union : (Prefix.t -> 'a -> 'a -> 'a) -> 'a t -> 'a t -> 'a t
(** [union f a b] contains every binding of [a] and [b]; prefixes bound
    in both are merged with [f]. *)
