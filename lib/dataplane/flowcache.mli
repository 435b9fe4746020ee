(** Per-router flow cache in front of the compiled FIB.

    The paper's routing-state concern (§3.2: anycast routes are
    non-aggregatable, so FIBs grow with deployment) makes the
    longest-prefix match the expensive step of every hop. A real line
    card hides that cost behind an exact-match flow cache; this module
    is that cache: a direct-mapped (address → action) array indexed by
    a multiplicative hash of the destination (raw low bits would alias
    the whole internet onto a few slots, since endhost addresses are
    /16-aligned), with hit/miss/eviction counters so experiments can
    report how much locality the workload has.

    A slot holds a [Some] cell and a hit returns that very cell. The
    data plane fills slots with the FIB's own cells ({!refill}), so
    neither a hit nor a miss allocates.

    Entries are forwarding decisions, so the cache must be {!clear}ed
    whenever the FIB snapshot it fronts is recompiled. *)

type 'a t
(** A direct-mapped cache from {!Netcore.Ipv4.t} to ['a]. *)

type stats = { hits : int; misses : int; evictions : int; occupied : int }

val create : slots:int -> 'a t
(** A cache with at least [slots] slots (rounded up to a power of
    two), all empty. @raise Invalid_argument when [slots <= 0], or
    when the rounded count would exceed [Sys.max_array_length]. *)

val capacity : 'a t -> int
(** The actual (power-of-two) slot count. *)

val lookup : 'a t -> Netcore.Ipv4.t -> 'a option
(** The cached value for this exact address, counting a hit or a
    miss. A slot occupied by a different address is a miss. *)

val refill : 'a t -> Netcore.Ipv4.t -> 'a option -> unit
(** [refill t addr cell] installs the value of a [Some] cell,
    overwriting the slot (replacing a different address counts as an
    eviction); a [None] cell leaves the cache as it was. The slot keeps
    [cell] itself, and {!lookup} returns it on every hit, so a refill
    with a cell the caller already holds allocates nothing — the data
    plane refills with the [Some] that {!Netcore.Lpm.lookup_value}
    returned, the FIB's own. *)

val insert : 'a t -> Netcore.Ipv4.t -> 'a -> unit
(** [insert t addr v] is [refill t addr (Some v)]: one new cell. *)

val find : 'a t -> Netcore.Ipv4.t -> compute:(Netcore.Ipv4.t -> 'a option) -> 'a option
(** [lookup], falling back to [compute] on a miss and refilling with
    the cell it returned. [None] results are not cached. *)

val clear : 'a t -> unit
(** Drop every entry (FIB recompile invalidation); counters are
    kept. *)

val stats : 'a t -> stats
val hit_rate : 'a t -> float
(** [hits / (hits + misses)]; 0 before any lookup. *)

val reset_stats : 'a t -> unit
