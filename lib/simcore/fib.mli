(** Compiled per-router forwarding tables.

    {!Forward.forward} decides each hop by consulting the IGP, the
    anycast groups and BGP on the fly; this module materializes the
    same decisions into one longest-prefix-match table per router —
    the FIB a line card would hold, i.e. the data-plane side of §3.2's
    routing-state scalability question. Two uses:

    - {e state accounting}: FIB sizes per router class are the
      data-plane side of the paper's routing-state concern (E22);
    - {e verification}: compiled forwarding must agree with the
      on-the-fly forwarder everywhere (asserted by the test-suite).

    Tables are snapshots: recompile after any routing or deployment
    change. Each router's table is frozen with no trie built in
    between: its bound values plus, over the elementary address
    intervals of its domain's plan (below), one {!tag} per interval,
    the tag of the action of the longest match there. A lookup is a
    binary search over the plan's interval starts, and a line card
    ({!Netcore.Lpm.interval}) reads the starts and the tags and no
    action. A compiled table is only read once built, and can be
    shared read-only by the data plane's domains.

    A compile splits its work per domain and per router. Every router
    of a domain binds the same prefixes in the same order — the
    domain's BGP egress prefixes, its anycast groups, its routers, its
    endhosts — and only the actions differ. So the prefix-dependent
    half of a freeze, the sort and the sweep ({!Netcore.Lpm.layout}),
    runs once per domain, into the domain's {e plan}; each router then
    computes one action per plan position, asking the IGP once per
    router of its domain, and fills its table over the plan
    ({!Netcore.Lpm.fill}). So a domain's routers share their interval
    starts, and an interval index found in one router's table holds in
    every other table of the domain filled over the same plan: a
    forwarding walk that carries the index from hop to hop searches
    once per domain it enters. *)

type action =
  | Local  (** the address terminates at this router (own address or
               anycast delivery) *)
  | Attached of int  (** deliver to this directly attached endhost *)
  | Next_hop of int  (** forward to this adjacent router *)

type t
(** A FIB snapshot for every router of the internet. *)

type compiler
(** The compile state for one control-plane snapshot: the env plus,
    per domain, the BGP egress interlinks
    ({!Interdomain.Bgp.egress_links}) and the plan. Both depend only on
    the domain, so each is built once per domain — lazily, on the first
    router of that domain compiled — and shared by all of the domain's
    routers. Build a fresh compiler (or a {!recompiler}) after any
    routing or deployment change; one is not safe to use from several
    domains at once. *)

val compiler : Forward.env -> compiler
(** Start compiling the env's current control-plane state. Cheap: no
    domain is resolved until one of its routers is compiled. *)

val recompiler : compiler -> compiler
(** [recompiler c] is a compiler for the env's current control-plane
    state that reuses the plans [c] holds: a domain resolved again
    keeps the plan [c] built (or itself reused) while the domain's
    ordered prefix list is equal to the one that plan was built from,
    and builds a new one otherwise. A plan is a function of that list alone, so the reuse
    is exact: the tables equal a fresh {!compiler}'s. A staged
    line-card refresh, which compiles a few routers in most domains on
    every call, thereby sorts and sweeps a domain's prefixes only when
    its RIB or anycast groups changed. *)

val router_table : compiler -> int -> action Netcore.Lpm.t
(** Compile one router's table: one action per position of its
    domain's plan (BGP routes, then anycast groups, then the domain's
    routers and endhosts; none where the IGP has no route, and a later
    binding of a prefix replacing an earlier one), filled over the
    plan under {!tag}. The per-router entry point of the only compile
    path: {!compile} maps it over every router, and a staged line-card
    refresh calls it for just the routers in the batch, so its cost is
    proportional to the routers compiled (plus one egress resolution,
    and at most one plan, per domain they span). *)

val compile : Forward.env -> t
(** Materialize all routers' tables from the current control-plane
    state: {!router_table} over every router of one {!compiler}. *)

val lookup : t -> router:int -> Netcore.Ipv4.t -> action option
(** The compiled forwarding decision; [None] = drop (no route). *)

val table : t -> router:int -> action Netcore.Lpm.t
(** One router's compiled table — the line-card view a data-plane
    engine forwards against, by {!tag}. *)

val tag : action -> int
(** The int a compiled table stores with each interval
    ({!Netcore.Lpm.fill}'s [tag]), so that a forwarding kernel decides
    a hop from the tag alone ({!Netcore.Lpm.lookup_tag}): [Next_hop nh] ↦ [nh]
    (≥ 0), [Local] ↦ -1, [Attached h] ↦ [-2 - h] (≤ -2). A kernel
    decodes a tag [t] as a next hop when [t >= 0], local delivery when
    [t = -1], no route when [t = ]{!Netcore.Lpm.no_tag}, and delivery
    to endhost [-2 - t] otherwise. Injective, so a table's neighbours
    merge exactly when their actions are equal.
    @raise Invalid_argument for a negative id or an endhost id above
    [max_int - 2], whose tag would collide with another's or with
    {!Netcore.Lpm.no_tag}. *)

val size : t -> router:int -> int
(** Number of FIB entries at one router. *)

val total_entries : t -> int

val forward : t -> Forward.env -> Netcore.Packet.t -> entry:int -> Forward.trace
(** Forward a packet using only compiled tables (the [env] is used for
    trace metadata, not decisions). *)

val agrees_with_decide : t -> Forward.env -> samples:(int * Netcore.Ipv4.t) list -> (unit, string) result
(** Check that compiled forwarding and on-the-fly forwarding reach the
    same outcome for each (entry router, destination) sample. *)
