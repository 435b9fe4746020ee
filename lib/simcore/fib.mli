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
    change. *)

type action =
  | Local  (** the address terminates at this router (own address or
               anycast delivery) *)
  | Attached of int  (** deliver to this directly attached endhost *)
  | Next_hop of int  (** forward to this adjacent router *)

type t
(** A FIB snapshot for every router of the internet. *)

type compiler
(** The compile state for one control-plane snapshot: the env plus,
    per domain, the RIB prefixes paired with their BGP egress
    interlinks. Egress resolution ({!Interdomain.Bgp.egress_links})
    depends only on the domain, so it runs once per domain — lazily,
    on the first router of that domain compiled — and is shared by all
    of the domain's routers. Build a fresh compiler after any routing
    or deployment change; one is not safe to use from several domains
    at once. *)

val compiler : Forward.env -> compiler
(** Start compiling the env's current control-plane state. Cheap: no
    domain is resolved until one of its routers is compiled. *)

val router_table : compiler -> int -> action Netcore.Lpm.t
(** Compile one router's table. The per-router entry point of the
    only compile path: {!compile} maps it over every router, and a
    staged line-card refresh calls it for just the routers in the
    batch, so its cost is proportional to the routers compiled (plus
    one egress resolution per domain they span). *)

val compile : Forward.env -> t
(** Materialize all routers' tables from the current control-plane
    state: {!router_table} over every router of one {!compiler}. *)

val lookup : t -> router:int -> Netcore.Ipv4.t -> action option
(** The compiled forwarding decision; [None] = drop (no route). *)

val table : t -> router:int -> action Netcore.Lpm.t
(** One router's compiled table — the line-card view a data-plane
    engine forwards against (and caches in front of). *)

val action_equal : action -> action -> bool
(** Structural equality on forwarding actions; the hook cache layers
    and agreement tests use to compare compiled decisions. *)

val size : t -> router:int -> int
(** Number of FIB entries at one router. *)

val total_entries : t -> int

val forward : t -> Forward.env -> Netcore.Packet.t -> entry:int -> Forward.trace
(** Forward a packet using only compiled tables (the [env] is used for
    trace metadata, not decisions). *)

val agrees_with_decide : t -> Forward.env -> samples:(int * Netcore.Ipv4.t) list -> (unit, string) result
(** Check that compiled forwarding and on-the-fly forwarding reach the
    same outcome for each (entry router, destination) sample. *)
