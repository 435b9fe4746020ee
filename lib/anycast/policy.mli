(** Per-domain willingness to carry anycast prefixes.

    Option 1 of the paper (§3.2) requires non-participant ISPs to "propagate a
    small number of non-aggregatable anycast addresses in [their]
    inter-domain routing protocol" — a policy change, not a mechanism
    change. This table models that policy knob per (domain, prefix);
    the default is willingness. Plug it into BGP via {!bgp_config}. *)

type t

val create : unit -> t
(** Everyone propagates everything. *)

val set_propagates : t -> domain:int -> prefix:Netcore.Prefix.t -> bool -> unit
(** Record a domain's willingness for one prefix. *)

val refuse_all_nonroutable : t -> domains:int list -> unit
(** The listed domains refuse every prefix longer than the global
    routability limit (/22) — the "no policy change anywhere" baseline
    that motivates Option 2. *)

val propagates : t -> domain:int -> prefix:Netcore.Prefix.t -> bool

val bgp_config : t -> Interdomain.Bgp.config
(** A BGP import filter consulting this table. The table is mutable and
    shared: later [set_propagates] and [refuse_all_nonroutable] calls
    affect subsequent BGP convergence, because each one moves the
    config's [version]. *)
