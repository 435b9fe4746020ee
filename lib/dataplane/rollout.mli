(** A staged FIB refresh: after a control-plane change, line cards pick
    up the new tables a slice at a time — the mixed-table convergence
    window of §3.2's data-plane state (E30, E32, the incident drills).
    Each {!step} installs the next [ceil (n / window)] routers of the
    caller's order, so a full rollout takes at most [window] steps. *)

type t

val create : order:int array -> window:int -> t
(** A finished rollout over a copy of [order]: nothing to install
    until the first {!restart}.
    @raise Invalid_argument when [window] is not positive. *)

val restart : t -> unit
(** The control plane changed: start over from the first slice. *)

val step : t -> Pump.t -> unit
(** [Pump.refresh ~routers] the next slice; a no-op once finished. *)

val finished : t -> bool

val progress : t -> float
(** The fraction of the order installed since the last {!restart}. *)
