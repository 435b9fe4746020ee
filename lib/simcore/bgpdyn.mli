(** Asynchronous BGP dynamics with MRAI timers — how §3.2's anycast
    prefix actually propagates between domains.

    {!Interdomain.Bgp} computes the stable routing state by synchronous
    iteration; this module runs the protocol the way real BGP runs:
    per-session update messages with propagation delay, per-neighbor
    MRAI (minimum route advertisement interval) rate limiting, path
    exploration, and withdrawal on export-policy flips. Selection and
    export are shared code ({!Interdomain.Bgp.better},
    [origination] and [learn]), so the converged state must match the
    synchronous engine's exactly; a test-suite property proves it on
    faulty generated internets, domain by domain.

    The config's [propagate] is read when a prefix is decided (a domain
    choosing its route, a peer computing what it learns) and [version]
    is ignored, so the filter must stay fixed during a run, as every
    caller's does.

    Why it matters for the paper: evolvability rides on BGP carrying
    new (anycast) prefixes, so the cost of injecting one — update
    messages, transient path churn, time to quiescence — is part of
    the deployment story (experiment E19). *)

type stats = {
  updates : int;  (** announce + withdraw messages sent *)
  best_changes : int;  (** times any domain's best route flipped (churn) *)
  last_change : float;  (** engine time of the last best-route change *)
  keepalives : int;  (** keepalive messages sent (E31 overhead) *)
  resets : int;  (** session halves torn down — hold expiry, transport
                     failure, crash *)
  shed_retries : int;
      (** sends refused by the fabric's capacity budget and retried
          with exponential backoff instead of resetting the session —
          the overload-survival path of DESIGN.md §13 *)
}

type t

val create :
  ?mrai:float ->
  ?link_delay:float ->
  ?jitter:float ->
  ?config:Interdomain.Bgp.config ->
  ?faults:Faults.t ->
  Topology.Internet.t ->
  t
(** [mrai] (default 2.0) is the per-neighbor minimum interval between
    successive advertisement batches; [link_delay] (default 0.1) the
    base session propagation delay; [jitter] (default 0) spreads each
    session's delay over [link_delay * \[1, 1+jitter\]], which is what
    induces realistic path exploration.

    [faults] routes every session message through a fault fabric
    (node ids = domain ids; build it with [~fifo:true] — BGP sessions
    ride TCP, which never reorders). A visibly failed send is treated
    as a TCP reset: both ends drop the session's state and resync via
    a full re-advertisement, which is how the protocol stays
    convergent under loss even without keepalives. As over TCP, an
    update still in flight when its receiver's session half is torn
    down (reset or crash) is dropped on arrival. Crash wipes the
    victim's soft state (RIBs, adjacencies); restart re-originates
    from configuration. Experiments must stop injection
    ({!Faults.set_policy}) and restart every node before comparing
    against the synchronous oracle. *)

val enable_timers :
  ?keepalive:float -> ?hold:float -> t -> Engine.t -> until:float -> unit
(** Run BGP's session liveness machinery until the horizon: every
    [keepalive] (default 1.0) each domain hellos all its neighbors; a
    session half that hears nothing for [hold] (default 3.5) declares
    the peer dead and closes the session, so a live peer's half is
    torn down too; each half re-establishes — with a full
    re-advertisement, as after a real session reset — on the next
    hello it hears. This is what lets neighbors detect a crashed domain
    (E31's crash sweeps) at the cost of the keepalive traffic counted
    in {!stats}. Hold expiries after [until] are ignored — the hellos
    stopped, which proves nothing about the peer — so for the final
    state to match the oracle, crashes must restart and loss must
    cease a few keepalive rounds before [until].
    @raise Invalid_argument unless [0 < keepalive < hold]. *)

val originate : t -> Engine.t -> domain:int -> Netcore.Prefix.t -> unit
(** The domain originates a prefix now; updates start flowing. Run the
    engine to quiescence.
    @raise Invalid_argument when [domain] is not a domain of the
    internet. *)

val originate_all_domain_prefixes : t -> Engine.t -> unit

val withdraw : t -> Engine.t -> domain:int -> Netcore.Prefix.t -> unit
(** The domain stops originating the prefix. Withdrawals trigger the
    protocol's notorious path hunting: routers fall back to
    not-yet-withdrawn alternatives before giving up, so retiring a
    route costs more messages than announcing it (experiment E28).
    @raise Invalid_argument when [domain] is not a domain of the
    internet. *)

val best_path : t -> domain:int -> Netcore.Prefix.t -> int list option
(** The current best AS path ([head] = the domain itself). *)

val stats : t -> stats

val agrees_with_synchronous : t -> (unit, string) result
(** Run the synchronous engine over the same internet, config and
    origins and compare, at every domain, the best route of every
    prefix some domain originates or holds a route for — so a route
    that outlived its last origin is a disagreement too. [Error]
    carries the first one, by domain then prefix. *)
