(** Deterministic replay of a {!Drillbook} scenario.

    One [run] stands up the full stack the scenario needs — the
    internet, the anycast deployment (§3.2), the vN-Bone with BGPvN
    over it (§3.3), the asynchronous control planes ({!Simcore.Bgpdyn}
    over TCP-like sessions, {!Simcore.Lsproto} in every deployed
    domain) and the {!Dataplane.Pump} traffic engine — then replays
    the drill's fault script through two {!Simcore.Faults} fabrics on
    one {!Simcore.Engine}: a router-level fabric driving the data
    plane's link filter and the IGP dynamics, and a domain-level FIFO
    fabric under the BGP sessions. Every random draw flows through
    {!Topology.Rng} from the book's seed, so a drill is replayable
    byte-for-byte ({!transcript} — asserted by the test-suite).

    When the book's [recovery] is on, the operator playbook runs
    [detection_delay] after fault onset: the blackout playbook
    reroutes the control plane around the cuts and repairs the
    vN-Bone ("easily detected and repaired", §3.3), the de-peering
    playbook withdraws the cut-off origin so the internet reroutes to
    surviving members, and the hijack is detected from the probe
    stream itself. Line cards then pick the changes up across a
    batched refresh window, as in experiment E32. *)

type tick_row = {
  tick : int;
  time : float;
  phase : string;  (** steady | fault | healing | recovered *)
  ok : float;  (** probe fraction accepted by a current member *)
  stale : float;  (** accepted elsewhere (stale table or wrong target) *)
  hijacked : float;  (** terminated inside the rogue domain *)
  lost : float;  (** dropped: link down / no route *)
  looped : float;  (** TTL expiry *)
}

type run

val prepare : ?params:Topology.Internet.params -> Drillbook.t -> run
(** Build the scenario and schedule the whole script (faults,
    playbook, probe ticks) without running it. [params] overrides the
    book's topology (the book's seed still applies) — how tests run a
    drill over a small internet. *)

val execute : run -> unit
(** Drain the engine: the drill runs to its horizon. Idempotent. *)

val run_until : run -> time:float -> unit
(** Advance the engine to an absolute time — how the looking glass
    inspects mid-incident state ([evolvenet glass --at]). *)

val complete : ?params:Topology.Internet.params -> Drillbook.t -> run
(** [prepare] then [execute]. *)

(** {2 Results} *)

val rows : run -> tick_row list
(** One row per completed probe tick, in time order. For the two
    overload kinds the fractions come from the overload machinery
    itself: flash-crowd rows are control-probe outcomes through the
    finite link queues; slow-consumer rows are the domain pool's
    per-tick telemetry deltas. *)

type drop_reasons = {
  queue_full : int;  (** droptail at a full link queue *)
  shed_native : int;  (** deliberate sheds of native-class packets *)
  shed_encap : int;
  shed_control : int;
      (** control sheds — zero unless every lower class was exhausted
          first (drop precedence, DESIGN.md §13) *)
  fabric : int;
      (** control-plane messages the fault fabrics killed or shed
          (lost + cut + dead + shed over both fabrics) *)
}

val drop_reasons : run -> drop_reasons
(** Where every lost packet went, aggregated over the pump, the
    slow-consumer pool (when present) and both fault fabrics — the
    [evolvenet drill --report] breakdown. *)

val close : run -> unit
(** Release OS resources held by the run (the slow-consumer pool's
    doorbell descriptors). No-op for other kinds; call when done with
    a run that will not be inspected further. *)

val events : run -> (float * string) list
(** The timestamped incident log (fault onset, detection, repair). *)

val detected_at : run -> float option
(** Engine time the incident was detected; [None] when monitoring
    never fired (e.g. [recovery] off). *)

val transcript : run -> string
(** The full drill record as stable text: scenario header, incident
    log, per-tick delivery table. The header's deploy and probe counts
    are those that ran, after {!prepare} clamped the book's to the
    stubs and endhosts the internet has. Same seed, same book, same
    params — byte-identical output. *)

(** {2 Live state, for the looking glass} *)

val book : run -> Drillbook.t
val internet : run -> Topology.Internet.t
val env : run -> Simcore.Forward.env

val now : run -> float
(** Current engine time. *)

val phase : run -> string
(** The drill phase at the current engine time
    (steady | fault | healing | recovered). *)

val pump : run -> Dataplane.Pump.t

val link_faults : run -> Simcore.Faults.t
(** Router-level fabric: link cuts and member crashes. *)

val session_faults : run -> Simcore.Faults.t
(** Domain-level FIFO fabric under the BGP sessions. *)

val bgpdyn : run -> Simcore.Bgpdyn.t
val lsprotos : run -> (int * Simcore.Lsproto.t) list
(** The per-deployed-domain link-state protocol instances. *)

val fabric : run -> Vnbone.Fabric.t

val fib : run -> Simcore.Fib.t
(** The control plane's current compiled FIB (what a completed refresh
    would install at every line card); recompiled lazily after each
    playbook step. *)

val group : run -> Netcore.Prefix.t
(** The deployment's anycast prefix. *)

val deployed : run -> int list
(** Deployed (participant) domains, ascending. *)
