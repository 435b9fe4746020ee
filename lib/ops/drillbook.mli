(** Declarative incident-drill scenarios.

    The paper's resilience claims — anycast "naturally lends itself to
    fault tolerance" (§2.2), vN-Bone partitions are "easily detected
    and repaired" (§3.3) — deserve more than two hand-written
    experiments. A drillbook entry is a complete, replayable incident
    script: a topology, an IPvN deployment, a per-link
    {!Simcore.Faults.policy}, a timed fault of one of four archetypal
    kinds, and the recovery SLOs the operator holds the deployment to.
    {!Drill} replays it deterministically; {!Slo} grades the outcome.

    Scenarios can be built in OCaml ({!make}, or the built-in
    {!catalog}) or loaded from the small s-expression format under
    [examples/drills/] ({!load}); {!to_sexp}/{!of_string} round-trip,
    which the test-suite asserts. *)

type slo = {
  max_detection : float;  (** seconds from fault onset to detection *)
  max_reconverge : float;
      (** seconds from fault onset until delivery is back at (and
          stays at) its pre-fault level *)
  max_blackhole : float;  (** integrated lost-probe seconds *)
  max_stale : float;  (** worst acceptable mean stale-delivery fraction *)
  max_hijacked : float;  (** worst acceptable peak delivery-to-rogue fraction *)
}

(** The incident archetypes, mirroring the failure modes the paper
    argues anycast evolvability must survive — plus two overload
    archetypes where the incident is demand, not failure
    (DESIGN.md §13). *)
type kind =
  | Blackout of { links : int; routers_down : int }
      (** a regional event: correlated cuts of [links] live
          intra-domain links plus [routers_down] IPvN member crashes *)
  | Depeer of { stub_rank : int }
      (** the [stub_rank]-th deployed stub loses its primary provider:
          BGP session torn down and the border links cut *)
  | Hijack of { rogue_rank : int }
      (** the [rogue_rank]-th non-deployed stub originates the IPvN
          anycast prefix (§3.2 Option 1 abuse) and blackholes what it
          attracts *)
  | Provider_flap of {
      stub_rank : int;
      cycles : int;
      period : float;
      down_for : float;
    }
      (** the deployed stub's primary provider link flaps: [cycles]
          down/up cycles, down [down_for] out of every [period] —
          replayed through {!Simcore.Faults.schedule_flap_train} *)
  | Flash_crowd of { rate : int; depth : int; reserve : int; burst : int }
      (** every link gets a {!Dataplane.Linkq} of [depth] bytes
          draining [rate] bytes per tick with [reserve] bytes held for
          control traffic; during the fault window [burst] extra data
          packets per tick saturate the queues while control probes
          must keep flowing — graceful degradation, not a cliff *)
  | Slow_consumer of {
      shards : int;
      victim : int;
      slowdown : int;
      spill_cap : int;
      flows : int;
    }
      (** a [shards]-way {!Multicore.Domainpool} forwards [flows]
          flows per tick under the deterministic cooperative driver;
          during the fault window shard [victim] runs one pass every
          [slowdown] rounds, so its peers' rings back up into
          [spill_cap]-bounded spill buffers and shedding begins *)

type t = {
  name : string;
  seed : int64;  (** every random draw of the drill derives from this *)
  transit : int;  (** transit domains of the generated internet *)
  stubs : int;  (** stub domains per transit *)
  deploy_domains : int;  (** stubs that deploy IPvN (all their routers) *)
  probes : int;  (** endhosts probing the anycast address each tick *)
  ticks : int;  (** drill length in 1-second traffic ticks *)
  fault_at : float;  (** fault onset (engine time) *)
  fault_until : float;  (** scripted end of the fault *)
  kind : kind;
  loss : float;  (** control-plane message loss probability per link *)
  jitter : float;  (** control-plane per-message jitter bound *)
  recovery : bool;  (** whether the operator playbook runs on detection *)
  detection_delay : float;  (** monitoring latency before the playbook fires *)
  slo : slo;
}

val slo :
  detection:float ->
  reconverge:float ->
  blackhole:float ->
  stale:float ->
  hijacked:float ->
  slo
(** Validating constructor.
    @raise Invalid_argument on a non-finite value, negative budgets or
    fractions outside [0,1]. *)

val make :
  name:string ->
  ?seed:int64 ->
  ?transit:int ->
  ?stubs:int ->
  ?deploy_domains:int ->
  ?probes:int ->
  ?ticks:int ->
  ?fault_at:float ->
  ?fault_until:float ->
  ?loss:float ->
  ?jitter:float ->
  ?recovery:bool ->
  ?detection_delay:float ->
  slo:slo ->
  kind ->
  t
(** Validating builder; defaults give a default-params-sized internet,
    40 probes over 12 ticks with the fault in [\[3, 7\]].
    @raise Invalid_argument when any field is out of range (empty
    name, a non-finite float, non-positive sizes, fault window outside
    [\[0, ticks\]], loss outside [0,1], or a kind-specific violation
    such as [down_for] outside [(0, period]]). *)

val equal : t -> t -> bool
(** Structural equality (explicit per field — no polymorphic compare),
    used by the loader round-trip tests. *)

val kind_label : kind -> string
(** ["blackout" | "depeer" | "hijack" | "provider-flap" |
    "flash-crowd" | "slow-consumer"]. *)

(** {2 The built-in catalog} *)

val regional_blackout : t
val provider_depeer : t
val prefix_hijack : t
val flapping_provider : t

val flash_crowd : t
(** Queue-saturating data burst with control probes riding the
    reserve — the overload drill CI runs as its SLO gate. *)

val slow_consumer : t
(** One starved shard under the cooperative pool driver — sustained
    backpressure with bounded spill and deterministic shedding. *)

val catalog : t list
(** The six archetypes above, in that order — what experiment E34
    sweeps and [evolvenet drill --name] looks up. *)

val find : string -> t option
(** Catalog lookup by name. *)

val with_intensity : t -> float -> t
(** Scale the drill's severity: message loss and the kind's magnitude
    knob (blackout link count, flap cycle count, flash-crowd burst,
    slow-consumer slowdown) are multiplied by the factor (loss capped
    at 0.9). Intensity 1.0 is the identity; E34 sweeps it.
    @raise Invalid_argument when the factor is not positive and
    finite. *)

(** {2 File format} *)

val of_string : string -> (t, string) result
(** Parse one [(drill ...)] s-expression; [;] starts a line comment.
    Unknown or malformed forms yield [Error] with a message. *)

val load : string -> (t, string) result
(** Read a drill file (see [examples/drills/]). *)

val to_sexp : t -> string
(** Canonical s-expression rendering; [of_string (to_sexp b)] equals
    [b] ({!equal}). *)
