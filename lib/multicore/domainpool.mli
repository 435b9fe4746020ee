(** The sharded packet pump: one OCaml 5 domain per shard, rings in
    between, verdicts identical to the serial {!Dataplane.Pump}.

    This is the ROADMAP's millions-of-users unlock: the paper's
    Option-1/Option-2 comparison (§3.2, §3.3.2) only carries weight at
    realistic traffic volumes, and a single pump tops out at a couple
    of million packets per second. The pool shards the router id space
    with a fixed {!Shardmap}, gives every {!Shard} its own kernel
    state and telemetry, and hands flowlets between shards
    through SPSC {!Ring}s. A batch is staged on the caller's domain
    with the pump's own codec ({!Netcore.Wire.encode}, then
    {!Netcore.Wire.peek_dst_or}); walks and handoffs carry only the
    header fields read from that image. Determinism survives
    parallelism because everything order-dependent is shard-private
    and everything shared is read-only or commutative — experiment E33
    asserts the delivery verdict counts are byte-identical for 1/2/4/8
    shards on one seed (DESIGN.md §11 has the full argument). *)

type t

val create :
  ?ring_capacity:int ->
  ?spill_cap:int ->
  ?inject_per_pass:int ->
  Simcore.Forward.env ->
  shards:int ->
  seed:int64 ->
  t
(** Compile one FIB snapshot of the env's control plane (shared
    read-only by all workers) and stand up [shards] workers with
    [ring_capacity]-slot handoff rings (default 1024). [seed] feeds one {!Topology.Rng} per
    shard via deterministic splits ({!Shard.rng}; no worker draws from
    it). [spill_cap] and [inject_per_pass]
    configure each shard's overload behaviour — see {!Shard.create}.
    A refused call holds no descriptor.
    @raise Invalid_argument unless [0 < shards <= routers], or when
    [ring_capacity], [spill_cap] or [inject_per_pass] is not
    positive. *)

val num_shards : t -> int

val shard : t -> int -> Shard.t
(** Direct access to a worker, for tests and per-shard telemetry. *)

val run : t -> Dataplane.Workload.flow list -> unit
(** Forward every packet of every flow to a terminal verdict: stage
    the batch on the caller's domain — encode each flow's packet once,
    as {!Dataplane.Pump.run_flow} does, and queue its header fields at
    the shard of its entry router — then run one worker per shard —
    inline for one shard, [Domain.spawn]/[join] otherwise. Returns
    when all packets have terminated. Telemetry accumulates across
    runs, like the pump's. A flow of 0 packets is skipped.

    When any shard has a crash armed ({!Shard.arm_crash}) the main
    domain becomes a supervisor: it polls the published dead flags,
    joins the exited worker, revives its shard ({!Shard.revive}) and
    respawns it, so the batch always drains. With no crash armed the spawn/join
    path is byte-for-byte the pre-supervision one.
    @raise Invalid_argument when a flow fails
    {!Dataplane.Workload.validate}; the refusal comes before any flow
    is queued, so the pool is left as it was. *)

val run_cooperative : ?slow:int * int -> t -> Dataplane.Workload.flow list -> int
(** Deterministic single-domain driver: stage the batch, then
    round-robin one {!Shard.pass} per live shard per round until every
    packet terminates; a crashed shard is detected and revived at the
    end of its round. [slow:(victim, period)] starves shard [victim]
    to one pass every [period] rounds — sustained backpressure with
    bit-reproducible spill/shed behaviour, which the slow-consumer
    drill and experiment E37 rely on. Returns the number of rounds.
    @raise Invalid_argument as {!run} does, before any flow is
    queued. *)

val restarts : t -> int
(** Shard restarts the supervisor performed (all shards, lifetime). *)

val shard_restarts : t -> int -> int
(** Restarts of one shard. *)

val shed : t -> int
(** Packets deliberately shed pool-wide (sum of {!Shard.shed}). *)

val overflow_high_water : t -> int
(** Largest spill-buffer occupancy any shard ever reached. *)

val telemetry : t -> Dataplane.Telemetry.t
(** Pool-wide counters: per-shard telemetries merged in fixed shard
    order. The merge is a commutative field-wise sum, so the result
    is independent of execution interleaving — the heart of E33's
    shard-invariance claim. With one shard this is the shard's own
    telemetry, which equals the serial pump's field for field on the
    same batch (asserted by the test-suite). *)

val crossings : t -> int
(** Total cross-shard handoffs over all runs — the traffic the rings
    carried. Zero with one shard. *)

val close : t -> unit
(** Release every shard's doorbell pipe. Call when the pool will not
    {!run} again (benchmarks and experiments create many pools; the
    descriptors otherwise live until process exit). *)
