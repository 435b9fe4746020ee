(** One-call orchestration of an IPvN deployment.

    Bundles the whole §3 deployment stack — internet, IGPs, BGP and
    the anycast service (§3.2) — and keeps the vN-Bone (§3.3)
    consistent with the deployment state. This is the entry point downstream users start from (see
    [examples/quickstart.ml]). *)

type t

val create :
  ?params:Topology.Internet.params ->
  version:int ->
  strategy:Anycast.Service.strategy ->
  unit ->
  t
(** Build a random transit–stub internet (default
    {!Topology.Internet.default_params}) and stand up the full stack
    for one IPvN generation with no participants yet. *)

val of_internet :
  Topology.Internet.t ->
  version:int ->
  strategy:Anycast.Service.strategy ->
  t
(** Same, over a caller-provided internet (e.g. a custom figure
    topology). *)

val internet : t -> Topology.Internet.t
val env : t -> Simcore.Forward.env
val service : t -> Anycast.Service.t
val version : t -> int

val deploy : ?fraction:float -> t -> domain:int -> unit
(** The domain deploys IPvN on [fraction] (default 1.0) of its routers
    (at least one; chosen deterministically). Invalidate and later
    rebuild the vN-Bone.
    @raise Invalid_argument if [fraction] is outside (0, 1]. *)

val undeploy : t -> domain:int -> unit

val router : t -> Vnbone.Router.t
(** The vN routing state over the current deployment; the underlying
    fabric is rebuilt lazily after deployment changes. *)

val fabric : t -> Vnbone.Fabric.t

val send :
  t ->
  strategy:Vnbone.Router.strategy ->
  src:int ->
  dst:int ->
  ?payload:string ->
  unit ->
  Vnbone.Transport.journey
(** End-to-end IPvN send between endhost ids. *)
