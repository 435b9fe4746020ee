(** Finite-capacity link and tunnel queues (DESIGN.md §13).

    The paper's Option-1/Option-2 comparison charges evolution a
    per-packet encapsulation tax ("the cost of this indirection is
    processing ... and increased latency", §3.3.2). With infinite
    pipes that tax shows up only as stretch and byte counts; [Linkq]
    gives every registered directed link a byte queue with a finite
    [depth] and a service [rate], so vN-Bone detours and encap
    overhead surface as queueing delay and droptail loss instead.

    The discipline is deterministic FIFO/droptail: a packet is
    admitted iff it fits under the queue's byte limit, it then waits
    behind the bytes already queued (delay accounted as
    [occupancy / rate] ticks), and [tick] drains every queue by
    [rate] bytes. The last [control_reserve] bytes of each queue's
    depth are reserved for {!Telemetry.Control} traffic — a data
    packet refused while that headroom remains is a {e shed}
    (deliberate, class-precedence loss), never the other way round:
    control is never shed before data.

    A [Linkq] attaches to a {!Pump} ({!Pump.attach_linkq}); the {!Hop}
    kernel then consults {!admit} on every router-to-router
    transmission. *)

type t

type verdict =
  | Admitted
  | Rejected_full  (** droptail: the queue is out of depth *)
  | Rejected_shed
      (** class precedence: room remains, but it is reserved for
          control traffic *)

val create :
  ?control_reserve:int ->
  routers:int ->
  rate:int ->
  depth:int ->
  (int * int) list ->
  t
(** [create ~routers ~rate ~depth links] registers a queue in each
    direction of every link in [links] (router id pairs). [rate] is
    bytes drained per {!tick}; [depth] is the byte cap per queue;
    [control_reserve] (default 0) bytes of that depth admit only
    control-class packets.
    @raise Invalid_argument on non-positive [rate]/[depth], a reserve
    outside [\[0, depth)], or an endpoint outside [0..routers-1]. *)

val of_internet : ?control_reserve:int -> rate:int -> depth:int -> Topology.Internet.t -> t
(** Register every directed router-level link of the internet. *)

val admit : t -> src:int -> dst:int -> cls:Telemetry.cls -> bytes:int -> verdict
(** Try to enqueue [bytes] on the [src -> dst] queue. Unregistered
    links always admit (they stay infinite pipes). Allocation-free. *)

val tick : t -> unit
(** Serve every queue: drain up to [rate] bytes from each. *)

type stats = {
  links : int;  (** registered directed queues *)
  admitted : int;  (** packets admitted over all queues *)
  drops_full : int;  (** droptail losses *)
  drops_shed : int;  (** class-precedence sheds *)
  queued : int;  (** bytes queued right now, all queues *)
  high_water : int;  (** max bytes any one queue ever held *)
  mean_delay : float;  (** mean queueing delay of admitted packets, in ticks *)
}

val stats : t -> stats

val depth : t -> int
val rate : t -> int
val control_reserve : t -> int

val queued : t -> src:int -> dst:int -> int
(** Bytes currently queued on one directed link (0 if unregistered). *)
