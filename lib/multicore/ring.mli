(** Bounded single-producer/single-consumer rings for cross-shard
    packet handoff.

    When a packet's next hop is owned by another shard (DESIGN.md
    §11), the owning worker hands it off through the ring dedicated to
    that (producer, consumer) pair — one ring per ordered shard pair,
    so each ring has exactly one writer of [tail] and one writer of
    [head], and plain [Atomic] loads/stores give publication without
    locks. Bounded capacity is the backpressure mechanism the paper's
    traffic-volume arguments (§3.2) require: a full ring makes {!push}
    return [false] and the producer queues locally instead of
    blocking, so shards can never deadlock on each other. FIFO order,
    loss-freedom and no-duplication are asserted by qcheck properties
    in the test-suite. *)

type 'a t

val create : capacity:int -> dummy:'a -> 'a t
(** [create ~capacity ~dummy] builds a ring holding at least
    [capacity] elements (rounded up to a power of two — see
    {!capacity}). [dummy] fills empty slots so {!push} and {!pop}
    never allocate option cells.
    @raise Invalid_argument when [capacity] is not positive. *)

val capacity : 'a t -> int
(** Actual slot count (the requested capacity rounded up to a power
    of two). *)

val length : 'a t -> int
(** Elements currently queued, clamped to [[0, capacity t]]. The two
    endpoint counters are read in separate loads, not a snapshot, so a
    cross-domain observer can pair a stale [tail] with a fresh [head]
    (or vice versa); the raw difference can transiently fall outside
    the representable range and is clamped. Exact when called from an
    endpoint's own domain; from any other domain it is only an
    approximation that was accurate at some instant between the two
    loads' bounds. *)

val is_empty : 'a t -> bool
(** [length t = 0]. Exact for the consumer: once it observes
    non-empty, {!pop} is safe. *)

val push : 'a t -> 'a -> bool
(** Producer side only. Enqueue, or return [false] when the ring is
    full — the backpressure signal; the element is NOT queued and the
    caller keeps ownership. Allocation-free. *)

val pop : 'a t -> 'a
(** Consumer side only. Dequeue the oldest element; allocation-free.
    @raise Invalid_argument when the ring is empty — guard with
    {!is_empty}, which is exact for the consumer. *)
