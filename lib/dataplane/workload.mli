(** Seeded flow workloads: the traffic matrix the data plane is
    measured under.

    The paper's evolvability argument is population-driven — §2's
    assumption A1 values a network generation by "the number of users"
    it can reach — so the default workload is a gravity model: flows
    land in a domain with probability proportional to a Zipf share of
    the user population, mirroring {!Evolve.Traffic} one layer down so
    the data-plane engine can generate load without depending on the
    experiment layer. A uniform-over-endhosts matrix is the control.

    All draws flow through {!Topology.Rng}, so a (model, seed) pair
    always yields the same flow sequence. *)

type model =
  | Uniform  (** every endhost equally likely, per side *)
  | Gravity of { zipf_s : float }
      (** domain popularity Zipf-distributed with exponent [zipf_s];
          hosts uniform within the domain *)

type flow = {
  src : int;  (** source endhost id *)
  dst : int;  (** destination endhost id, never [src] *)
  packets : int;  (** packets this flow contributes to a batch *)
  bytes_per_packet : int;  (** payload size drawn from the mix *)
}

type t

val create :
  ?packets_per_flow:int ->
  ?payload_mix:int array ->
  Topology.Internet.t ->
  model ->
  seed:int64 ->
  t
(** A workload generator over the internet's endhosts.
    [packets_per_flow] (default 4) sets {!flow.packets};
    [payload_mix] (default [[|64; 512; 1400|]]) the payload sizes
    drawn per flow. A flow's destination is never its source, so the
    internet needs two endhosts. @raise Invalid_argument when the
    internet has fewer than two endhosts, [packets_per_flow <= 0], or
    the mix is empty. *)

val next : t -> flow
(** Draw the next flow (advances the generator state). Each side draws
    its domain by a binary search over the running sums of the domain
    weights, which [create] adds once. *)

val validate : flow -> unit
(** The one check a flow must pass before either data plane sends it
    ({!Pump.run_flow}, and {!Pump.run_batch} and
    [Multicore.Domainpool] for a whole batch before any of it).
    @raise Invalid_argument when [packets] is negative, or
    [bytes_per_packet] lies outside [\[0, 65535\]], the largest body
    {!Netcore.Wire} encodes. *)

val batch : t -> count:int -> flow list
(** [count] successive flows. *)

val total_packets : flow list -> int
(** Sum of {!flow.packets} over a batch. *)
