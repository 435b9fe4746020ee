(** Deterministic pseudo-random numbers (splitmix64).

    Every experiment in the repository is seeded, so runs are exactly
    reproducible (DESIGN.md Section 7, testing strategy); [split]
    derives independent streams so that adding a random draw in one
    component does not perturb another. This is the only module allowed
    to be a randomness source — evolvelint rejects [Random.*] anywhere
    else. *)

type t
(** A mutable generator state. *)

val create : int64 -> t
(** A generator seeded with the given value. *)

val split : t -> t
(** A new generator statistically independent from (but
    deterministically derived from) the current state of [t]. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. @raise Invalid_argument on []. *)

val pick_array : t -> 'a array -> 'a

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] draws [k] distinct elements (all of [xs] when
    [k >= length xs]). *)

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] draws a rank in [\[1, n\]] with Zipf exponent [s]. *)
