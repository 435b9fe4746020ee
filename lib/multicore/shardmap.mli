(** Fixed router→shard assignment for the sharded data plane.

    The paper's scaling argument (§3.2: per-domain forwarding state,
    evaluated at realistic traffic volumes) needs the pump split
    across cores without giving up determinism. The map is a pure
    function of [(routers, shards)] — seed-independent and identical
    on every run — so experiment E33 can compare shard counts on the
    same workload and require byte-identical verdicts (DESIGN.md
    §11). Assignment is by contiguous id block, which keeps
    intra-domain hops shard-local because {!Topology.Internet} numbers
    routers densely per domain. *)

type t

val create : routers:int -> shards:int -> t
(** @raise Invalid_argument unless [0 < shards <= routers]. *)

val shard_of : t -> int -> int
(** [shard_of t r] is the owning shard of router [r], in
    [\[0, shards)]. Total and monotone over [\[0, routers)]. *)

val range : t -> int -> int * int
(** [range t s] is the half-open router block [\[lo, hi)] owned by
    shard [s]; blocks partition [\[0, routers)] in order.
    @raise Invalid_argument when [s] is not a shard index. *)
