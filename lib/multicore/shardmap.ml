type t = { routers : int; shards : int }

let create ~routers ~shards =
  if routers <= 0 then invalid_arg "Shardmap.create: routers must be positive";
  if shards <= 0 || shards > routers then
    invalid_arg "Shardmap.create: shards must be in [1, routers]";
  { routers; shards }

(* Contiguous blocks: router ids are numbered per topology domain
   ({!Topology.Internet} hands out dense per-domain ranges), so block
   assignment keeps intra-domain hops shard-local. The formula depends
   only on (routers, shards) — never on a seed — so the assignment is
   identical across runs and shard counts divide the same id space. *)
let shard_of t r = r * t.shards / t.routers

let lo t s = ((s * t.routers) + t.shards - 1) / t.shards
let range t s =
  if s < 0 || s >= t.shards then invalid_arg "Shardmap.range: bad shard";
  (lo t s, lo t (s + 1))
