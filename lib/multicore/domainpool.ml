module Wire = Netcore.Wire
module Packet = Netcore.Packet
module Internet = Topology.Internet
module Rng = Topology.Rng
module Fib = Simcore.Fib
module Forward = Simcore.Forward
module Workload = Dataplane.Workload
module Telemetry = Dataplane.Telemetry
module Hop = Dataplane.Hop

type t = {
  env : Forward.env;
  map : Shardmap.t;
  shards : Shard.t array;
  live : int Atomic.t;
  restarts : int array; (* per-shard revive count, bumped by the supervisor *)
}

let create ?(ring_capacity = 1024) ?spill_cap ?inject_per_pass (env : Forward.env) ~shards
    ~seed =
  let n = Internet.num_routers env.Forward.inet in
  let map = Shardmap.create ~routers:n ~shards in
  let fib = Fib.compile env in
  let tables = Array.init n (fun r -> Fib.table fib ~router:r) in
  let live = Atomic.make 0 in
  let pool_rng = Rng.create seed in
  (* rings.(p).(c) carries handoffs from shard p to shard c: exactly
     one producer and one consumer per ring, the SPSC contract. Built
     before the shards, whose doorbells are descriptors a refused
     capacity would leak. *)
  let rings =
    Array.init shards (fun _ ->
        Array.init shards (fun _ ->
            Ring.create ~capacity:ring_capacity ~dummy:Shard.dummy_msg))
  in
  let ss =
    Array.init shards (fun sid ->
        Shard.create ?spill_cap ?inject_per_pass ~sid ~map ~tables ~rng:(Rng.split pool_rng)
          ~live ())
  in
  let peer_asleep = Array.map Shard.asleep_flag ss in
  let peer_wake = Array.map Shard.wake_fd ss in
  Array.iteri
    (fun c s ->
      Shard.set_channels s
        ~inbox:(Array.init shards (fun p -> rings.(p).(c)))
        ~outbox:(Array.init shards (fun c' -> rings.(c).(c')));
      Shard.set_doorbells s ~peer_asleep ~peer_wake)
    ss;
  { env; map; shards = ss; live; restarts = Array.make shards 0 }

let env t = t.env
let map t = t.map
let num_shards t = Array.length t.shards
let shard t i = t.shards.(i)

(* Stage a batch on the caller's domain: encode each flow's packet once
   with the pump's codec, keep the header fields a walk reads, and
   queue them at the entry router's shard. Everything that can refuse
   ([Workload.validate]: a negative count, a body Wire cannot carry;
   an endhost id outside the internet) runs over the whole batch
   before the first enqueue, so a refused batch leaves every queue
   empty; then one pass builds and queues each message, with no list
   of them in between. A flow of no packets is skipped, as the pump
   sends nothing for it. Returns the pool-wide packet count; the caller
   publishes it into [t.live] before any worker starts. *)
let stage t (flows : Workload.flow list) =
  let inet = t.env.Forward.inet in
  List.iter
    (fun (f : Workload.flow) ->
      Workload.validate f;
      if f.Workload.packets > 0 then begin
        ignore (Internet.endhost inet f.Workload.src : Internet.endhost);
        ignore (Internet.endhost inet f.Workload.dst : Internet.endhost)
      end)
    flows;
  List.iter
    (fun (f : Workload.flow) ->
      if f.Workload.packets > 0 then begin
        let hs = Internet.endhost inet f.Workload.src
        and hd = Internet.endhost inet f.Workload.dst in
        let p =
          Packet.make_data ~src:hs.Internet.haddr ~dst:hd.Internet.haddr
            (String.make f.Workload.bytes_per_packet 'x')
        in
        let wire = Wire.encode p in
        let len = String.length wire in
        let entry = hs.Internet.access_router in
        Shard.enqueue
          t.shards.(Shardmap.shard_of t.map entry)
          (Shard.msg ~cls:(Hop.cls_of p)
             ~dst:(Wire.peek_dst_or wire ~default:p.Packet.dst)
             ~bytes:len ~encap_bytes:(Hop.encap_of p ~len) ~count:f.Workload.packets
             ~router:entry ~ttl:p.Packet.ttl)
      end)
    flows;
  Workload.total_packets flows

(* Supervisor action for a dead shard: revive it (Shard.revive) and
   count the restart. The worker must not be running. *)
let restart_shard t sid =
  Shard.revive t.shards.(sid);
  t.restarts.(sid) <- t.restarts.(sid) + 1

let restarts t = Array.fold_left ( + ) 0 t.restarts
let shard_restarts t sid = t.restarts.(sid)

let run t (flows : Workload.flow list) =
  let nshards = Array.length t.shards in
  let total = stage t flows in
  Atomic.set t.live total;
  let supervised = Array.exists Shard.crash_armed t.shards in
  if nshards = 1 then begin
    Shard.run t.shards.(0);
    (* inline supervision: a crashed solo shard restarts until the
       batch drains *)
    while
      Atomic.get t.live > 0 && Atomic.get (Shard.dead_flag t.shards.(0))
    do
      restart_shard t 0;
      Shard.run t.shards.(0)
    done
  end
  else if not supervised then
    (* no crash armed: the workers' exit condition (live = 0) is the
       only termination, exactly the pre-supervision behaviour — the
       main domain blocks in join and steals no cycles *)
    let ds =
      Array.map (fun s -> Domain.spawn (fun () -> Shard.run s)) t.shards
    in
    Array.iter Domain.join ds
  else begin
    let ds =
      Array.map (fun s -> Domain.spawn (fun () -> Shard.run s)) t.shards
    in
    (* the supervisor: poll the published dead flags, join the exited
       worker, revive its shard and respawn it. Detection latency is a
       millisecond-scale poll; peers keep draining meanwhile (their
       doorbell naps have a backstop timeout, so they cannot sleep
       through the recovery). *)
    while Atomic.get t.live > 0 do
      let acted = ref false in
      Array.iteri
        (fun i s ->
          if Atomic.get (Shard.dead_flag s) then begin
            Domain.join ds.(i);
            restart_shard t i;
            ds.(i) <- Domain.spawn (fun () -> Shard.run s);
            acted := true
          end)
        t.shards;
      if not !acted then ignore (Unix.select [] [] [] 1e-3)
    done;
    Array.iter Domain.join ds
  end

(* Deterministic single-domain driver: round-robin one Shard.pass per
   shard per round until the batch drains. [slow] starves one shard —
   the victim only gets a pass every [period] rounds — which is how
   the slow-consumer drill exercises backpressure and shedding with
   bit-reproducible results. A shard that crashes is detected at the
   end of the round and revived (the supervisor at round granularity);
   returns the rounds taken. *)
let run_cooperative ?slow t (flows : Workload.flow list) =
  let n = Array.length t.shards in
  let total = stage t flows in
  Atomic.set t.live total;
  let rounds = ref 0 in
  while Atomic.get t.live > 0 do
    incr rounds;
    for sid = 0 to n - 1 do
      let s = t.shards.(sid) in
      if not (Atomic.get (Shard.dead_flag s)) then begin
        let step =
          match slow with
          | Some (victim, period) when sid = victim ->
              !rounds mod period = 0
          | _ -> true
        in
        if step then ignore (Shard.pass s : bool)
      end
    done;
    for sid = 0 to n - 1 do
      if Atomic.get (Shard.dead_flag t.shards.(sid)) then restart_shard t sid
    done
  done;
  !rounds

(* Merge in fixed shard order 0..n-1. The merge itself is a field-wise
   sum, so any order gives the same counters — the fixed order makes
   that indifference visible rather than load-bearing. *)
let telemetry t =
  let acc = ref (Shard.telemetry t.shards.(0)) in
  for i = 1 to Array.length t.shards - 1 do
    acc := Telemetry.merge !acc (Shard.telemetry t.shards.(i))
  done;
  !acc

let crossings t = Array.fold_left (fun a s -> a + Shard.crossings s) 0 t.shards
let shed t = Array.fold_left (fun a s -> a + Shard.shed s) 0 t.shards

let overflow_high_water t =
  Array.fold_left (fun a s -> max a (Shard.overflow_high_water s)) 0 t.shards

let close t = Array.iter Shard.close t.shards
