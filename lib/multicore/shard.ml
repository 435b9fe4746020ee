module Ipv4 = Netcore.Ipv4
module Rng = Topology.Rng
module Hop = Dataplane.Hop
module Telemetry = Dataplane.Telemetry

(* A flowlet waiting at router [m_router] of the shard that holds it:
   the header fields its next walk reads, never the wire bytes (§3.3.2:
   transit treats the payload as opaque). A staged injection is a
   handoff that has not moved yet. Immutable — published through a
   Ring, read by one consumer. *)
type msg = {
  m_len : int; (* wire bytes per packet *)
  m_dst : Ipv4.t;
  m_ttl : int;
  m_router : int; (* next router to decide — owned by the holding shard *)
  m_cls : Telemetry.cls;
  m_encap : int;
  m_count : int; (* flowlet width: byte-identical packets in this handoff *)
}

let msg ~cls ~dst ~bytes ~encap_bytes ~count ~router ~ttl =
  {
    m_len = bytes;
    m_dst = dst;
    m_ttl = ttl;
    m_router = router;
    m_cls = cls;
    m_encap = encap_bytes;
    m_count = count;
  }

let dummy_msg =
  msg ~cls:Telemetry.Native ~dst:(Ipv4.of_int 0) ~bytes:0 ~encap_bytes:0
    ~count:0 ~router:0 ~ttl:0

type t = {
  sid : int;
  map : Shardmap.t;
  hop : Hop.t;
      (* kernel state: the shared read-only FIB snapshots (Lpm is
         persistent, safe across domains), the caches of this shard's
         block and its telemetry *)
  rng : Rng.t; (* per-shard stream, split from the pool seed *)
  pending : msg Queue.t; (* staged injections, in batch order *)
  (* The spill buffer: handoffs that hit a full ring wait here, as a
     bounded circular FIFO pre-allocated at [spill_cap] (no growth on
     the hot path). When it too is full the shard sheds — drop-tail
     for data, newest-data eviction to make room for control
     (DESIGN.md §13). *)
  spill : msg array;
  inject_per_pass : int;
      (* fresh-flow injections admitted per pass: bounded pacing turns
         the staged batch into a multi-round arrival process (the
         slow-consumer drill's demand model); [max_int] = drain the
         queue in one pass, the historical behaviour *)
  spill_cap : int;
  mutable spill_head : int;
  mutable spill_len : int;
  mutable spill_hw : int; (* high-water of [spill_len] *)
  mutable shed_count : int; (* packets deliberately shed, cumulative *)
  mutable inbox : msg Ring.t array; (* inbox.(p): ring from producer shard p *)
  mutable outbox : msg Ring.t array; (* outbox.(c): ring to consumer shard c *)
  live : int Atomic.t; (* pool-wide in-flight packets *)
  asleep : bool Atomic.t; (* published before blocking on the doorbell *)
  dead : bool Atomic.t; (* published by a crashing worker, cleared by revive *)
  mutable crash_at : int; (* crash after this many handlings; -1 = disarmed *)
  mutable handled : int; (* flowlet handlings (arrivals + injections) *)
  wake_r : Unix.file_descr; (* this worker blocks here when idle *)
  wake_w : Unix.file_descr; (* peers ring it to wake this worker *)
  bell : Bytes.t; (* scratch byte for doorbell writes/drains *)
  mutable peer_asleep : bool Atomic.t array;
  mutable peer_wake : Unix.file_descr array;
  mutable crossings : int;
  mutable naps : int;
  mutable passes : int;
}

let create ?(spill_cap = 65536) ?(inject_per_pass = max_int) ~sid ~map
    ~tables ~cache_slots ~rng ~live () =
  if spill_cap <= 0 then invalid_arg "Shard.create: spill_cap must be positive";
  if inject_per_pass <= 0 then
    invalid_arg "Shard.create: inject_per_pass must be positive";
  let lo, hi = Shardmap.range map sid in
  let hop = Hop.create ~tables ~lo ~hi ~cache_slots in
  let spill = Array.make spill_cap dummy_msg in
  (* the doorbell last: everything that can refuse has already run, so
     a refused call leaks no descriptor *)
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    sid;
    map;
    hop;
    rng;
    pending = Queue.create ();
    spill;
    inject_per_pass;
    spill_cap;
    spill_head = 0;
    spill_len = 0;
    spill_hw = 0;
    shed_count = 0;
    inbox = [||];
    outbox = [||];
    live;
    asleep = Atomic.make false;
    dead = Atomic.make false;
    crash_at = -1;
    handled = 0;
    wake_r;
    wake_w;
    bell = Bytes.make 64 '!';
    peer_asleep = [||];
    peer_wake = [||];
    crossings = 0;
    naps = 0;
    passes = 0;
  }

let set_channels t ~inbox ~outbox =
  t.inbox <- inbox;
  t.outbox <- outbox

let set_doorbells t ~peer_asleep ~peer_wake =
  t.peer_asleep <- peer_asleep;
  t.peer_wake <- peer_wake

let asleep_flag t = t.asleep
let dead_flag t = t.dead
let wake_fd t = t.wake_w

let close t =
  Unix.close t.wake_r;
  Unix.close t.wake_w

let naps t = t.naps
let passes t = t.passes
let sid t = t.sid
let telemetry t = Hop.telemetry t.hop
let crossings t = t.crossings
let rng t = t.rng
let enqueue t m = Queue.add m t.pending
let overflow_high_water t = t.spill_hw
let overflow_len t = t.spill_len
let overflow_cap t = t.spill_cap
let shed t = t.shed_count
let handled t = t.handled

(* --- deterministic crash injection (DESIGN.md §13) ------------------- *)

let arm_crash t ~after =
  if after < 0 then invalid_arg "Shard.arm_crash: after must be >= 0";
  t.crash_at <- t.handled + after

let crash_armed t = t.crash_at >= 0
let crash_due t = t.crash_at >= 0 && t.handled >= t.crash_at

(* The worker publishes its own death and exits its run loop; nothing
   in flight is lost — the message that would have been handled next
   is still in its ring or queue. *)
let crash_exit t = Atomic.set t.dead true

(* Supervisor side: clear the crash, drop the soft state. The flow
   caches are the only state that does not survive — they rebuild warm
   on demand from the shared immutable FIB snapshots, so post-restart
   forwarding decisions (and verdicts) are identical; only the
   hit/miss statistics show the restart. *)
let revive t =
  Atomic.set t.dead false;
  t.crash_at <- -1;
  Hop.clear_caches t.hop

(* Ring shard [c]'s doorbell. Nonblocking: a full pipe just means the
   consumer already has plenty of reasons to wake, so the byte can be
   dropped. The asleep flag is re-read after the ring push (both are
   seq_cst), which closes the lost-wakeup race: if the consumer's
   final emptiness check preceded our push, it had already published
   asleep = true, so we see it here and ring. *)
let ring_doorbell st c =
  if Atomic.get st.peer_asleep.(c) then
    try ignore (Unix.write st.peer_wake.(c) st.bell 0 1)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* Retire [count] packets from the pool-wide live count; whoever
   drains it to zero wakes every sleeping peer so they can observe
   termination without waiting out their backstop timeout. *)
let retire st count =
  if Atomic.fetch_and_add st.live (-count) = count then
    for c = 0 to Array.length st.peer_wake - 1 do
      if c <> st.sid then ring_doorbell st c
    done

(* --- bounded spill buffer -------------------------------------------- *)

let spill_idx st i =
  let k = st.spill_head + i in
  if k >= st.spill_cap then k - st.spill_cap else k

let spill_append st m =
  st.spill.(spill_idx st st.spill_len) <- m;
  st.spill_len <- st.spill_len + 1;
  if st.spill_len > st.spill_hw then st.spill_hw <- st.spill_len

(* Deliberately drop a flowlet that could not be queued anywhere: the
   packets are accounted as shed at the router that would have handled
   them next, and retired from the live count so the pool terminates. *)
let shed_msg st (m : msg) =
  st.shed_count <- st.shed_count + m.m_count;
  Telemetry.record_shed_n (Hop.telemetry st.hop) ~router:m.m_router
    ~cls:m.m_cls ~count:m.m_count;
  retire st m.m_count

(* Make room for a control-class message by shedding the newest
   data-class message in the spill (drop precedence: control is never
   shed while any data could be shed instead). Shifting the tail down
   one slot preserves the relative order of every survivor. *)
let evict_newest_data st =
  let victim = ref (-1) in
  let i = ref (st.spill_len - 1) in
  while !victim < 0 && !i >= 0 do
    if st.spill.(spill_idx st !i).m_cls <> Telemetry.Control then victim := !i;
    decr i
  done;
  if !victim < 0 then false
  else begin
    shed_msg st st.spill.(spill_idx st !victim);
    for j = !victim to st.spill_len - 2 do
      st.spill.(spill_idx st j) <- st.spill.(spill_idx st (j + 1))
    done;
    st.spill_len <- st.spill_len - 1;
    st.spill.(spill_idx st st.spill_len) <- dummy_msg;
    true
  end

(* Hand a flowlet to consumer shard [c]: ring first (only when the
   spill is empty, so per-pair FIFO holds), then the spill, then shed. *)
let offer st c (m : msg) =
  if st.spill_len = 0 && Ring.push st.outbox.(c) m then ring_doorbell st c
  else if st.spill_len < st.spill_cap then spill_append st m
  else if m.m_cls = Telemetry.Control && evict_newest_data st then
    spill_append st m
  else shed_msg st m

(* Walk a flowlet — [m_count] byte-identical packets of one flow —
   through the kernel from its router until it terminates or reaches a
   router owned by another shard. The packets of a flow take the same
   route (the FIB snapshot is immutable during a run), so one
   count-weighted walk leaves every counter exactly as [m_count]
   per-packet walks would. Terminal verdicts retire the flowlet from
   the pool-wide live count; a handoff does not. *)
let handle st (m : msg) =
  st.handled <- st.handled + 1;
  match
    Hop.walk st.hop ~cls:m.m_cls ~dst:m.m_dst ~bytes:m.m_len
      ~encap_bytes:m.m_encap ~count:m.m_count ~entry:m.m_router ~ttl:m.m_ttl
  with
  | Hop.Handoff ->
      st.crossings <- st.crossings + 1;
      let nh = Hop.router st.hop in
      offer st
        (Shardmap.shard_of st.map nh)
        { m with m_ttl = Hop.ttl st.hop; m_router = nh }
  | Hop.Local | Hop.Attached | Hop.Dropped _ -> retire st m.m_count

(* Retry stalled handoffs in strict FIFO order; stop at the first
   still-full ring. Returns whether anything moved. *)
let flush_overflow st =
  let moved = ref 0 in
  let stop = ref false in
  while (not !stop) && st.spill_len > 0 do
    let m = st.spill.(st.spill_head) in
    let c = Shardmap.shard_of st.map m.m_router in
    if Ring.push st.outbox.(c) m then begin
      st.spill.(st.spill_head) <- dummy_msg;
      st.spill_head <-
        (let h = st.spill_head + 1 in
         if h >= st.spill_cap then 0 else h);
      st.spill_len <- st.spill_len - 1;
      ring_doorbell st c;
      incr moved
    end
    else stop := true
  done;
  !moved > 0

let inboxes_empty st =
  let empty = ref true in
  for p = 0 to Array.length st.inbox - 1 do
    if p <> st.sid && not (Ring.is_empty st.inbox.(p)) then empty := false
  done;
  !empty

(* Block until a peer rings the doorbell or the backstop timeout
   passes, then drain the pipe. Runs only when the worker is provably
   idle, so its allocations (select's fd lists) are off the per-packet
   path (allowlisted with this justification). *)
let nap st =
  st.naps <- st.naps + 1;
  Atomic.set st.asleep true;
  (* re-check after publishing the flag: a producer that pushed before
     reading the flag is now visible to us; one that pushed after will
     see the flag and ring *)
  if inboxes_empty st && Atomic.get st.live > 0 then
    ignore (Unix.select [ st.wake_r ] [] [] 2e-3);
  Atomic.set st.asleep false;
  try ignore (Unix.read st.wake_r st.bell 0 (Bytes.length st.bell))
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

exception Crashed

(* One scheduling pass: drain arrivals, retry stalled handoffs, inject
   fresh flows. Returns whether anything moved. Extracted from [run] so
   Domainpool.run_cooperative can interleave shards deterministically
   on one domain (DESIGN.md §13).
   An armed crash fires between flowlets: the message that was next is
   still queued, so nothing in flight is lost. *)
let pass st =
  st.passes <- st.passes + 1;
  let progress = ref false in
  (try
     (* 1. cross-shard arrivals — consumers always drain, so producers
        blocked on a full ring are guaranteed eventual room. No burst
        cap: draining everything available minimizes scheduling rounds,
        which dominate when workers outnumber cores. *)
     for p = 0 to Array.length st.inbox - 1 do
       if p <> st.sid then begin
         let r = st.inbox.(p) in
         while not (Ring.is_empty r) do
           if crash_due st then raise Crashed;
           handle st (Ring.pop r);
           progress := true
         done
       end
     done;
     (* 2. stalled handoffs *)
     if flush_overflow st then progress := true;
     (* 3. fresh injections, paced at [inject_per_pass] per pass *)
     (try
        for _ = 1 to st.inject_per_pass do
          if Queue.is_empty st.pending then raise Exit;
          if crash_due st then raise Crashed;
          handle st (Queue.take st.pending);
          progress := true
        done
      with Exit -> ())
   with Crashed -> crash_exit st);
  !progress

let run st =
  let idle = ref 0 in
  let running = ref true in
  while !running do
    let progress = pass st in
    if Atomic.get st.dead then running := false
    else if Atomic.get st.live = 0 then running := false
    else if progress then idle := 0
    else begin
      (* all workers share one core in the smallest deployments: spin
         briefly, then block on the doorbell so idle workers stop
         stealing timeslices from the one making progress *)
      incr idle;
      if !idle < 4 then Domain.cpu_relax () else nap st
    end
  done
