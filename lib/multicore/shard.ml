module Wire = Netcore.Wire
module Arena = Netcore.Arena
module Ipv4 = Netcore.Ipv4
module Lpm = Netcore.Lpm
module Packet = Netcore.Packet
module Rng = Topology.Rng
module Fib = Simcore.Fib
module Flowcache = Dataplane.Flowcache
module Telemetry = Dataplane.Telemetry

(* A cross-shard handoff: an (off, len) view into the producing
   shard's arena plus the pre-peeked header fields the next hop
   needs. Immutable — published through a Ring, read by one consumer. *)
type msg = {
  m_buf : Arena.buf;
  m_off : int;
  m_len : int;
  m_dst : Ipv4.t;
  m_ttl : int;
  m_router : int; (* next hop — owned by the receiving shard *)
  m_cls : Telemetry.cls;
  m_encap : int;
  m_count : int; (* flowlet width: byte-identical packets in this handoff *)
}

let dummy_msg =
  {
    m_buf = Arena.buf (Arena.create ~bytes:0);
    m_off = 0;
    m_len = 0;
    m_dst = Ipv4.of_int 0;
    m_ttl = 0;
    m_router = 0;
    m_cls = Telemetry.Native;
    m_encap = 0;
    m_count = 0;
  }

(* A pending injection: one flow's packet encoded once, walked
   [i_count] times (the packets of a flow are byte-identical). *)
type inj = { i_packet : Packet.t; i_entry : int; i_count : int }

type t = {
  sid : int;
  lo : int;
  hi : int;
  map : Shardmap.t;
  tables : Fib.action Lpm.t array;
      (* shared read-only snapshots — Lpm is persistent, safe across domains *)
  caches : Fib.action Flowcache.t array; (* own block only, index [r - lo] *)
  telemetry : Telemetry.t;
  rng : Rng.t; (* per-shard stream, split from the pool seed *)
  arena : Arena.t;
  pending : inj Queue.t;
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
  spill_hi : int; (* eager-shed watermark: 3/4 of [spill_cap] *)
  mutable spill_head : int;
  mutable spill_len : int;
  mutable spill_hw : int; (* high-water of [spill_len] *)
  mutable shed_count : int; (* packets deliberately shed, cumulative *)
  shed_eager : bool; (* shed at the producer when credits exhaust *)
  mutable inbox : msg Ring.t array; (* inbox.(p): ring from producer shard p *)
  mutable outbox : msg Ring.t array; (* outbox.(c): ring to consumer shard c *)
  mutable cong_hi : int; (* inbox-backlog watermarks for [congested] *)
  mutable cong_lo : int;
  live : int Atomic.t; (* pool-wide in-flight packets *)
  asleep : bool Atomic.t; (* published before blocking on the doorbell *)
  congested : bool Atomic.t;
      (* published credit signal: this consumer's inbox backlog crossed
         the high watermark (hysteresis down at the low one) *)
  dead : bool Atomic.t; (* published by a crashing worker, cleared by revive *)
  mutable crash_at : int; (* crash after this many handlings; -1 = disarmed *)
  mutable handled : int; (* flowlet handlings (arrivals + injections) *)
  wake_r : Unix.file_descr; (* this worker blocks here when idle *)
  wake_w : Unix.file_descr; (* peers ring it to wake this worker *)
  bell : Bytes.t; (* scratch byte for doorbell writes/drains *)
  mutable peer_asleep : bool Atomic.t array;
  mutable peer_congested : bool Atomic.t array;
  mutable peer_wake : Unix.file_descr array;
  mutable crossings : int;
  mutable naps : int;
  mutable passes : int;
}

let create ?(spill_cap = 65536) ?(shed_eager = false)
    ?(inject_per_pass = max_int) ~sid ~map ~tables ~cache_slots ~rng ~live () =
  if spill_cap <= 0 then invalid_arg "Shard.create: spill_cap must be positive";
  if inject_per_pass <= 0 then
    invalid_arg "Shard.create: inject_per_pass must be positive";
  let lo, hi = Shardmap.range map sid in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    sid;
    lo;
    hi;
    map;
    tables;
    caches = Array.init (hi - lo) (fun _ -> Flowcache.create ~slots:cache_slots);
    telemetry = Telemetry.create ~routers:(Shardmap.routers map);
    rng;
    arena = Arena.create ~bytes:0;
    pending = Queue.create ();
    spill = Array.make spill_cap dummy_msg;
    inject_per_pass;
    spill_cap;
    spill_hi = max 1 (spill_cap * 3 / 4);
    spill_head = 0;
    spill_len = 0;
    spill_hw = 0;
    shed_count = 0;
    shed_eager;
    inbox = [||];
    outbox = [||];
    cong_hi = max_int;
    cong_lo = 0;
    live;
    asleep = Atomic.make false;
    congested = Atomic.make false;
    dead = Atomic.make false;
    crash_at = -1;
    handled = 0;
    wake_r;
    wake_w;
    bell = Bytes.make 64 '!';
    peer_asleep = [||];
    peer_congested = [||];
    peer_wake = [||];
    crossings = 0;
    naps = 0;
    passes = 0;
  }

let set_channels t ~inbox ~outbox =
  t.inbox <- inbox;
  t.outbox <- outbox;
  (* watermarks over the total inbox capacity (excluding the self
     ring, which is never used): congested above 3/4, clear below 1/4 *)
  let total = ref 0 in
  Array.iteri
    (fun p r -> if p <> t.sid then total := !total + Ring.capacity r)
    inbox;
  t.cong_hi <- max 1 (!total * 3 / 4);
  t.cong_lo <- !total / 4

let set_doorbells t ~peer_asleep ~peer_congested ~peer_wake =
  t.peer_asleep <- peer_asleep;
  t.peer_congested <- peer_congested;
  t.peer_wake <- peer_wake

let asleep_flag t = t.asleep
let congested_flag t = t.congested
let dead_flag t = t.dead
let wake_fd t = t.wake_w

let close t =
  Unix.close t.wake_r;
  Unix.close t.wake_w

let naps t = t.naps
let passes t = t.passes
let sid t = t.sid
let telemetry t = t.telemetry
let crossings t = t.crossings
let arena t = t.arena
let rng t = t.rng
let enqueue t j = Queue.add j t.pending
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
  Array.iter Flowcache.clear t.caches

(* One forwarding decision at owned router [r] for a flowlet of
   [count] byte-identical packets: probe the flow cache once, account
   for every packet. A miss followed by an insert makes the remaining
   [count - 1] packets hits — exactly the statistics the per-packet
   serial pump records, since nothing else touches this router's cache
   between the packets of one flow (mirrors Pump.lookup_action). *)
let lookup_n st r ~cls ~count dst =
  let c = st.caches.(r - st.lo) in
  match Flowcache.lookup c dst with
  | Some _ as hit ->
      Telemetry.record_cache_n st.telemetry ~router:r ~cls ~hits:count
        ~misses:0;
      hit
  | None -> (
      match Lpm.lookup_value dst st.tables.(r) with
      | Some a as res ->
          Telemetry.record_cache_n st.telemetry ~router:r ~cls
            ~hits:(count - 1) ~misses:1;
          Flowcache.insert c dst a;
          res
      | None ->
          Telemetry.record_cache_n st.telemetry ~router:r ~cls ~hits:0
            ~misses:count;
          None)

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
  Telemetry.record_shed_n st.telemetry ~router:m.m_router ~cls:m.m_cls
    ~count:m.m_count;
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
   spill is empty, so per-pair FIFO holds), then the spill, then shed.
   With [shed_eager] the producer sheds data early once its credits
   are exhausted — the consumer advertises congestion and the spill is
   past its high watermark — instead of waiting for the spill to fill
   (nondeterministic under real parallelism, so it is opt-in). *)
let offer st c (m : msg) =
  if st.spill_len = 0 && Ring.push st.outbox.(c) m then ring_doorbell st c
  else if
    st.shed_eager
    && m.m_cls <> Telemetry.Control
    && st.spill_len >= st.spill_hi
    && Atomic.get st.peer_congested.(c)
  then shed_msg st m
  else if st.spill_len < st.spill_cap then spill_append st m
  else if m.m_cls = Telemetry.Control && evict_newest_data st then
    spill_append st m
  else shed_msg st m

(* Walk a flowlet — [count] byte-identical packets of one flow — from
   owned router [r] until it terminates or reaches a router owned by
   another shard. The packets of a flow take the same route (the FIB
   snapshot is immutable during a run), so one walk with count-weighted
   telemetry leaves every counter exactly as [count] per-packet walks
   would. Terminal outcomes retire the flowlet from the pool-wide live
   count; a handoff does not. Same decisions as Pump's hop loop (minus
   the link filter — the pool forwards with every link up). *)
let rec walk st ~buf ~off ~len ~cls ~encap ~dst ~count r ttl =
  Telemetry.record_hop_n st.telemetry ~router:r ~cls ~bytes:len
    ~encap_bytes:encap ~count;
  match lookup_n st r ~cls ~count dst with
  | None ->
      Telemetry.record_drop_n st.telemetry ~router:r ~cls ~count;
      retire st count
  | Some Fib.Local | Some (Fib.Attached _) ->
      Telemetry.record_delivered_n st.telemetry ~router:r ~cls ~count;
      retire st count
  | Some (Fib.Next_hop nh) ->
      if ttl <= 1 then begin
        Telemetry.record_ttl_expired_n st.telemetry ~router:r ~cls ~count;
        retire st count
      end
      else if nh = r then begin
        Telemetry.record_drop_n st.telemetry ~router:r ~cls ~count;
        retire st count
      end
      else if nh >= st.lo && nh < st.hi then
        (* ownership is a block test — no division on the per-hop path *)
        walk st ~buf ~off ~len ~cls ~encap ~dst ~count nh (ttl - 1)
      else begin
        st.crossings <- st.crossings + 1;
        let m =
          {
            m_buf = buf;
            m_off = off;
            m_len = len;
            m_dst = dst;
            m_ttl = ttl - 1;
            m_router = nh;
            m_cls = cls;
            m_encap = encap;
            m_count = count;
          }
        in
        offer st (Shardmap.shard_of st.map nh) m
      end

let handle st (m : msg) =
  st.handled <- st.handled + 1;
  walk st ~buf:m.m_buf ~off:m.m_off ~len:m.m_len ~cls:m.m_cls ~encap:m.m_encap
    ~dst:m.m_dst ~count:m.m_count m.m_router m.m_ttl

let inject_flow st (j : inj) =
  st.handled <- st.handled + 1;
  let len = Wire.wire_length j.i_packet in
  let off = Wire.encode_into j.i_packet st.arena in
  let buf = Arena.buf st.arena in
  let dst = Wire.peek_dst_big buf ~off ~len ~default:j.i_packet.Packet.dst in
  let ttl = j.i_packet.Packet.ttl in
  let cls =
    match j.i_packet.Packet.payload with
    | Packet.Data _ -> Telemetry.Native
    | Packet.Encap _ -> Telemetry.Encap
  in
  let encap =
    match j.i_packet.Packet.payload with
    | Packet.Data _ -> 0
    | Packet.Encap vn -> len - Wire.data_length (String.length vn.Packet.body)
  in
  walk st ~buf ~off ~len ~cls ~encap ~dst ~count:j.i_count j.i_entry ttl

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

(* Publish the credit signal for producers: congested above the high
   watermark of this consumer's inbox backlog, clear again only below
   the low one (hysteresis, so the flag does not flap per message).
   Called once per pass, before draining, so the published value
   reflects the backlog producers actually face. *)
let update_congestion st =
  let backlog = ref 0 in
  for p = 0 to Array.length st.inbox - 1 do
    if p <> st.sid then backlog := !backlog + Ring.length st.inbox.(p)
  done;
  if Atomic.get st.congested then begin
    if !backlog <= st.cong_lo then Atomic.set st.congested false
  end
  else if !backlog >= st.cong_hi then Atomic.set st.congested true

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

(* One scheduling pass: publish congestion, drain arrivals, retry
   stalled handoffs, inject fresh flows. Returns whether anything
   moved. Extracted from [run] so Domainpool.run_cooperative can
   interleave shards deterministically on one domain (DESIGN.md §13).
   An armed crash fires between flowlets: the message that was next is
   still queued, so nothing in flight is lost. *)
let pass st =
  st.passes <- st.passes + 1;
  update_congestion st;
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
          inject_flow st (Queue.take st.pending);
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
