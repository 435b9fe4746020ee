(* Tests for the sharded multicore data plane (DESIGN.md §11): the
   SPSC ring must be a faithful FIFO under concurrent producers and
   consumers, the shard map a total contiguous partition, and the
   domain pool's verdicts identical to the serial pump oracle at every
   shard count — with a one-shard pool matching the pump's telemetry
   field for field, and a bad batch refused before any of it is
   queued. *)

module Internet = Topology.Internet
module Forward = Simcore.Forward
module Workload = Dataplane.Workload
module Telemetry = Dataplane.Telemetry
module Pump = Dataplane.Pump
module Ring = Multicore.Ring
module Shardmap = Multicore.Shardmap
module Shard = Multicore.Shard
module Domainpool = Multicore.Domainpool

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---------------------------------------------------------------- *)
(* Ring                                                              *)

let test_ring_fifo_serial () =
  let r = Ring.create ~capacity:8 ~dummy:(-1) in
  check Alcotest.bool "fresh ring is empty" true (Ring.is_empty r);
  for i = 0 to 7 do
    check Alcotest.bool (Printf.sprintf "push %d" i) true (Ring.push r i)
  done;
  check Alcotest.int "full length" 8 (Ring.length r);
  check Alcotest.bool "push beyond capacity refused" false (Ring.push r 99);
  for i = 0 to 7 do
    check Alcotest.int (Printf.sprintf "pop %d in order" i) i (Ring.pop r)
  done;
  check Alcotest.bool "drained" true (Ring.is_empty r);
  Alcotest.check_raises "pop on empty raises"
    (Invalid_argument "Ring.pop: empty") (fun () -> ignore (Ring.pop r))

let test_ring_capacity_rounding () =
  let r = Ring.create ~capacity:5 ~dummy:0 in
  check Alcotest.int "capacity rounds up to a power of two" 8 (Ring.capacity r)

let test_ring_backpressure () =
  (* a producer against a full ring must spin, not lose items: the
     consumer drains one, exactly one push succeeds *)
  let r = Ring.create ~capacity:4 ~dummy:(-1) in
  for i = 0 to 3 do
    ignore (Ring.push r i)
  done;
  check Alcotest.bool "full ring refuses" false (Ring.push r 4);
  check Alcotest.int "head preserved" 0 (Ring.pop r);
  check Alcotest.bool "freed slot accepts" true (Ring.push r 4);
  check Alcotest.bool "full again refuses" false (Ring.push r 5);
  let got = List.init 4 (fun _ -> Ring.pop r) in
  check Alcotest.(list int) "FIFO across the wrap" [ 1; 2; 3; 4 ] got

(* The SPSC contract under real parallelism: one producer domain, one
   consumer domain, every pushed value arrives exactly once and in
   order. Retries on both sides exercise the full/empty transitions. *)
let prop_ring_spsc =
  QCheck.Test.make ~name:"ring: concurrent SPSC keeps FIFO, no loss/dup"
    ~count:30
    QCheck.(pair (int_range 1 6) (int_range 1 512))
    (fun (cap_log, n) ->
      let r = Ring.create ~capacity:(1 lsl cap_log) ~dummy:(-1) in
      let producer =
        Domain.spawn (fun () ->
            for i = 0 to n - 1 do
              while not (Ring.push r i) do
                Domain.cpu_relax ()
              done
            done)
      in
      let got = ref [] in
      let remaining = ref n in
      while !remaining > 0 do
        if Ring.is_empty r then Domain.cpu_relax ()
        else begin
          got := Ring.pop r :: !got;
          decr remaining
        end
      done;
      Domain.join producer;
      Ring.is_empty r && List.rev !got = List.init n Fun.id)

(* Four domains in a relay: main pushes into ring 0, three spawned
   stages each pop their inbox and push their outbox, main drains the
   last ring. Every ring keeps exactly one producer and one consumer
   (the SPSC contract), but all four run concurrently, so the
   occupancy assertions inside push/pop — the debug checks the
   atomics-protocol roles license — are exercised under real
   cross-domain timing, including the full/empty spins at tiny
   capacities. *)
let prop_ring_relay_4domains =
  QCheck.Test.make ~name:"ring: 4-domain relay preserves FIFO end to end"
    ~count:20
    QCheck.(pair (int_range 1 4) (int_range 1 256))
    (fun (cap_log, n) ->
      let mk () = Ring.create ~capacity:(1 lsl cap_log) ~dummy:(-1) in
      let rings = Array.init 3 (fun _ -> mk ()) in
      let stage inbox outbox () =
        for _ = 0 to n - 1 do
          while Ring.is_empty inbox do
            Domain.cpu_relax ()
          done;
          let v = Ring.pop inbox in
          while not (Ring.push outbox v) do
            Domain.cpu_relax ()
          done
        done
      in
      let d1 = Domain.spawn (stage rings.(0) rings.(1)) in
      let d2 = Domain.spawn (stage rings.(1) rings.(2)) in
      let got = ref [] in
      let d3 =
        Domain.spawn (fun () ->
            for _ = 0 to n - 1 do
              while Ring.is_empty rings.(2) do
                Domain.cpu_relax ()
              done;
              got := Ring.pop rings.(2) :: !got
            done)
      in
      for i = 0 to n - 1 do
        while not (Ring.push rings.(0) i) do
          Domain.cpu_relax ()
        done
      done;
      Domain.join d1;
      Domain.join d2;
      Domain.join d3;
      Array.for_all Ring.is_empty rings
      && List.rev !got = List.init n Fun.id)

(* ---------------------------------------------------------------- *)
(* Shardmap                                                          *)

let test_shardmap_partition () =
  List.iter
    (fun (routers, shards) ->
      let m = Shardmap.create ~routers ~shards in
      (* totality: every router lands in exactly the shard whose
         contiguous range contains it *)
      for r = 0 to routers - 1 do
        let s = Shardmap.shard_of m r in
        check Alcotest.bool "shard id in range" true (s >= 0 && s < shards);
        let lo, hi = Shardmap.range m s in
        check Alcotest.bool
          (Printf.sprintf "router %d inside its shard's range" r)
          true
          (r >= lo && r < hi)
      done;
      (* contiguity: ranges tile [0, routers) without gap or overlap *)
      let covered = ref 0 in
      for s = 0 to shards - 1 do
        let lo, hi = Shardmap.range m s in
        check Alcotest.int
          (Printf.sprintf "shard %d starts where %d ended" s (s - 1))
          !covered lo;
        check Alcotest.bool "range non-decreasing" true (hi >= lo);
        covered := hi
      done;
      check Alcotest.int "ranges cover every router" routers !covered)
    [ (1, 1); (7, 3); (8, 8); (72, 8); (100, 7); (64, 4) ]

let test_shardmap_validation () =
  Alcotest.check_raises "zero shards refused"
    (Invalid_argument "Shardmap.create: shards must be in [1, routers]")
    (fun () -> ignore (Shardmap.create ~routers:4 ~shards:0));
  Alcotest.check_raises "more shards than routers refused"
    (Invalid_argument "Shardmap.create: shards must be in [1, routers]")
    (fun () -> ignore (Shardmap.create ~routers:4 ~shards:5))

(* ---------------------------------------------------------------- *)
(* Domainpool vs the serial pump oracle                              *)

let pool_fixture =
  lazy
    (let inet = Internet.build Internet.default_params in
     let env = Forward.make_env inet in
     let wl =
       Workload.create inet (Workload.Gravity { zipf_s = 1.2 }) ~seed:11L
         ~packets_per_flow:8
     in
     let flows = Workload.batch wl ~count:512 in
     let pump = Pump.create env in
     Pump.run_batch pump flows;
     (env, flows, pump))

(* the counters a route decides, independent of shard order *)
let routed (c : Telemetry.counters) =
  ( c.Telemetry.packets,
    c.Telemetry.bytes,
    c.Telemetry.encap_bytes,
    c.Telemetry.delivered,
    c.Telemetry.dropped,
    c.Telemetry.ttl_expired )

let verdict t = routed (Telemetry.total t)

let test_pool_one_shard_equals_pump () =
  let env, flows, pump = Lazy.force pool_fixture in
  (* a flow of no packets sends nothing, as in the pump *)
  let empty = { (List.hd flows) with Workload.packets = 0 } in
  let pool = Domainpool.create env ~shards:1 ~seed:11L in
  Domainpool.run pool (flows @ [ empty ]);
  let pt = Domainpool.telemetry pool and st = Pump.telemetry pump in
  (* full structural equality: one shard forwards in exactly the
     serial order *)
  for r = 0 to Telemetry.num_routers st - 1 do
    check Alcotest.bool
      (Printf.sprintf "router %d counters equal pump's" r)
      true
      (Telemetry.router pt r = Telemetry.router st r)
  done;
  check Alcotest.bool "native class equals pump's" true
    (Telemetry.cls pt Telemetry.Native = Telemetry.cls st Telemetry.Native);
  check Alcotest.int "no crossings with one shard" 0
    (Domainpool.crossings pool);
  Domainpool.close pool

let test_pool_verdicts_shard_invariant () =
  let env, flows, pump = Lazy.force pool_fixture in
  let oracle = verdict (Pump.telemetry pump) in
  List.iter
    (fun shards ->
      let pool = Domainpool.create env ~shards ~seed:11L in
      Domainpool.run pool flows;
      let v = verdict (Domainpool.telemetry pool) in
      Domainpool.close pool;
      check Alcotest.bool
        (Printf.sprintf "verdict at %d shards equals the serial pump" shards)
        true (v = oracle))
    [ 1; 2; 3; 4; 8 ]

(* A bad batch is refused on the caller's domain before any flow is
   queued: an oversized body, here on a flow entering shard 1's block,
   where a worker that raised would leave the pool waiting for ever, a
   negative body, and a negative count, which no telemetry can account
   for. Each bad batch leads with valid flows, so a partly staged
   batch would show in the next run's verdict, and a partly sent one
   in the pump's telemetry. Both engines refuse with the same
   [Workload.validate] message. The pool also refuses a flow to an
   endhost id outside the internet before it queues anything. *)
let test_pool_refuses_bad_batch () =
  let env, flows, pump = Lazy.force pool_fixture in
  let inet = env.Forward.inet in
  let two = Shardmap.create ~routers:(Internet.num_routers inet) ~shards:2 in
  let entry (f : Workload.flow) =
    (Internet.endhost inet f.Workload.src).Internet.access_router
  in
  let f = List.find (fun f -> Shardmap.shard_of two (entry f) = 1) flows in
  let lead = List.filteri (fun i _ -> i < 8) flows in
  let bad_body =
    Invalid_argument "Workload.validate: bytes_per_packet must be in [0, 65535]"
  in
  let oversized = (bad_body, lead @ [ { f with Workload.bytes_per_packet = 70_000 } ])
  and negative_body = (bad_body, lead @ [ { f with Workload.bytes_per_packet = -5 } ])
  and negative =
    ( Invalid_argument "Workload.validate: packets must be non-negative",
      lead @ [ { f with Workload.packets = -3 } ] )
  in
  let bad = [ oversized; negative_body; negative ] in
  Alcotest.check_raises "the pump refuses a negative count" (fst negative)
    (fun () -> Pump.run_flow pump { f with Workload.packets = -3 });
  (* a pump of its own, so that a partly sent batch cannot leak into
     the fixture's telemetry *)
  let serial = Pump.create env in
  List.iter
    (fun (exn, batch) ->
      let before = Telemetry.total (Pump.telemetry serial) in
      Alcotest.check_raises "the pump's run_batch refuses" exn (fun () ->
          Pump.run_batch serial batch);
      check Alcotest.bool "and sends none of the batch" true
        (Telemetry.total (Pump.telemetry serial) = before))
    bad;
  List.iter
    (fun shards ->
      let pool = Domainpool.create env ~shards ~seed:11L in
      List.iter
        (fun (exn, batch) ->
          Alcotest.check_raises
            (Printf.sprintf "run refuses at %d shard(s)" shards)
            exn
            (fun () -> Domainpool.run pool batch);
          Alcotest.check_raises
            (Printf.sprintf "run_cooperative refuses at %d shard(s)" shards)
            exn
            (fun () -> ignore (Domainpool.run_cooperative pool batch : int)))
        bad;
      let stray = lead @ [ { f with Workload.dst = Array.length inet.Internet.endhosts } ] in
      Alcotest.check_raises
        (Printf.sprintf "run refuses a stray endhost at %d shard(s)" shards)
        (Invalid_argument "index out of bounds")
        (fun () -> Domainpool.run pool stray);
      (* run_cooperative drains every queue in its first pass, so a
         flow left over from a refused batch shows in the verdict
         instead of hanging the live count *)
      ignore (Domainpool.run_cooperative pool flows : int);
      let v = verdict (Domainpool.telemetry pool) in
      Domainpool.close pool;
      check Alcotest.bool
        (Printf.sprintf "then a valid batch at %d shard(s) gives the pump's"
           shards)
        true
        (v = verdict (Pump.telemetry pump)))
    [ 1; 2 ]

(* the lowest free descriptor: the one the next open returns *)
let lowest_free_fd () =
  let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Unix.close fd;
  fd

(* A refused create holds no descriptor: each shard's doorbell pipe is
   opened only once nothing else can refuse. *)
let test_refused_create_leaks_no_fd () =
  let env, _, _ = Lazy.force pool_fixture in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument _ -> ()
  in
  let before = lowest_free_fd () in
  let n = Internet.num_routers env.Forward.inet in
  let map = Shardmap.create ~routers:n ~shards:1 in
  let tables = Array.make n Netcore.Lpm.empty in
  for _ = 1 to 10 do
    refused "Shard.create ~spill_cap:0" (fun () ->
        ignore
          (Shard.create ~spill_cap:0 ~sid:0 ~map ~tables ~rng:(Topology.Rng.create 1L)
             ~live:(Atomic.make 0) ()))
  done;
  for _ = 1 to 3 do
    refused "Domainpool.create ~spill_cap:0" (fun () ->
        ignore (Domainpool.create ~spill_cap:0 env ~shards:2 ~seed:11L));
    refused "Domainpool.create ~ring_capacity:0" (fun () ->
        ignore (Domainpool.create ~ring_capacity:0 env ~shards:2 ~seed:11L))
  done;
  check Alcotest.bool "the lowest free descriptor is unchanged" true
    (lowest_free_fd () = before)

let test_pool_telemetry_accumulates () =
  (* two runs of the same batch double every counter, like the pump *)
  let env, flows, _ = Lazy.force pool_fixture in
  let once = Domainpool.create env ~shards:4 ~seed:11L in
  Domainpool.run once flows;
  let p1, b1, e1, d1, r1, t1 = verdict (Domainpool.telemetry once) in
  Domainpool.close once;
  let twice = Domainpool.create env ~shards:4 ~seed:11L in
  Domainpool.run twice flows;
  Domainpool.run twice flows;
  let p2, b2, e2, d2, r2, t2 = verdict (Domainpool.telemetry twice) in
  Domainpool.close twice;
  check Alcotest.bool "all counters doubled" true
    ((p2, b2, e2, d2, r2, t2) = (2 * p1, 2 * b1, 2 * e1, 2 * d1, 2 * r1, 2 * t1))

(* The same comparison over generated internets, workloads and shard
   counts: every per-router counter a route decides equals the serial
   pump's, and at one shard every counter does. *)
let prop_pool_equals_pump =
  QCheck.Test.make ~name:"domainpool: pool = pump on generated internets"
    ~count:30
    QCheck.(
      quad (int_range 2 4) (int_range 1 4) (int_bound 10_000)
        (pair bool (int_range 1 4)))
    (fun (transits, stubs, seed, (gravity, shards)) ->
      let seed = Int64.of_int seed in
      let inet =
        Internet.build
          {
            Internet.default_params with
            transit_domains = transits;
            stubs_per_transit = stubs;
            seed;
          }
      in
      let env = Forward.make_env inet in
      let model =
        if gravity then Workload.Gravity { zipf_s = 1.2 } else Workload.Uniform
      in
      let flows = Workload.batch (Workload.create inet model ~seed) ~count:64 in
      let pump = Pump.create env in
      Pump.run_batch pump flows;
      let pool = Domainpool.create env ~shards ~seed in
      Domainpool.run pool flows;
      Domainpool.close pool;
      let pt = Domainpool.telemetry pool and st = Pump.telemetry pump in
      List.for_all
        (fun r ->
          let a = Telemetry.router pt r and b = Telemetry.router st r in
          if shards = 1 then a = b else routed a = routed b)
        (List.init (Telemetry.num_routers st) Fun.id)
      && (shards > 1
         || Telemetry.cls pt Telemetry.Native = Telemetry.cls st Telemetry.Native
         ))

(* ---------------------------------------------------------------- *)
(* Overload: bounded spill, shedding, supervision (DESIGN.md §13)    *)

(* the terminal-accounting partition: every injected packet ends
   exactly once as delivered, dropped, ttl-expired, queue-dropped or
   shed *)
let terminal_sum t =
  let c = Telemetry.total t in
  c.Telemetry.delivered + c.Telemetry.dropped + c.Telemetry.ttl_expired
  + c.Telemetry.queue_dropped + c.Telemetry.shed

let injected flows =
  List.fold_left (fun n f -> n + f.Workload.packets) 0 flows

(* one starved cooperative run with tight rings and a tiny spill; the
   slow-consumer drill's regime, down to the paced injection *)
let overloaded_pool env flows =
  let pool =
    Domainpool.create env ~shards:4 ~ring_capacity:8 ~spill_cap:8
      ~inject_per_pass:2 ~seed:11L
  in
  let rounds = Domainpool.run_cooperative ~slow:(1, 12) pool flows in
  (pool, rounds)

let test_spill_bounded_under_overload () =
  let env, flows, _ = Lazy.force pool_fixture in
  let pool, _ = overloaded_pool env flows in
  check Alcotest.bool "overload actually shed" true (Domainpool.shed pool > 0);
  check Alcotest.bool "pool high-water within the bound" true
    (Domainpool.overflow_high_water pool <= 8);
  for s = 0 to Domainpool.num_shards pool - 1 do
    let sh = Domainpool.shard pool s in
    check Alcotest.bool
      (Printf.sprintf "shard %d high-water within its cap" s)
      true
      (Shard.overflow_high_water sh <= Shard.overflow_cap sh);
    check Alcotest.int
      (Printf.sprintf "shard %d spill drained" s)
      0 (Shard.overflow_len sh)
  done;
  check Alcotest.int "every packet reached a terminal verdict"
    (injected flows)
    (terminal_sum (Domainpool.telemetry pool));
  check Alcotest.int "pool shed equals the telemetry's" (Domainpool.shed pool)
    (Telemetry.total (Domainpool.telemetry pool)).Telemetry.shed;
  Domainpool.close pool

let test_overload_deterministic () =
  (* backpressure and shedding are part of the deterministic contract:
     two identical starved runs agree on every count, rounds included *)
  let env, flows, _ = Lazy.force pool_fixture in
  let signature () =
    let pool, rounds = overloaded_pool env flows in
    let v = verdict (Domainpool.telemetry pool) in
    let s =
      ( Domainpool.shed pool,
        Domainpool.overflow_high_water pool,
        Domainpool.crossings pool,
        rounds )
    in
    Domainpool.close pool;
    (v, s)
  in
  check Alcotest.bool "starved runs are bit-reproducible" true
    (signature () = signature ())

let test_pool_supervised_restart_parallel () =
  (* the parallel spawn/join path with a crash armed: the supervisor
     must revive the victim and the verdict must still equal the
     serial pump's — walks read only the shared FIBs, so a restart is
     invisible to forwarding decisions *)
  let env, flows, pump = Lazy.force pool_fixture in
  let oracle = verdict (Pump.telemetry pump) in
  let pool = Domainpool.create env ~shards:4 ~seed:11L in
  Shard.arm_crash (Domainpool.shard pool 1) ~after:64;
  Domainpool.run pool flows;
  check Alcotest.bool "the supervisor restarted the victim" true
    (Domainpool.restarts pool >= 1);
  check Alcotest.bool "victim's restart is counted per shard" true
    (Domainpool.shard_restarts pool 1 >= 1);
  check Alcotest.int "nothing was shed across the crash" 0
    (Domainpool.shed pool);
  check Alcotest.bool "verdict equals the serial pump's" true
    (verdict (Domainpool.telemetry pool) = oracle);
  Domainpool.close pool

(* The per-pair no-reorder property. [Shard.offer]'s discipline —
   ring only while the spill is empty, spill retried FIFO before
   fresh handoffs, shed past the bound — exercised over the real ring
   for every qcheck-drawn interleaving of producer steps and consumer
   drains: the messages that survive must reach the consumer in
   exactly the order the producer emitted them. *)
let prop_backpressure_no_reorder =
  QCheck.Test.make
    ~name:"overload: survivors keep per-pair FIFO under spill and shed"
    ~count:300
    QCheck.(
      triple (int_range 0 4) (int_range 1 8)
        (list_of_size (QCheck.Gen.int_range 1 60) (int_range 0 4)))
    (fun (cap_log, spill_cap, drains) ->
      let r = Ring.create ~capacity:(1 lsl cap_log) ~dummy:(-1) in
      let spill = Queue.create () in
      let sent = ref [] and received = ref [] and shed = ref [] in
      let flush_spill () =
        let stalled = ref false in
        while (not !stalled) && not (Queue.is_empty spill) do
          if Ring.push r (Queue.peek spill) then ignore (Queue.take spill)
          else stalled := true
        done
      in
      let offer v =
        sent := v :: !sent;
        flush_spill ();
        if Queue.is_empty spill && Ring.push r v then ()
        else if Queue.length spill < spill_cap then Queue.add v spill
        else shed := v :: !shed
      in
      let next = ref 0 in
      List.iter
        (fun pops ->
          offer !next;
          incr next;
          for _ = 1 to pops do
            if not (Ring.is_empty r) then received := Ring.pop r :: !received
          done)
        drains;
      (* end of overload: drain everything still in flight, spill
         first through the ring as the shard's retry loop would *)
      let guard = ref 0 in
      while
        (not (Ring.is_empty r)) || not (Queue.is_empty spill)
      do
        incr guard;
        if !guard > 100_000 then failwith "drain did not terminate";
        while not (Ring.is_empty r) do
          received := Ring.pop r :: !received
        done;
        flush_spill ()
      done;
      let module IS = Set.Make (Int) in
      let shed_set = IS.of_list !shed in
      let survivors =
        List.filter (fun v -> not (IS.mem v shed_set)) (List.rev !sent)
      in
      List.rev !received = survivors
      && List.length !received + IS.cardinal shed_set = List.length !sent)

let () =
  Alcotest.run "multicore"
    [
      ( "ring",
        [
          Alcotest.test_case "serial FIFO" `Quick test_ring_fifo_serial;
          Alcotest.test_case "capacity rounding" `Quick
            test_ring_capacity_rounding;
          Alcotest.test_case "backpressure" `Quick test_ring_backpressure;
          qcheck prop_ring_spsc;
          qcheck prop_ring_relay_4domains;
        ] );
      ( "shardmap",
        [
          Alcotest.test_case "total contiguous partition" `Quick
            test_shardmap_partition;
          Alcotest.test_case "validation" `Quick test_shardmap_validation;
        ] );
      ( "domainpool",
        [
          Alcotest.test_case "one shard equals the pump" `Quick
            test_pool_one_shard_equals_pump;
          Alcotest.test_case "verdicts shard-invariant" `Quick
            test_pool_verdicts_shard_invariant;
          Alcotest.test_case "a bad batch is refused before queueing" `Quick
            test_pool_refuses_bad_batch;
          Alcotest.test_case "telemetry accumulates" `Quick
            test_pool_telemetry_accumulates;
          qcheck prop_pool_equals_pump;
          Alcotest.test_case "a refused create leaks no descriptor" `Quick
            test_refused_create_leaks_no_fd;
        ] );
      ( "overload",
        [
          Alcotest.test_case "spill bounded under sustained overload" `Quick
            test_spill_bounded_under_overload;
          Alcotest.test_case "starved runs deterministic" `Quick
            test_overload_deterministic;
          Alcotest.test_case "supervised restart on the parallel path" `Slow
            test_pool_supervised_restart_parallel;
          qcheck prop_backpressure_no_reorder;
        ] );
    ]
