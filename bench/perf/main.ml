(* bench/perf: an oracle-checked benchmark of evolvenet's data plane,
   control plane and report, measured from outside the library.

     dune exec bench/perf/main.exe -- --workload NAME --seed N
       [--seconds S] [--trace [0|1]] [--out FILE]
     dune exec bench/perf/main.exe -- --compare A.json B.json

   Every timed region is a call into a public library function, read
   off the monotonic clock, and every result is checked against an
   oracle outside the timed region. A run prints a summary and, as its
   last line, a one-line JSON result; --out also writes the full run
   document. bench/perf/README.md explains the workloads, the metrics
   and their bounds. *)

open Perfkit
module Internet = Topology.Internet
module Graph = Topology.Graph
module Rng = Topology.Rng
module Forward = Simcore.Forward
module Fib = Simcore.Fib
module Engine = Simcore.Engine
module Faults = Simcore.Faults
module Bgpdyn = Simcore.Bgpdyn
module Lsproto = Simcore.Lsproto
module Bgp = Interdomain.Bgp
module Pump = Dataplane.Pump
module Workload = Dataplane.Workload
module Telemetry = Dataplane.Telemetry
module Linkq = Dataplane.Linkq
module Flowcache = Dataplane.Flowcache
module Domainpool = Multicore.Domainpool
module Ring = Multicore.Ring
module Wire = Netcore.Wire
module Lpm = Netcore.Lpm
module Packet = Netcore.Packet
module Arena = Netcore.Arena

(* --- clock, checks, spans and layer values ---------------------------- *)

let now = Monotonic_clock.now
let secs t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (secs t0 (now ()), v)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
}

let checks = { attempted = 0; failed = 0; first_failure = None }

let check ok what =
  checks.attempted <- checks.attempted + 1;
  if not ok then begin
    checks.failed <- checks.failed + 1;
    if Option.is_none checks.first_failure then checks.first_failure <- Some what;
    Printf.eprintf "check failed: %s\n%!" what
  end

(* Spans live in memory until the document is written: one per layer
   loop of the traced pass, per traced trial and per library call in a
   traced trial. *)
type span = {
  id : int;
  name : string;
  parent : int option;
  start_ns : int64;
  end_ns : int64;
  count : int;
}

let spans = ref []
let next_span = ref 0

let span ?parent name ~count f =
  let id = !next_span in
  incr next_span;
  let start_ns = now () in
  let v = f id in
  spans := { id; name; parent; start_ns; end_ns = now (); count } :: !spans;
  v

(* [f] under a span when a parent is given, bare otherwise *)
let maybe_span parent name ~count f =
  match parent with None -> f () | Some parent -> span ~parent name ~count (fun _ -> f ())

(* Run [f] in a span of [count] operations; ns per operation. *)
let ns_per ~parent name ~count f =
  let dt, () = timed (fun () -> span ~parent name ~count (fun _ -> f ())) in
  dt *. 1e9 /. float_of_int (max 1 count)

(* [count] calls [f 0] .. [f (count - 1)] of one layer call *)
let loop_ns ~parent name ~count f =
  ns_per ~parent name ~count (fun () ->
      for i = 0 to count - 1 do
        f i
      done)

let layers : (string * string * float) list ref = ref []
let layer name unit v = layers := (name, unit, v) :: !layers

(* --- topology and traffic --------------------------------------------- *)

(* The E21 large internet: 12 transits x 6 stubs, 576 routers, with
   the default topology seed; only the endhost count varies. *)
let e21 ~endhosts =
  {
    Internet.default_params with
    Internet.transit_domains = 12;
    stubs_per_transit = 6;
    endhosts_per_domain = endhosts;
  }

type traffic = {
  model : Workload.model;
  packets_per_flow : int;
  payload_mix : int array option;  (** None: the default 64/512/1400 mix *)
  endhosts : int;  (** per domain *)
  batch : int;  (** flows per batch *)
  distinct : int;  (** distinct batches, cycled through by the trials *)
}

(* Flowlets on hot caches: one batch, replayed by every trial. *)
let gravity =
  {
    model = Workload.Gravity { zipf_s = 1.2 };
    packets_per_flow = 16;
    payload_mix = Some [| 1 |];
    endhosts = 4;
    batch = 16384;
    distinct = 1;
  }

(* Singletons on cold caches: 5,376 destinations against 256 slots per
   router, and enough distinct batches that no trial replays the last. *)
let uniform =
  {
    model = Workload.Uniform;
    packets_per_flow = 1;
    payload_mix = None;
    endhosts = 64;
    batch = 1024;
    distinct = 64;
  }

(* --seed drives the traffic, fault and flap draws; the topology seed
   stays fixed *)
let derived_seed seed k = Int64.of_int ((seed * 1_000_003) + k)

let payload_of (f : Workload.flow) = String.make f.Workload.bytes_per_packet 'x'

let packet_of inet (f : Workload.flow) =
  let hs = Internet.endhost inet f.Workload.src and hd = Internet.endhost inet f.Workload.dst in
  Packet.make_data ~src:hs.Internet.haddr ~dst:hd.Internet.haddr (payload_of f)

(* terminal verdicts: every packet ends in exactly one of these *)
type hist = { delivered : int; dropped : int; ttl : int; qdrop : int; shed : int }

let hist_zero = { delivered = 0; dropped = 0; ttl = 0; qdrop = 0; shed = 0 }

let hist_of (c : Telemetry.counters) =
  {
    delivered = c.Telemetry.delivered;
    dropped = c.Telemetry.dropped;
    ttl = c.Telemetry.ttl_expired;
    qdrop = c.Telemetry.queue_dropped;
    shed = c.Telemetry.shed;
  }

let hist_map2 f a b =
  {
    delivered = f a.delivered b.delivered;
    dropped = f a.dropped b.dropped;
    ttl = f a.ttl b.ttl;
    qdrop = f a.qdrop b.qdrop;
    shed = f a.shed b.shed;
  }

let hist_sum h = h.delivered + h.dropped + h.ttl + h.qdrop + h.shed

let hist_to_string h =
  Printf.sprintf "delivered %d dropped %d ttl %d qdrop %d shed %d" h.delivered h.dropped h.ttl
    h.qdrop h.shed

let tel_hist tel = hist_of (Telemetry.total tel)

(* The change in terminal counters over a trial must account for every
   packet injected and match the oracle's histogram. *)
let check_trial ~what ~packets ~want got =
  check (hist_sum got = packets)
    (Printf.sprintf "%s: %d verdicts for %d packets" what (hist_sum got) packets);
  check (got = want)
    (Printf.sprintf "%s: got %s, want %s" what (hist_to_string got) (hist_to_string want))

(* --- the run's shape --------------------------------------------------- *)

(* Trial [t] of a path, prepared untimed: a timed body returning the
   operations it brought to completion (given a parent span, it puts
   each library call in a child span), then an untimed verifier. *)
type trial = { body : ?parent:int -> unit -> int; verify : unit -> unit }

type path = {
  op : string;  (** what one operation is *)
  trial : int -> trial;
  warmups : int;  (** untimed trials before the clock starts *)
  traced_trials : int;  (** trials re-timed under spans for the overhead *)
  per_layer : parent:int -> rate:float -> unit;
      (** the traced pass's layer loops; [rate] is the untraced median *)
  dispose : unit -> unit;
}

type measured = {
  rates : float list;  (** operations per second, one per timed trial *)
  minor_words : float;
  major_collections : int;
  ops : int;
}

(* Time trials of [p] until [seconds] have passed. After each trial,
   [between] gets the share of the window used so far. *)
let measure ~seconds ~between p =
  for t = 0 to p.warmups - 1 do
    let tr = p.trial t in
    ignore (tr.body () : int);
    tr.verify ()
  done;
  let start = now () in
  let rates = ref [] and minor = ref 0.0 and major = ref 0 and ops = ref 0 in
  let t = ref p.warmups in
  while !rates = [] || secs start (now ()) < seconds do
    let tr = p.trial !t in
    let g0 = Gc.quick_stat () in
    let dt, n = timed (fun () -> tr.body ()) in
    let g1 = Gc.quick_stat () in
    minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
    ops := !ops + n;
    rates := (float_of_int n /. dt) :: !rates;
    tr.verify ();
    between (secs start (now ()) /. seconds);
    incr t
  done;
  { rates = List.rev !rates; minor_words = !minor; major_collections = !major; ops = !ops }

(* --- data-plane layer replay ------------------------------------------ *)

(* The inputs one trial fed the pump, as the traced pass replays them:
   each flow, its packet, and the routers its Pump.send_data trace
   visited (entry first). *)
type replay = {
  flows : Workload.flow array;
  packets : Packet.t array;
  hops : int array array;
  delivered : bool array;
}

let record_replay pump flows =
  let inet = (Pump.env pump).Forward.inet in
  let flows = Array.of_list flows in
  let traces =
    Array.map
      (fun (f : Workload.flow) ->
        Pump.send_data pump ~src:f.Workload.src ~dst:f.Workload.dst ~payload:(payload_of f))
      flows
  in
  {
    flows;
    packets = Array.map (packet_of inet) flows;
    hops = Array.map (fun tr -> Array.of_list tr.Forward.hops) traces;
    delivered = Array.map Forward.delivered traces;
  }

let sum_by f a = Array.fold_left (fun acc x -> acc + f x) 0 a

(* Replay every packet of the recorded flows through [f flow_index]. *)
let per_packet r f =
  Array.iteri
    (fun i (fl : Workload.flow) ->
      for _ = 1 to fl.Workload.packets do
        f i
      done)
    r.flows

(* Time each per-hop and per-packet layer of the pump on the replay,
   and return the cost per packet they account for. [invalidate i]
   lists the routers whose caches the trial cleared before flow [i]. *)
let pump_layers ~parent ?(invalidate = fun _ -> []) env r =
  let n = Internet.num_routers env.Forward.inet in
  let fib = Fib.compile env in
  let tables = Array.init n (fun router -> Fib.table fib ~router) in
  let dst = Array.map (fun (p : Packet.t) -> p.Packet.dst) r.packets in
  let packets = sum_by (fun (f : Workload.flow) -> f.Workload.packets) r.flows in
  let hops = ref 0 in
  per_packet r (fun i -> hops := !hops + Array.length r.hops.(i));
  let hops = !hops in
  let timed_replay name ~count f = ns_per ~parent name ~count (fun () -> per_packet r f) in
  let lpm_ns =
    timed_replay "lpm.lookup_value" ~count:hops (fun i ->
        Array.iter (fun router -> ignore (Lpm.lookup_value dst.(i) tables.(router))) r.hops.(i))
  in
  (* the actions are looked up beforehand so the loop times the cache
     alone: a probe per hop and an insert on a miss *)
  let actions =
    Array.mapi (fun i h -> Array.map (fun router -> Lpm.lookup_value dst.(i) tables.(router)) h) r.hops
  in
  let caches = Array.init n (fun _ -> Flowcache.create ~slots:256) in
  let cache_ns =
    timed_replay "flowcache.lookup" ~count:hops (fun i ->
        List.iter (fun router -> Flowcache.clear caches.(router)) (invalidate i);
        Array.iteri
          (fun k router ->
            let c = caches.(router) in
            match Flowcache.lookup c dst.(i) with
            | Some _ -> ()
            | None -> Option.iter (Flowcache.insert c dst.(i)) actions.(i).(k))
          r.hops.(i))
  in
  let hits = sum_by (fun c -> (Flowcache.stats c).Flowcache.hits) caches
  and misses = sum_by (fun c -> (Flowcache.stats c).Flowcache.misses) caches in
  let tel = Telemetry.create ~routers:n in
  let tel_ns =
    timed_replay "telemetry.record" ~count:hops (fun i ->
        let bytes = Wire.wire_length r.packets.(i) in
        Array.iter
          (fun router ->
            Telemetry.record_hop_n tel ~router ~cls:Telemetry.Native ~bytes ~encap_bytes:0 ~count:1;
            Telemetry.record_cache_n tel ~router ~cls:Telemetry.Native ~hits:1 ~misses:0)
          r.hops.(i))
  in
  let wires = Array.map Wire.encode r.packets in
  let enc_ns =
    timed_replay "wire.encode" ~count:packets (fun i -> ignore (Wire.encode r.packets.(i)))
  in
  let decoded = ref 0 in
  let dec_ns =
    timed_replay "wire.decode" ~count:packets (fun i ->
        match Wire.decode wires.(i) with Ok _ -> incr decoded | Error _ -> ())
  in
  check (!decoded = packets) "every replayed packet decodes";
  let delivered = ref 0 in
  per_packet r (fun i -> if r.delivered.(i) then incr delivered);
  let per_pkt x = float_of_int x /. float_of_int packets in
  layer "lpm.lookup_ns" "ns" lpm_ns;
  layer "flowcache.lookup_ns" "ns" cache_ns;
  layer "flowcache.hit_rate" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  layer "telemetry.record_ns" "ns" tel_ns;
  layer "wire.encode_ns" "ns" enc_ns;
  layer "wire.decode_ns" "ns" dec_ns;
  (per_pkt hops *. (tel_ns +. cache_ns))
  +. (per_pkt misses *. lpm_ns)
  +. enc_ns
  +. (per_pkt !delivered *. dec_ns)

(* What the layers explain of the end-to-end cost per packet. *)
let reconcile ~rate layer_sum =
  let e2e = 1e9 /. rate in
  layer "reconcile.layer_sum_ns_per_pkt" "ns" layer_sum;
  layer "reconcile.e2e_ns_per_pkt" "ns" e2e;
  layer "reconcile.residual_frac" "ratio" ((e2e -. layer_sum) /. e2e)

(* --- pump and pool: gravity-flowlets and uniform-singletons ----------- *)

let nproc = Domain.recommended_domain_count ()

(* the shard curve of the traced pool pass: (shards, pps, oversubscribed) *)
let shard_curve : (int * float * bool) list ref = ref []

(* The pool's shard curve times [curve_per_trial] batches per point. *)
type engine = Pump_engine | Pool_engine of { curve_per_trial : int }

let dataplane tr engine ~per_trial ~seed =
  let inet = Internet.build (e21 ~endhosts:tr.endhosts) in
  let env = Forward.make_env inet in
  let wl =
    Workload.create ~packets_per_flow:tr.packets_per_flow ?payload_mix:tr.payload_mix inet tr.model
      ~seed:(derived_seed seed 0)
  in
  let batches = Array.init tr.distinct (fun _ -> Workload.batch wl ~count:tr.batch) in
  let pump = Pump.create env in
  let pool =
    match engine with
    | Pump_engine -> None
    | Pool_engine _ -> Some (Domainpool.create env ~shards:1 ~seed:(derived_seed seed 1))
  in
  let nb = Array.length batches in
  let packets = Array.map Workload.total_packets batches in
  let batch_at ~per t i = ((t * per) + i) mod nb in
  let over ~per t f = List.init per (fun i -> f (batch_at ~per t i)) in
  (* each batch's verdicts through the pump, filled before the first
     trial: the oracle every timed trial is checked against *)
  let expected = Array.make nb hist_zero in
  let expect ~per t = List.fold_left (hist_map2 ( + )) hist_zero (over ~per t (Array.get expected)) in
  let packets_of ~per t = List.fold_left ( + ) 0 (over ~per t (Array.get packets)) in
  let prepared = ref false in
  let prepare () =
    if not !prepared then begin
      prepared := true;
      (* the pump against the control-plane oracle on 2,000 flows
         sampled evenly from the batches: same hops, same outcome *)
      let flows = Array.concat (Array.to_list (Array.map Array.of_list batches)) in
      let n = Array.length flows in
      for i = 0 to min 2000 n - 1 do
        let f = flows.(i * n / min 2000 n) in
        let got = Pump.send_data pump ~src:f.Workload.src ~dst:f.Workload.dst ~payload:(payload_of f) in
        let want = Forward.send_from_endhost env (packet_of inet f) ~endhost:f.Workload.src in
        check
          (got.Forward.outcome = want.Forward.outcome && got.Forward.hops = want.Forward.hops)
          (Printf.sprintf "pump disagrees with Forward on %d -> %d" f.Workload.src f.Workload.dst)
      done;
      Array.iteri
        (fun i b ->
          let before = tel_hist (Pump.telemetry pump) in
          Pump.run_batch pump b;
          let got = hist_map2 ( - ) (tel_hist (Pump.telemetry pump)) before in
          check (hist_sum got = packets.(i)) "pump verdicts account for every packet";
          expected.(i) <- got)
        batches
    end
  in
  let run_on run tel ~per t =
    prepare ();
    let before = tel_hist (tel ()) in
    {
      body =
        (fun ?parent () ->
          List.iter
            (fun b -> maybe_span parent "run" ~count:packets.(b) (fun () -> run batches.(b)))
            (over ~per t Fun.id);
          packets_of ~per t);
      verify =
        (fun () ->
          check_trial ~what:(Printf.sprintf "trial %d" t) ~packets:(packets_of ~per t)
            ~want:(expect ~per t)
            (hist_map2 ( - ) (tel_hist (tel ())) before));
    }
  in
  let trial t =
    match pool with
    | None -> run_on (Pump.run_batch pump) (fun () -> Pump.telemetry pump) ~per:per_trial t
    | Some p -> run_on (Domainpool.run p) (fun () -> Domainpool.telemetry p) ~per:per_trial t
  in
  let pump_per_layer ~parent ~rate =
    let flows = List.concat (over ~per:per_trial 0 (Array.get batches)) in
    reconcile ~rate (pump_layers ~parent env (record_replay pump flows))
  in
  (* Pool pps at 1, 2, 4 and 8 shards, one trial each per round,
     round-robin, so every point sees the same host phases. *)
  let pool_per_layer ~curve_per_trial ~parent ~rate:_ =
    let points = [ 1; 2; 4; 8 ] in
    let pools =
      List.map (fun k -> (k, Domainpool.create env ~shards:k ~seed:(derived_seed seed k))) points
    in
    let per = curve_per_trial in
    let rates = Hashtbl.create 4 in
    let crossings = ref 0 and crossed_packets = ref 0 in
    for round = 0 to 5 do
      List.iter
        (fun (k, p) ->
          let tr = run_on (Domainpool.run p) (fun () -> Domainpool.telemetry p) ~per round in
          let c0 = Domainpool.crossings p in
          let dt, n =
            timed (fun () ->
                span ~parent (Printf.sprintf "curve.%d" k) ~count:(packets_of ~per round) (fun _ ->
                    tr.body ()))
          in
          tr.verify ();
          (* round 0 is the warm-up *)
          if round > 0 then begin
            Hashtbl.replace rates k ((float_of_int n /. dt) :: Option.value ~default:[] (Hashtbl.find_opt rates k));
            if k = 2 then begin
              crossings := !crossings + Domainpool.crossings p - c0;
              crossed_packets := !crossed_packets + n
            end
          end)
        pools
    done;
    let pps k = Stats.median (Hashtbl.find rates k) in
    shard_curve := List.map (fun k -> (k, pps k, k > nproc)) points;
    List.iter (fun k -> layer (Printf.sprintf "domainpool.pps.%d" k) "1/s" (pps k)) points;
    layer "domainpool.scaling_eff" "ratio" (pps 2 /. (2.0 *. pps 1));
    layer "domainpool.crossings_per_pkt" "ratio"
      (float_of_int !crossings /. float_of_int (max 1 !crossed_packets));
    let flows = List.concat (over ~per:per_trial 0 (Array.get batches)) in
    layer "domainpool.pkts_per_walk" "ratio"
      (float_of_int (Workload.total_packets flows) /. float_of_int (List.length flows));
    List.iter
      (fun k ->
        let p = List.assoc k pools in
        let reps = if k = 1 then 2000 else 100 in
        let ns = loop_ns ~parent (Printf.sprintf "domainpool.run_empty.%d" k) ~count:reps (fun _ -> Domainpool.run p []) in
        layer (Printf.sprintf "domainpool.run_empty_us.%d" k) "us" (ns /. 1e3))
      [ 1; 2 ];
    List.iter (fun (_, p) -> Domainpool.close p) pools;
    let ring = Ring.create ~capacity:1024 ~dummy:0 in
    layer "ring.push_pop_ns" "ns"
      (loop_ns ~parent "ring.push_pop" ~count:1_000_000 (fun i ->
           if Ring.push ring i then ignore (Ring.pop ring : int)));
    (* one encode_into per walk: the pool encodes a flow's packet once *)
    let walks = Array.of_list (List.map (packet_of inet) flows) in
    let arena = Arena.create ~bytes:(sum_by Wire.wire_length walks) in
    let ns =
      loop_ns ~parent "wire.encode_into" ~count:(Array.length walks) (fun i ->
          if i = 0 then Arena.reset arena;
          ignore (Wire.encode_into walks.(i) arena : int))
    in
    layer "wire.encode_into_ns" "ns" ns
  in
  {
    op = "packet";
    trial;
    warmups = 1;
    traced_trials = 5;
    per_layer =
      (match engine with
      | Pump_engine -> pump_per_layer
      | Pool_engine { curve_per_trial } -> pool_per_layer ~curve_per_trial);
    dispose = (fun () -> Option.iter Domainpool.close pool);
  }

(* --- churn-queues: the pump's write paths beside its reads ------------- *)

(* Each trial is [churn_rounds] rounds of [churn_flows] gravity flows
   (4 packets each, every 16th flow control traffic) through the pump
   under a fresh set of finite link queues shaped like E36's (depth =
   2 x rate, reserve = depth / 5). Every round ends with a refresh of
   a rotating eighth of the routers and a queue tick; a seeded set of
   links is down in every other pair of rounds. [churn_rate] (bytes
   per tick) is sized so about a fifth of the packets are queue-dropped
   or shed. *)
let churn_rounds = 4
let churn_flows = 8192
let churn_rate = 600_000
let churn_flaps = 16

let churn ~seed =
  let inet = Internet.build (e21 ~endhosts:4) in
  let env = Forward.make_env inet in
  let wl =
    Workload.create ~packets_per_flow:4 inet (Workload.Gravity { zipf_s = 1.2 })
      ~seed:(derived_seed seed 0)
  in
  let rounds = Array.init churn_rounds (fun _ -> Array.of_list (Workload.batch wl ~count:churn_flows)) in
  let control k i = ((k * churn_flows) + i) mod 16 = 15 in
  let ctl_packets = Array.map (Array.map (packet_of inet)) rounds in
  let pump = Pump.create env in
  let new_linkq () =
    let depth = 2 * churn_rate in
    Linkq.of_internet ~control_reserve:(depth / 5) ~rate:churn_rate ~depth inet
  in
  let last_linkq = ref (new_linkq ()) in
  let n = Internet.num_routers inet in
  let down = Bytes.make (n * n) '\000' in
  let links = List.map (fun (a, b, _) -> (a, b)) (Graph.edges inet.Internet.graph) in
  List.iter
    (fun (a, b) ->
      Bytes.set down ((a * n) + b) '\001';
      Bytes.set down ((b * n) + a) '\001')
    (Rng.sample (Rng.create (derived_seed seed 1)) churn_flaps links);
  let link_up a b = Bytes.get down ((a * n) + b) = '\000' in
  let eighths = Array.init 8 (fun k -> List.filter (fun r -> r mod 8 = k) (List.init n Fun.id)) in
  let eighth t k = eighths.(((t * churn_rounds) + k) mod 8) in
  let links_down k = k / 2 mod 2 = 1 in
  let packets = sum_by (Array.fold_left (fun a (f : Workload.flow) -> a + f.Workload.packets) 0) rounds in
  let first = ref None in
  let trial t =
    let lq = new_linkq () in
    last_linkq := lq;
    Pump.attach_linkq pump lq;
    Pump.clear_link_filter pump;
    let before = tel_hist (Pump.telemetry pump) in
    {
      body =
        (fun ?parent () ->
          Array.iteri
            (fun k flows ->
              if links_down k then Pump.set_link_filter pump link_up else Pump.clear_link_filter pump;
              maybe_span parent "pump.send" ~count:(churn_flows * 4) (fun () ->
                  Array.iteri
                    (fun i f ->
                      if control k i then
                        for _ = 1 to f.Workload.packets do
                          ignore
                            (Pump.inject ~cls:Telemetry.Control pump ctl_packets.(k).(i)
                               ~entry:(Internet.endhost inet f.Workload.src).Internet.access_router)
                        done
                      else Pump.run_flow pump f)
                    flows);
              maybe_span parent "pump.refresh" ~count:1 (fun () ->
                  Pump.refresh ~routers:(eighth t k) pump);
              maybe_span parent "linkq.tick" ~count:1 (fun () -> Linkq.tick lq))
            rounds;
          packets);
      verify =
        (fun () ->
          let got = hist_map2 ( - ) (tel_hist (Pump.telemetry pump)) before in
          let want = match !first with Some h -> h | None -> got in
          first := Some want;
          check_trial ~what:(Printf.sprintf "churn trial %d" t) ~packets ~want got);
    }
  in
  let per_layer ~parent ~rate =
    let st = Linkq.stats !last_linkq in
    let refused = st.Linkq.drops_full + st.Linkq.drops_shed in
    layer "linkq.drop_frac" "ratio" (float_of_int refused /. float_of_int (st.Linkq.admitted + refused));
    layer "linkq.high_water" "bytes" (float_of_int st.Linkq.high_water);
    Option.iter
      (fun h -> layer "linkq.loss_frac" "ratio" (float_of_int (h.qdrop + h.shed) /. float_of_int packets))
      !first;
    Pump.detach_linkq pump;
    Pump.clear_link_filter pump;
    let flows = List.concat_map Array.to_list (Array.to_list rounds) in
    let r = record_replay pump flows in
    (* a refresh after round k clears that eighth's caches before the
       first flow of round k + 1 *)
    let invalidate i =
      if i > 0 && i mod churn_flows = 0 then eighth 0 ((i / churn_flows) - 1) else []
    in
    let sum = pump_layers ~parent ~invalidate env r in
    (* Linkq.admit per link hop, ticking between rounds as the trial does *)
    let lq = new_linkq () in
    let link_hops = ref 0 in
    per_packet r (fun i -> link_hops := !link_hops + Array.length r.hops.(i) - 1);
    let admit_ns =
      ns_per ~parent "linkq.admit" ~count:!link_hops (fun () ->
          Array.iteri
            (fun i (f : Workload.flow) ->
              if i > 0 && i mod churn_flows = 0 then Linkq.tick lq;
              let cls =
                if control (i / churn_flows) (i mod churn_flows) then Telemetry.Control
                else Telemetry.Native
              in
              let bytes = Wire.wire_length r.packets.(i) and h = r.hops.(i) in
              for _ = 1 to f.Workload.packets do
                for k = 0 to Array.length h - 2 do
                  ignore (Linkq.admit lq ~src:h.(k) ~dst:h.(k + 1) ~cls ~bytes : Linkq.verdict)
                done
              done)
            r.flows)
    in
    layer "linkq.admit_ns" "ns" admit_ns;
    let refresh_ns =
      loop_ns ~parent "pump.refresh" ~count:8 (fun k -> Pump.refresh ~routers:eighths.(k) pump)
    in
    layer "pump.refresh_ms" "ms" (refresh_ns /. 1e6);
    let per_pkt x = x /. float_of_int packets in
    reconcile ~rate
      (sum
      +. (per_pkt (float_of_int !link_hops) *. admit_ns)
      +. per_pkt (float_of_int churn_rounds *. refresh_ns))
  in
  {
    op = "packet";
    trial;
    warmups = 1;
    traced_trials = 5;
    per_layer;
    dispose = ignore;
  }

(* --- control-boot: BGP and link-state boot to convergence ------------- *)

let lossy p ~src:_ ~dst:_ = Faults.lossy p

type boot = {
  bgp_s : float;
  ls_s : float;
  events : int;
  updates : int;
  resets : int;
  messages : int;
  retransmits : int;
}

let control ~seed =
  let inet = Internet.build (e21 ~endhosts:4) in
  let boots = ref [] in
  let trial t =
    let fault_seed k = derived_seed seed ((1000 * t) + k) in
    let result = ref None in
    {
      body =
        (fun ?parent () ->
          (* BGP through a FIFO fabric at loss 0.2, injection stopping at
             t = 30 as in BENCH_faults: without hold timers a lost update
             means a reset and a full replay, so the run only quiesces
             once loss stops *)
          let bgp_s, (dyn, bgp_events) =
            timed (fun () ->
                maybe_span parent "bgpdyn.boot" ~count:1 (fun () ->
                    let faults = Faults.create ~policy:(lossy 0.2) ~fifo:true (fault_seed 0) in
                    let dyn = Bgpdyn.create ~faults inet in
                    let eng = Engine.create () in
                    Bgpdyn.originate_all_domain_prefixes dyn eng;
                    Engine.schedule_at eng ~time:30.0 (fun _ ->
                        Faults.set_policy faults (fun ~src:_ ~dst:_ -> Faults.reliable));
                    (dyn, Engine.run eng)))
          in
          (* reliable flooding in every domain at loss 0.2, one fabric
             per protocol instance *)
          let ls_s, (protos, ls_events) =
            timed (fun () ->
                maybe_span parent "lsproto.flood" ~count:1 (fun () ->
                    let eng = Engine.create () in
                    let protos =
                      Array.init (Internet.num_domains inet) (fun domain ->
                          let faults =
                            Faults.create ~policy:(lossy 0.2) (fault_seed (1 + domain))
                          in
                          Lsproto.create ~faults inet ~domain)
                    in
                    Array.iter (fun p -> Lsproto.start p eng) protos;
                    (protos, Engine.run eng)))
          in
          result := Some (bgp_s, dyn, bgp_events, ls_s, protos, ls_events);
          1);
      verify =
        (fun () ->
          match !result with
          | None -> check false "control trial did not run"
          | Some (bgp_s, dyn, bgp_events, ls_s, protos, ls_events) ->
              check (Result.is_ok (Bgpdyn.agrees_with_synchronous dyn))
                (Printf.sprintf "trial %d: async BGP disagrees with the synchronous oracle" t);
              Array.iteri
                (fun d p ->
                  check (Lsproto.lsdb_synchronized p)
                    (Printf.sprintf "trial %d: domain %d LSDBs not synchronized" t d))
                protos;
              let bs = Bgpdyn.stats dyn in
              let ms =
                Array.fold_left
                  (fun (m, r) p ->
                    let s = Lsproto.stats p in
                    (m + s.Lsproto.messages, r + s.Lsproto.retransmits))
                  (0, 0) protos
              in
              boots :=
                {
                  bgp_s;
                  ls_s;
                  events = bgp_events + ls_events;
                  updates = bs.Bgpdyn.updates;
                  resets = bs.Bgpdyn.resets;
                  messages = fst ms;
                  retransmits = snd ms;
                }
                :: !boots);
    }
  in
  let per_layer ~parent ~rate:_ =
    let med f = Stats.median (List.map f !boots) in
    let medi f = med (fun b -> float_of_int (f b)) in
    layer "bgpdyn.boot_ms" "ms" (med (fun b -> b.bgp_s *. 1e3));
    layer "lsproto.flood_ms" "ms" (med (fun b -> b.ls_s *. 1e3));
    layer "engine.events" "count" (medi (fun b -> b.events));
    layer "engine.ns_per_event" "ns" (med (fun b -> (b.bgp_s +. b.ls_s) *. 1e9 /. float_of_int b.events));
    layer "bgpdyn.updates" "count" (medi (fun b -> b.updates));
    layer "bgpdyn.resets" "count" (medi (fun b -> b.resets));
    layer "lsproto.messages" "count" (medi (fun b -> b.messages));
    layer "lsproto.retransmits" "count" (medi (fun b -> b.retransmits));
    let faults = Faults.create ~policy:(lossy 0.2) (derived_seed seed 2) in
    let eng = Engine.create () in
    layer "faults.send_ns" "ns"
      (loop_ns ~parent "faults.send" ~count:200_000 (fun _ ->
           ignore (Faults.send faults eng ~src:0 ~dst:1 ~delay:1.0 ignore : Faults.outcome);
           ignore (Engine.run eng : int)))
  in
  { op = "boot"; trial; warmups = 1; traced_trials = 5; per_layer; dispose = ignore }

(* --- report: params to RESULTS.md -------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let report () =
  (* Report.generate sets itself up inside the timed call; the set-up
     here loads the byte oracle and the E21 fixture the traced pass's
     set-up layers are timed on *)
  let oracle = read_file "RESULTS.md" in
  let inet = Internet.build (e21 ~endhosts:4) in
  ignore (Forward.make_env inet : Forward.env);
  let trial t =
    let out = ref "" in
    {
      body =
        (fun ?parent () ->
          out := maybe_span parent "report.generate" ~count:1 Evolve.Report.generate;
          1);
      verify =
        (fun () ->
          check (String.equal !out oracle)
            (Printf.sprintf "trial %d: Report.generate differs from RESULTS.md" t));
    }
  in
  { op = "report"; trial; warmups = 0; traced_trials = 1; per_layer = (fun ~parent:_ ~rate:_ -> ()); dispose = ignore }

(* --- the workloads -------------------------------------------------------- *)

(* BENCHMARK.json and README.md say why each workload was chosen *)
type workload = {
  name : string;
  endhosts : int;  (** of the E21 internet the set-up layers are timed on *)
  setup : seed:int -> path;
}

(* [per_trial] batches make a trial of about 0.1 s on a 2-core host *)
let workloads =
  [
    { name = "gravity-flowlets-pump"; endhosts = 4;
      setup = dataplane gravity Pump_engine ~per_trial:1 };
    { name = "gravity-flowlets-pool"; endhosts = 4;
      setup = dataplane gravity (Pool_engine { curve_per_trial = 2 }) ~per_trial:8 };
    { name = "uniform-singletons-pump"; endhosts = 64;
      setup = dataplane uniform Pump_engine ~per_trial:16 };
    { name = "uniform-singletons-pool"; endhosts = 64;
      setup = dataplane uniform (Pool_engine { curve_per_trial = 8 }) ~per_trial:16 };
    { name = "churn-queues"; endhosts = 4; setup = churn };
    { name = "control-boot"; endhosts = 4; setup = control };
    { name = "report"; endhosts = 4; setup = (fun ~seed:_ -> report ()) };
  ]

(* --- set-up layers, shared by every workload --------------------------- *)

let setup_layers ~parent ~endhosts =
  let params = e21 ~endhosts in
  let med name unit reps f =
    let ts =
      List.init reps (fun _ ->
          let t0 = now () in
          span ~parent name ~count:1 (fun _ -> f ());
          secs t0 (now ()))
    in
    layer (name ^ "_ms") unit (Stats.median ts *. 1e3)
  in
  let inet = Internet.build params in
  let env = Forward.make_env inet in
  med "internet.build" "ms" 5 (fun () -> ignore (Internet.build params : Internet.t));
  med "env.make" "ms" 5 (fun () -> ignore (Forward.make_env inet : Forward.env));
  med "fib.compile" "ms" 5 (fun () -> ignore (Fib.compile env : Fib.t));
  med "bgp.converge" "ms" 5 (fun () ->
      let bgp = Bgp.create inet in
      Bgp.originate_all_domain_prefixes bgp;
      ignore (Bgp.converge bgp : int))

(* --- the run document ---------------------------------------------------- *)

let setup_runs = 10

(* The per-layer metrics every workload reports; the rest of the
   per-layer values are specific to the layers a workload runs and are
   written to the run document only. *)
let common_layers =
  [
    "internet.build_ms";
    "env.make_ms";
    "fib.compile_ms";
    "bgp.converge_ms";
    "gc.minor_words_per_op";
    "gc.major_collections_per_op";
    "peak_heap_mb";
    "trace.overhead_frac";
  ]

let commit () =
  let read p = String.trim (read_file p) in
  match read ".git/HEAD" with
  | exception Sys_error _ -> None
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | hash -> Some hash
      | exception Sys_error _ -> (
          match read ".git/packed-refs" with
          | exception Sys_error _ -> None
          | packed ->
              List.find_map
                (fun line ->
                  match String.split_on_char ' ' line with
                  | [ hash; name ] when String.equal name r -> Some hash
                  | _ -> None)
                (String.split_on_char '\n' packed)))
  | hash -> Some hash

let metric_json ~unit ~better (s : Stats.summary) =
  let open Json in
  Obj
    ([
       ("unit", Str unit);
       ("better", Str (Stats.better_to_string better));
       ("median", Num s.median);
       ("q1", Num s.q1);
       ("q3", Num s.q3);
     ]
    @ (match s.tail with
      | Some (pct, v) -> [ ("tail_pct", Num (float_of_int pct)); ("tail", Num v) ]
      | None -> [])
    @ [ ("n", Num (float_of_int s.n)); ("values", Arr (List.map (fun v -> Num v) s.values)) ])

let run (w : workload) ~seed ~seconds ~trace ~out =
  (* The first from-scratch set-up is the one measured; the other
     [setup_runs - 1] are spread evenly over the timed window, so their
     median samples the same host phases as the trials. Each is thrown
     away with its garbage before the next trial. *)
  let first_setup, p = timed (fun () -> w.setup ~seed) in
  Gc.full_major ();
  let setup_times = ref [ first_setup ] in
  let set_up_again () =
    let dt, q = timed (fun () -> w.setup ~seed) in
    q.dispose ();
    setup_times := dt :: !setup_times;
    Gc.full_major ()
  in
  let between frac =
    let due = min setup_runs (1 + int_of_float (frac *. float_of_int (setup_runs - 1))) in
    while List.length !setup_times < due do
      set_up_again ()
    done
  in
  let m = measure ~seconds ~between p in
  between 1.0;
  let setup = Stats.summarize ~better:Stats.Lower (List.rev !setup_times) in
  let rate = Stats.summarize ~better:Stats.Higher m.rates in
  let ops = float_of_int m.ops in
  if trace then begin
    span "per_layer" ~count:1 (fun parent ->
        setup_layers ~parent ~endhosts:w.endhosts;
        p.per_layer ~parent ~rate:rate.median);
    layer "gc.minor_words_per_op" "words" (m.minor_words /. ops);
    layer "gc.major_collections_per_op" "count" (float_of_int m.major_collections /. ops);
    (* the same trials again, each call into the library in a span *)
    let traced =
      List.init p.traced_trials (fun i ->
          let tr = p.trial (1_000_000 + i) in
          let dt, n = timed (fun () -> span "trial" ~count:1 (fun parent -> tr.body ~parent ())) in
          tr.verify ();
          float_of_int n /. dt)
    in
    layer "trace.overhead_frac" "ratio" ((rate.median /. Stats.median traced) -. 1.0)
  end;
  layer "peak_heap_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  p.dispose ();
  let per_layer = List.rev !layers in
  let e2e = [ ("ops_per_s", "1/s", Stats.Higher, rate); ("setup_s", "s", Stats.Lower, setup) ] in
  (* summary for people *)
  Printf.printf "%s (seed %d, %d domains recommended)\n" w.name seed nproc;
  List.iter
    (fun (name, unit, _, (s : Stats.summary)) ->
      Printf.printf "  %-12s median %.6g %s  q1 %.6g  q3 %.6g  n %d\n" name s.median unit s.q1 s.q3 s.n)
    e2e;
  Printf.printf "  one op = one %s; checks %d attempted, %d failed\n" p.op checks.attempted
    checks.failed;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-36s %.6g %s\n" name v unit) per_layer;
  List.iter
    (fun (k, pps, over) ->
      Printf.printf "  shards %d: %.6g pps%s\n" k pps (if over then " (oversubscribed)" else ""))
    !shard_curve;
  let open Json in
  let doc =
    Obj
      ([
         ("schema", Str "evolvenet-perf/1");
         ("workload", Str w.name);
         ("op", Str p.op);
         ( "host",
           Obj
             [
               ("recommended_domain_count", Num (float_of_int nproc));
               ("ocaml_version", Str Sys.ocaml_version);
               ("commit", match commit () with Some c -> Str c | None -> Null);
               ("seed", Num (float_of_int seed));
               ("seconds", Num seconds);
               ("trace", Bool trace);
             ] );
         ( "checks",
           Obj
             [
               ("attempted", Num (float_of_int checks.attempted));
               ("failed", Num (float_of_int checks.failed));
               ( "failed_frac",
                 if checks.attempted = 0 then Null
                 else Num (float_of_int checks.failed /. float_of_int checks.attempted) );
               ("first_failure", match checks.first_failure with Some s -> Str s | None -> Null);
             ] );
         ( "end_to_end",
           Obj (List.map (fun (name, unit, better, s) -> (name, metric_json ~unit ~better s)) e2e) );
       ]
      @
      if not trace then []
      else
        [
          ( "per_layer",
            Obj (List.map (fun (name, unit, v) -> (name, Obj [ ("unit", Str unit); ("value", Num v) ])) per_layer) );
          ( "spans",
            Arr
              (List.rev_map
                 (fun s ->
                   Obj
                     [
                       ("id", Num (float_of_int s.id));
                       ("name", Str s.name);
                       ("parent", match s.parent with Some id -> Num (float_of_int id) | None -> Null);
                       ("start_ns", Num (Int64.to_float s.start_ns));
                       ("end_ns", Num (Int64.to_float s.end_ns));
                       ("count", Num (float_of_int s.count));
                     ])
                 !spans) );
        ]
        @
        if !shard_curve = [] then []
        else
          [
            ( "shard_curve",
              Arr
                (List.map
                   (fun (k, pps, over) ->
                     Obj [ ("shards", Num (float_of_int k)); ("pps", Num pps); ("oversubscribed", Bool over) ])
                   !shard_curve) );
          ])
  in
  let line_metrics =
    if trace then
      List.map
        (fun name ->
          let _, unit, v = List.find (fun (n, _, _) -> String.equal n name) per_layer in
          (name, Obj [ ("value", Num v); ("unit", Str unit) ]))
        common_layers
    else
      List.map (fun (name, unit, _, (s : Stats.summary)) -> (name, Obj [ ("value", Num s.median); ("unit", Str unit) ])) e2e
  in
  let line =
    Obj
      [
        ("correct", Bool (checks.failed = 0));
        ("attempted", Num (float_of_int checks.attempted));
        ("failed", Num (float_of_int checks.failed));
        ("metrics", Obj line_metrics);
      ]
  in
  let written =
    match out with
    | None -> Ok ()
    | Some path -> Json.write ~path doc
  in
  match (written, Json.to_string line) with
  | Error e, _ | _, Error e ->
      Printf.eprintf "refusing to write the result: %s\n" e;
      exit 1
  | Ok (), Ok line ->
      print_endline line;
      if checks.failed > 0 then exit 1

(* --- command line ---------------------------------------------------------- *)

let usage () =
  prerr_string
    "usage: main.exe --workload NAME --seed N [--seconds S] [--trace [0|1]] [--out FILE]\n\
    \       main.exe --compare A.json B.json\n\
     workloads:\n";
  List.iter (fun w -> Printf.eprintf "  %s\n" w.name) workloads;
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let compare_files a b =
  let load path = match Json.read_file path with Ok j -> j | Error e -> die "%s" e in
  let bounds = Compare.bounds_of_benchmark (load "BENCHMARK.json") in
  if bounds = [] then die "BENCHMARK.json lists no end-to-end metric with a bound";
  let r =
    Compare.compare ~bounds (Compare.documents (load a)) (Compare.documents (load b))
  in
  Compare.print r;
  exit (if Compare.failed r then 1 else 0)

let () =
  let workload = ref None and seed = ref None and seconds = ref 12.0 in
  let trace = ref false and out = ref None in
  let rec parse = function
    | [] -> ()
    | "--compare" :: a :: b :: _ -> compare_files a b
    | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some s -> seed := Some s | None -> die "bad --seed %s" v);
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 && Float.is_finite s -> seconds := s
        | _ -> die "bad --seconds %s" v);
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := String.equal v "1";
        parse rest
    | "--trace" :: rest ->
        trace := true;
        parse rest
    | "--out" :: v :: rest ->
        out := Some v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed) with
  | Some name, Some seed -> (
      match List.find_opt (fun w -> String.equal w.name name) workloads with
      | Some w ->
          if String.equal name "report" && not (Sys.file_exists "RESULTS.md") then
            die "report: RESULTS.md not found; run from the repository root";
          run w ~seed ~seconds:!seconds ~trace:!trace ~out:!out
      | None -> die "unknown workload %s" name)
  | _ -> usage ()
