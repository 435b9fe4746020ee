type slo = {
  max_detection : float;
  max_reconverge : float;
  max_blackhole : float;
  max_stale : float;
  max_hijacked : float;
}

type kind =
  | Blackout of { links : int; routers_down : int }
  | Depeer of { stub_rank : int }
  | Hijack of { rogue_rank : int }
  | Provider_flap of {
      stub_rank : int;
      cycles : int;
      period : float;
      down_for : float;
    }
  | Flash_crowd of { rate : int; depth : int; reserve : int; burst : int }
  | Slow_consumer of {
      shards : int;
      victim : int;
      slowdown : int;
      spill_cap : int;
      flows : int;
    }

type t = {
  name : string;
  seed : int64;
  transit : int;
  stubs : int;
  deploy_domains : int;
  probes : int;
  ticks : int;
  fault_at : float;
  fault_until : float;
  kind : kind;
  loss : float;
  jitter : float;
  recovery : bool;
  detection_delay : float;
  slo : slo;
}

(* The range checks below are [<]/[>] tests, which a NaN passes, so
   every float is first required to be finite. *)
let finite fn what x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Drillbook.%s: non-finite %s" fn what)

let slo ~detection ~reconverge ~blackhole ~stale ~hijacked =
  finite "slo" "detection" detection;
  finite "slo" "reconverge" reconverge;
  finite "slo" "blackhole" blackhole;
  finite "slo" "stale" stale;
  finite "slo" "hijacked" hijacked;
  if detection < 0.0 || reconverge < 0.0 || blackhole < 0.0 then
    invalid_arg "Drillbook.slo: negative time budget";
  if stale < 0.0 || stale > 1.0 || hijacked < 0.0 || hijacked > 1.0 then
    invalid_arg "Drillbook.slo: fraction outside [0,1]";
  {
    max_detection = detection;
    max_reconverge = reconverge;
    max_blackhole = blackhole;
    max_stale = stale;
    max_hijacked = hijacked;
  }

let make ~name ?(seed = 42L) ?(transit = 4) ?(stubs = 6) ?(deploy_domains = 4)
    ?(probes = 40) ?(ticks = 12) ?(fault_at = 3.0) ?(fault_until = 7.0)
    ?(loss = 0.05) ?(jitter = 0.2) ?(recovery = true) ?(detection_delay = 0.3)
    ~slo kind =
  if String.length name = 0 then invalid_arg "Drillbook.make: empty name";
  finite "make" "fault_at" fault_at;
  finite "make" "fault_until" fault_until;
  finite "make" "loss" loss;
  finite "make" "jitter" jitter;
  finite "make" "detection_delay" detection_delay;
  if transit <= 0 || stubs <= 0 || deploy_domains <= 0 then
    invalid_arg "Drillbook.make: non-positive topology size";
  if probes <= 0 || ticks <= 0 then
    invalid_arg "Drillbook.make: non-positive probes or ticks";
  if fault_at < 0.0 || fault_until <= fault_at
     || fault_until > float_of_int ticks
  then invalid_arg "Drillbook.make: fault window outside [0, ticks]";
  if loss < 0.0 || loss > 1.0 then
    invalid_arg "Drillbook.make: loss outside [0,1]";
  if jitter < 0.0 then invalid_arg "Drillbook.make: negative jitter";
  if detection_delay < 0.0 then
    invalid_arg "Drillbook.make: negative detection delay";
  (match kind with
  | Blackout { links; routers_down } ->
      if links <= 0 || routers_down < 0 then
        invalid_arg "Drillbook.make: blackout needs links > 0, routers >= 0"
  | Depeer { stub_rank } ->
      if stub_rank < 0 then invalid_arg "Drillbook.make: negative stub rank"
  | Hijack { rogue_rank } ->
      if rogue_rank < 0 then invalid_arg "Drillbook.make: negative rogue rank"
  | Provider_flap { stub_rank; cycles; period; down_for } ->
      if stub_rank < 0 then invalid_arg "Drillbook.make: negative stub rank";
      if cycles <= 0 then invalid_arg "Drillbook.make: cycles <= 0";
      finite "make" "period" period;
      finite "make" "down_for" down_for;
      if down_for <= 0.0 || down_for > period then
        invalid_arg "Drillbook.make: down_for outside (0, period]"
  | Flash_crowd { rate; depth; reserve; burst } ->
      if rate <= 0 || depth <= 0 then
        invalid_arg "Drillbook.make: flash crowd needs rate > 0, depth > 0";
      if reserve < 0 || reserve >= depth then
        invalid_arg "Drillbook.make: control reserve outside [0, depth)";
      if burst <= 0 then invalid_arg "Drillbook.make: burst <= 0"
  | Slow_consumer { shards; victim; slowdown; spill_cap; flows } ->
      if shards < 2 then
        invalid_arg "Drillbook.make: slow consumer needs >= 2 shards";
      if victim < 0 || victim >= shards then
        invalid_arg "Drillbook.make: victim shard outside [0, shards)";
      if slowdown < 2 then invalid_arg "Drillbook.make: slowdown < 2";
      if spill_cap <= 0 then invalid_arg "Drillbook.make: spill_cap <= 0";
      if flows <= 0 then invalid_arg "Drillbook.make: flows <= 0");
  {
    name;
    seed;
    transit;
    stubs;
    deploy_domains;
    probes;
    ticks;
    fault_at;
    fault_until;
    kind;
    loss;
    jitter;
    recovery;
    detection_delay;
    slo;
  }

let slo_equal a b =
  Float.equal a.max_detection b.max_detection
  && Float.equal a.max_reconverge b.max_reconverge
  && Float.equal a.max_blackhole b.max_blackhole
  && Float.equal a.max_stale b.max_stale
  && Float.equal a.max_hijacked b.max_hijacked

let kind_equal a b =
  match (a, b) with
  | Blackout x, Blackout y -> x.links = y.links && x.routers_down = y.routers_down
  | Depeer x, Depeer y -> x.stub_rank = y.stub_rank
  | Hijack x, Hijack y -> x.rogue_rank = y.rogue_rank
  | Provider_flap x, Provider_flap y ->
      x.stub_rank = y.stub_rank && x.cycles = y.cycles
      && Float.equal x.period y.period
      && Float.equal x.down_for y.down_for
  | Flash_crowd x, Flash_crowd y ->
      x.rate = y.rate && x.depth = y.depth && x.reserve = y.reserve
      && x.burst = y.burst
  | Slow_consumer x, Slow_consumer y ->
      x.shards = y.shards && x.victim = y.victim && x.slowdown = y.slowdown
      && x.spill_cap = y.spill_cap && x.flows = y.flows
  | ( ( Blackout _ | Depeer _ | Hijack _ | Provider_flap _ | Flash_crowd _
      | Slow_consumer _ ),
      _ ) ->
      false

let equal a b =
  String.equal a.name b.name
  && Int64.equal a.seed b.seed
  && a.transit = b.transit && a.stubs = b.stubs
  && a.deploy_domains = b.deploy_domains
  && a.probes = b.probes && a.ticks = b.ticks
  && Float.equal a.fault_at b.fault_at
  && Float.equal a.fault_until b.fault_until
  && kind_equal a.kind b.kind
  && Float.equal a.loss b.loss
  && Float.equal a.jitter b.jitter
  && Bool.equal a.recovery b.recovery
  && Float.equal a.detection_delay b.detection_delay
  && slo_equal a.slo b.slo

let kind_label = function
  | Blackout _ -> "blackout"
  | Depeer _ -> "depeer"
  | Hijack _ -> "hijack"
  | Provider_flap _ -> "provider-flap"
  | Flash_crowd _ -> "flash-crowd"
  | Slow_consumer _ -> "slow-consumer"

(* ------------------------------------------------------------------ *)
(* The built-in catalog                                                *)

let regional_blackout =
  make ~name:"regional-blackout" ~seed:42L
    ~slo:
      (slo ~detection:1.0 ~reconverge:8.0 ~blackhole:4.0 ~stale:0.5
         ~hijacked:0.0)
    (Blackout { links = 3; routers_down = 1 })

let provider_depeer =
  make ~name:"provider-depeer" ~seed:43L
    ~slo:
      (slo ~detection:1.0 ~reconverge:8.0 ~blackhole:4.0 ~stale:0.5
         ~hijacked:0.0)
    (Depeer { stub_rank = 0 })

let prefix_hijack =
  make ~name:"prefix-hijack" ~seed:44L
    ~slo:
      (slo ~detection:2.0 ~reconverge:8.0 ~blackhole:4.0 ~stale:0.5
         ~hijacked:0.6)
    (Hijack { rogue_rank = 0 })

let flapping_provider =
  make ~name:"flapping-provider" ~seed:45L
    ~slo:
      (slo ~detection:1.0 ~reconverge:8.0 ~blackhole:4.0 ~stale:0.5
         ~hijacked:0.0)
    (Provider_flap { stub_rank = 0; cycles = 2; period = 2.0; down_for = 1.0 })

(* overload drills: the fault is demand, not failure — the control
   plane keeps its session fabrics loss-free so the rows isolate the
   data plane's shedding behaviour *)
let flash_crowd =
  make ~name:"flash-crowd" ~seed:46L ~loss:0.0 ~jitter:0.0
    ~slo:
      (slo ~detection:1.0 ~reconverge:8.0 ~blackhole:4.0 ~stale:0.5
         ~hijacked:0.0)
    (Flash_crowd { rate = 3000; depth = 6000; reserve = 2000; burst = 30 })

let slow_consumer =
  make ~name:"slow-consumer" ~seed:47L ~loss:0.0 ~jitter:0.0
    ~slo:
      (slo ~detection:1.0 ~reconverge:8.0 ~blackhole:4.0 ~stale:0.5
         ~hijacked:0.0)
    (Slow_consumer
       { shards = 4; victim = 1; slowdown = 12; spill_cap = 8; flows = 96 })

let catalog =
  [
    regional_blackout;
    provider_depeer;
    prefix_hijack;
    flapping_provider;
    flash_crowd;
    slow_consumer;
  ]

let find name =
  List.find_opt (fun b -> String.equal b.name name) catalog

let with_intensity b intensity =
  finite "with_intensity" "intensity" intensity;
  if intensity <= 0.0 then invalid_arg "Drillbook.with_intensity: <= 0";
  let scale_i n = max 1 (int_of_float (Float.round (float_of_int n *. intensity))) in
  let kind =
    match b.kind with
    | Blackout { links; routers_down } ->
        Blackout { links = scale_i links; routers_down }
    | Depeer _ as k -> k
    | Hijack _ as k -> k
    | Provider_flap f -> Provider_flap { f with cycles = scale_i f.cycles }
    | Flash_crowd f -> Flash_crowd { f with burst = scale_i f.burst }
    | Slow_consumer s ->
        Slow_consumer { s with slowdown = max 2 (scale_i s.slowdown) }
  in
  { b with kind; loss = Float.min 0.9 (b.loss *. intensity) }

(* ------------------------------------------------------------------ *)
(* S-expression reader/writer                                          *)

type sexp = Atom of string | List of sexp list

exception Parse_error of string

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '(' ->
        toks := "(" :: !toks;
        incr i
    | ')' ->
        toks := ")" :: !toks;
        incr i
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | ';' ->
        (* comment to end of line *)
        while !i < n && s.[!i] <> '\n' do
          incr i
        done
    | _ ->
        let start = !i in
        while
          !i < n
          &&
          match s.[!i] with
          | '(' | ')' | ' ' | '\t' | '\n' | '\r' | ';' -> false
          | _ -> true
        do
          incr i
        done;
        toks := String.sub s start (!i - start) :: !toks);
  done;
  List.rev !toks

let parse_sexp s =
  let rec one = function
    | [] -> raise (Parse_error "unexpected end of input")
    | "(" :: rest ->
        let items, rest = many rest in
        (List items, rest)
    | ")" :: _ -> raise (Parse_error "unexpected )")
    | a :: rest -> (Atom a, rest)
  and many = function
    | [] -> raise (Parse_error "missing )")
    | ")" :: rest -> ([], rest)
    | toks ->
        let x, rest = one toks in
        let xs, rest = many rest in
        (x :: xs, rest)
  in
  match one (tokenize s) with
  | x, [] -> x
  | _, _ :: _ -> raise (Parse_error "trailing input after drill form")

let field name = function
  | List (Atom tag :: body) when String.equal tag name -> Some body
  | _ -> None

let lookup name body = List.find_map (field name) body

let atom1 what = function
  | [ Atom a ] -> a
  | _ -> raise (Parse_error (Printf.sprintf "%s expects one atom" what))

let int_field name body =
  Option.map (fun b -> int_of_string (atom1 name b)) (lookup name body)

let float_field name body =
  Option.map (fun b -> float_of_string (atom1 name b)) (lookup name body)

let bool_field name body =
  Option.map (fun b -> bool_of_string (atom1 name b)) (lookup name body)

let require what = function
  | Some v -> v
  | None -> raise (Parse_error (Printf.sprintf "missing (%s ...)" what))

let kind_of_sexp body =
  match require "kind" (lookup "kind" body) with
  | [ List (Atom "blackout" :: kb) ] ->
      Blackout
        {
          links = require "links" (int_field "links" kb);
          routers_down =
            Option.value ~default:0 (int_field "routers-down" kb);
        }
  | [ List (Atom "depeer" :: kb) ] ->
      Depeer { stub_rank = Option.value ~default:0 (int_field "stub-rank" kb) }
  | [ List (Atom "hijack" :: kb) ] ->
      Hijack
        { rogue_rank = Option.value ~default:0 (int_field "rogue-rank" kb) }
  | [ List (Atom "flap" :: kb) ] ->
      Provider_flap
        {
          stub_rank = Option.value ~default:0 (int_field "stub-rank" kb);
          cycles = require "cycles" (int_field "cycles" kb);
          period = require "period" (float_field "period" kb);
          down_for = require "down-for" (float_field "down-for" kb);
        }
  | [ List (Atom "flash-crowd" :: kb) ] ->
      Flash_crowd
        {
          rate = require "rate" (int_field "rate" kb);
          depth = require "depth" (int_field "depth" kb);
          reserve = Option.value ~default:0 (int_field "reserve" kb);
          burst = require "burst" (int_field "burst" kb);
        }
  | [ List (Atom "slow-consumer" :: kb) ] ->
      Slow_consumer
        {
          shards = require "shards" (int_field "shards" kb);
          victim = Option.value ~default:0 (int_field "victim" kb);
          slowdown = require "slowdown" (int_field "slowdown" kb);
          spill_cap = require "spill-cap" (int_field "spill-cap" kb);
          flows = require "flows" (int_field "flows" kb);
        }
  | _ ->
      raise
        (Parse_error
           "unknown (kind ...); want \
            blackout|depeer|hijack|flap|flash-crowd|slow-consumer")

let of_string s =
  try
    let body =
      match parse_sexp s with
      | List (Atom "drill" :: body) -> body
      | _ -> raise (Parse_error "top-level form must be (drill ...)")
    in
    let name = require "name" (Option.map (atom1 "name") (lookup "name" body)) in
    let topo = Option.value ~default:[] (lookup "topology" body) in
    let fault = require "fault" (lookup "fault" body) in
    let pol = Option.value ~default:[] (lookup "policy" body) in
    let slo_body = require "slo" (lookup "slo" body) in
    let slo =
      slo
        ~detection:(require "detection" (float_field "detection" slo_body))
        ~reconverge:(require "reconverge" (float_field "reconverge" slo_body))
        ~blackhole:(require "blackhole" (float_field "blackhole" slo_body))
        ~stale:(require "stale" (float_field "stale" slo_body))
        ~hijacked:(require "hijacked" (float_field "hijacked" slo_body))
    in
    let b =
      make ~name
        ?seed:
          (Option.map
             (fun b -> Int64.of_string (atom1 "seed" b))
             (lookup "seed" body))
        ?transit:(int_field "transit" topo)
        ?stubs:(int_field "stubs" topo)
        ?deploy_domains:(int_field "deploy" body)
        ?probes:(int_field "probes" body)
        ?ticks:(int_field "ticks" body)
        ?fault_at:(float_field "at" fault)
        ?fault_until:(float_field "until" fault)
        ?loss:(float_field "loss" pol)
        ?jitter:(float_field "jitter" pol)
        ?recovery:(bool_field "recovery" body)
        ?detection_delay:(float_field "detection-delay" body)
        ~slo (kind_of_sexp body)
    in
    Ok b
  with
  | Parse_error m -> Error ("drill parse error: " ^ m)
  | Invalid_argument m -> Error ("invalid drill: " ^ m)
  | Failure m -> Error ("drill parse error: " ^ m)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error m -> Error m

let ffmt f = Printf.sprintf "%.12g" f

let kind_to_sexp = function
  | Blackout { links; routers_down } ->
      Printf.sprintf "(blackout (links %d) (routers-down %d))" links
        routers_down
  | Depeer { stub_rank } -> Printf.sprintf "(depeer (stub-rank %d))" stub_rank
  | Hijack { rogue_rank } ->
      Printf.sprintf "(hijack (rogue-rank %d))" rogue_rank
  | Provider_flap { stub_rank; cycles; period; down_for } ->
      Printf.sprintf
        "(flap (stub-rank %d) (cycles %d) (period %s) (down-for %s))" stub_rank
        cycles (ffmt period) (ffmt down_for)
  | Flash_crowd { rate; depth; reserve; burst } ->
      Printf.sprintf
        "(flash-crowd (rate %d) (depth %d) (reserve %d) (burst %d))" rate depth
        reserve burst
  | Slow_consumer { shards; victim; slowdown; spill_cap; flows } ->
      Printf.sprintf
        "(slow-consumer (shards %d) (victim %d) (slowdown %d) (spill-cap %d) \
         (flows %d))"
        shards victim slowdown spill_cap flows

let to_sexp b =
  String.concat "\n"
    [
      "(drill";
      Printf.sprintf " (name %s)" b.name;
      Printf.sprintf " (seed %Ld)" b.seed;
      Printf.sprintf " (topology (transit %d) (stubs %d))" b.transit b.stubs;
      Printf.sprintf " (deploy %d)" b.deploy_domains;
      Printf.sprintf " (probes %d)" b.probes;
      Printf.sprintf " (ticks %d)" b.ticks;
      Printf.sprintf " (fault (at %s) (until %s))" (ffmt b.fault_at)
        (ffmt b.fault_until);
      Printf.sprintf " (kind %s)" (kind_to_sexp b.kind);
      Printf.sprintf " (policy (loss %s) (jitter %s))" (ffmt b.loss)
        (ffmt b.jitter);
      Printf.sprintf " (recovery %b)" b.recovery;
      Printf.sprintf " (detection-delay %s)" (ffmt b.detection_delay);
      Printf.sprintf
        " (slo (detection %s) (reconverge %s) (blackhole %s) (stale %s) \
         (hijacked %s)))"
        (ffmt b.slo.max_detection) (ffmt b.slo.max_reconverge)
        (ffmt b.slo.max_blackhole) (ffmt b.slo.max_stale)
        (ffmt b.slo.max_hijacked);
    ]
