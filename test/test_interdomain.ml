(* Tests for the BGP-like path-vector protocol and its policies. *)

module Internet = Topology.Internet
module Relationship = Topology.Relationship
module Bgp = Interdomain.Bgp
module Prefix = Netcore.Prefix
module Addressing = Netcore.Addressing

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let spec r e tr = { Internet.routers = r; endhosts = e; transit = tr }
let link a b rel_of_b = { Internet.a; b; rel_of_b }

(* a small policy playground:
     T0 -- T1 (peers), S2 -> T0, S3 -> T1, S4 -> T0 and T1 (multihomed) *)
let playground () =
  Internet.build_custom ~seed:5L
    [| spec 3 0 true; spec 3 0 true; spec 2 1 false; spec 2 1 false; spec 2 1 false |]
    [
      link 0 1 Relationship.Peer;
      link 2 0 Relationship.Provider;
      link 3 1 Relationship.Provider;
      link 4 0 Relationship.Provider;
      link 4 1 Relationship.Provider;
    ]

let converged_playground () =
  let inet = playground () in
  let bgp = Bgp.create inet in
  Bgp.originate_all_domain_prefixes bgp;
  ignore (Bgp.converge bgp);
  (inet, bgp)

let test_full_reachability () =
  let inet, bgp = converged_playground () in
  let n = Internet.num_domains inet in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let p = (Internet.domain inet dst).Internet.prefix in
      match Bgp.route_to bgp ~domain:src p with
      | Some r ->
          check Alcotest.bool "path starts at src" true (List.hd r.Bgp.as_path = src);
          check Alcotest.bool "path ends at origin" true
            (List.nth r.Bgp.as_path (List.length r.Bgp.as_path - 1) = dst)
      | None -> Alcotest.fail (Printf.sprintf "no route %d -> %d" src dst)
    done
  done

let test_convergence_stable () =
  let _, bgp = converged_playground () in
  check Alcotest.bool "no change after convergence" false (Bgp.step bgp)

let test_loop_free_paths () =
  let inet, bgp = converged_playground () in
  for d = 0 to Internet.num_domains inet - 1 do
    List.iter
      (fun r ->
        let sorted = List.sort_uniq Int.compare r.Bgp.as_path in
        check Alcotest.int "no repeated domain" (List.length r.Bgp.as_path)
          (List.length sorted))
      (Bgp.rib bgp ~domain:d)
  done

(* valley-free: once a path goes "down" (provider->customer) or sideways
   (peer), it may never go "up" (customer->provider) or sideways again.
   We walk each chosen as_path from the origin toward the owner. *)
let valley_free inet path =
  (* path: owner first ... origin last; traverse origin -> owner, each
     step is an export from [from_] to [to_] *)
  let rec ok seen_down = function
    | from_ :: (to_ :: _ as rest) -> (
        match Internet.relationship inet ~of_:from_ ~to_ with
        | None -> false
        | Some rel ->
            (* [rel] is the role of [to_] seen from [from_]: Customer
               means the route flows provider->customer (down); Peer is
               sideways; Provider is up (customer->provider). *)
            let down = rel = Relationship.Customer in
            let up = rel = Relationship.Provider in
            let sideways = rel = Relationship.Peer in
            if seen_down && (up || sideways) then false
            else ok (seen_down || down || sideways) rest)
    | _ -> true
  in
  ok false (List.rev path)

let test_valley_free () =
  let inet, bgp = converged_playground () in
  for d = 0 to Internet.num_domains inet - 1 do
    List.iter
      (fun r ->
        check Alcotest.bool
          ("valley-free: "
          ^ String.concat "," (List.map string_of_int r.Bgp.as_path))
          true (valley_free inet r.Bgp.as_path))
      (Bgp.rib bgp ~domain:d)
  done

let prop_valley_free_random_internets =
  QCheck.Test.make ~name:"all chosen paths valley-free (random internets)"
    ~count:10
    QCheck.(int_bound 10000)
    (fun seed ->
      let params =
        { Internet.default_params with Internet.seed = Int64.of_int seed }
      in
      let inet = Internet.build params in
      let bgp = Bgp.create inet in
      Bgp.originate_all_domain_prefixes bgp;
      ignore (Bgp.converge bgp);
      List.for_all
        (fun d ->
          List.for_all
            (fun r -> valley_free inet r.Bgp.as_path)
            (Bgp.rib bgp ~domain:d))
        (List.init (Internet.num_domains inet) Fun.id))

let test_customer_preference () =
  (* S4 is multihomed to T0 and T1. A prefix originated by S4 must be
     reached from T0 via its customer link, not via peer T1. *)
  let inet, bgp = converged_playground () in
  let p = (Internet.domain inet 4).Internet.prefix in
  match Bgp.route_to bgp ~domain:0 p with
  | Some r ->
      check Alcotest.(list int) "direct customer path" [ 0; 4 ] r.Bgp.as_path;
      check Alcotest.int "customer pref"
        Relationship.(local_preference Customer)
        r.Bgp.pref
  | None -> Alcotest.fail "T0 has no route to its customer S4"

let test_anycast_multi_origin () =
  (* both S2 and S3 originate the same anycast prefix; each domain
     routes to the policy-closest origin *)
  let inet, bgp = converged_playground () in
  let g = Addressing.anycast_global ~group:8 in
  Bgp.originate bgp ~domain:2 g;
  Bgp.originate bgp ~domain:3 g;
  ignore (Bgp.converge bgp);
  let origin d =
    match Bgp.route_to bgp ~domain:d g with
    | Some r -> List.nth r.Bgp.as_path (List.length r.Bgp.as_path - 1)
    | None -> -1
  in
  check Alcotest.int "T0 picks its customer S2" 2 (origin 0);
  check Alcotest.int "T1 picks its customer S3" 3 (origin 1);
  check Alcotest.int "S2 uses itself" 2 (origin 2);
  check Alcotest.int "S3 uses itself" 3 (origin 3);
  ignore inet

let test_propagation_filter_blocks () =
  let inet = playground () in
  let g = Addressing.anycast_global ~group:8 in
  (* T1 refuses to carry the anycast prefix *)
  let config =
    {
      Bgp.default_config with
      propagate = (fun d p -> not (d = 1 && Prefix.equal p g));
    }
  in
  let bgp = Bgp.create ~config inet in
  Bgp.originate_all_domain_prefixes bgp;
  Bgp.originate bgp ~domain:2 g;
  ignore (Bgp.converge bgp);
  (* S3 hangs off T1 only: the refusal cuts it off from the anycast *)
  check Alcotest.bool "T1 has no anycast route" true
    (Bgp.route_to bgp ~domain:1 g = None);
  check Alcotest.bool "S3 blocked by its transit" true
    (Bgp.route_to bgp ~domain:3 g = None);
  (* but S4 is multihomed to T0 and still reaches it *)
  check Alcotest.bool "S4 reaches via T0" true
    (Bgp.route_to bgp ~domain:4 g <> None);
  (* unicast routes are unaffected *)
  check Alcotest.bool "unicast unaffected" true
    (Bgp.route_to bgp ~domain:3 (Internet.domain inet 2).Internet.prefix <> None)

let test_scoped_advertisement () =
  let _inet, bgp = converged_playground () in
  let g = Addressing.anycast_in_domain ~domain:2 ~group:8 in
  (* S3 advertises the (option-2) anycast /24 to its transit T1 only *)
  Bgp.advertise_scoped bgp ~from_:3 ~to_:1 g;
  ignore (Bgp.converge bgp);
  (match Bgp.route_to bgp ~domain:1 g with
  | Some r ->
      check Alcotest.bool "no-export flagged" true r.Bgp.no_export;
      check Alcotest.(list int) "one-hop path" [ 1; 3 ] r.Bgp.as_path
  | None -> Alcotest.fail "scoped route not installed");
  (* and crucially it is NOT re-exported to T0 or its customers *)
  check Alcotest.bool "not re-exported to T0" true
    (Bgp.route_to bgp ~domain:0 g = None);
  check Alcotest.bool "not re-exported to S2" true
    (Bgp.route_to bgp ~domain:2 g = None);
  Bgp.withdraw_scoped bgp ~from_:3 ~to_:1 g;
  ignore (Bgp.converge bgp);
  check Alcotest.bool "withdrawn" true (Bgp.route_to bgp ~domain:1 g = None)

let test_limited_origin_radius () =
  (* playground distances from S2: T0 = 1 hop, T1 and S4 = 2, S3 = 3 *)
  let _inet, bgp = converged_playground () in
  let g = Addressing.anycast_global ~group:11 in
  let reaches d = Bgp.route_to bgp ~domain:d g <> None in
  (* radius 0: local only *)
  Bgp.originate_limited bgp ~domain:2 ~radius:0 g;
  ignore (Bgp.converge bgp);
  check Alcotest.bool "r0 local" true (reaches 2);
  check Alcotest.bool "r0 not at provider" false (reaches 0);
  Bgp.withdraw_limited bgp ~domain:2 g;
  (* radius 1: provider T0 hears it, nobody further *)
  Bgp.originate_limited bgp ~domain:2 ~radius:1 g;
  ignore (Bgp.converge bgp);
  check Alcotest.bool "r1 provider" true (reaches 0);
  check Alcotest.bool "r1 not at peer's side" false (reaches 1);
  check Alcotest.bool "r1 not 2 hops" false (reaches 3);
  Bgp.withdraw_limited bgp ~domain:2 g;
  (* radius 2: T1 and S4 hear it, S3 (3 hops) does not *)
  Bgp.originate_limited bgp ~domain:2 ~radius:2 g;
  ignore (Bgp.converge bgp);
  check Alcotest.bool "r2 peer transit" true (reaches 1);
  check Alcotest.bool "r2 multihomed stub" true (reaches 4);
  check Alcotest.bool "r2 not 3 hops" false (reaches 3);
  (* withdraw clears everywhere *)
  Bgp.withdraw_limited bgp ~domain:2 g;
  ignore (Bgp.converge bgp);
  for d = 0 to 4 do
    check Alcotest.bool "withdrawn" false (reaches d)
  done

let test_limited_origin_rejects_negative () =
  let inet = playground () in
  let bgp = Bgp.create inet in
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Bgp.originate_limited: negative radius") (fun () ->
      Bgp.originate_limited bgp ~domain:0 ~radius:(-1)
        (Addressing.anycast_global ~group:1))

let test_scoped_requires_link () =
  let inet = playground () in
  let bgp = Bgp.create inet in
  Alcotest.check_raises "not linked"
    (Invalid_argument "Bgp.advertise_scoped: domains not directly linked")
    (fun () ->
      Bgp.advertise_scoped bgp ~from_:2 ~to_:3
        (Addressing.anycast_global ~group:1))

let test_lookup_lpm () =
  let _inet, bgp = converged_playground () in
  (* an address inside S3's /16 resolves to S3's prefix by LPM *)
  let addr = Addressing.endhost_address ~domain:3 ~index:0 in
  match Bgp.lookup bgp ~domain:2 addr with
  | Some r ->
      check Alcotest.bool "covers addr" true (Prefix.mem addr r.Bgp.prefix);
      check Alcotest.int "originates at S3" 3
        (List.nth r.Bgp.as_path (List.length r.Bgp.as_path - 1))
  | None -> Alcotest.fail "no LPM route"

let test_withdraw_origin () =
  let inet, bgp = converged_playground () in
  let g = Addressing.anycast_global ~group:9 in
  Bgp.originate bgp ~domain:2 g;
  ignore (Bgp.converge bgp);
  check Alcotest.bool "present" true (Bgp.route_to bgp ~domain:1 g <> None);
  Bgp.withdraw_origin bgp ~domain:2 g;
  ignore (Bgp.converge bgp);
  for d = 0 to Internet.num_domains inet - 1 do
    check Alcotest.bool "gone everywhere" true (Bgp.route_to bgp ~domain:d g = None)
  done

let test_rib_size_accounting () =
  let inet, bgp = converged_playground () in
  let n = Internet.num_domains inet in
  for d = 0 to n - 1 do
    check Alcotest.int "one entry per domain prefix" n (Bgp.rib_size bgp ~domain:d)
  done;
  Bgp.originate bgp ~domain:2 (Addressing.anycast_global ~group:8);
  ignore (Bgp.converge bgp);
  for d = 0 to n - 1 do
    check Alcotest.int "anycast adds one" (n + 1) (Bgp.rib_size bgp ~domain:d)
  done

let test_egress_link_and_domain_path () =
  let inet, bgp = converged_playground () in
  let p3 = (Internet.domain inet 3).Internet.prefix in
  (match Bgp.egress_link bgp ~domain:0 p3 with
  | Some l ->
      check Alcotest.int "egress starts at src domain" 0 l.Internet.a_domain;
      check Alcotest.int "toward next hop" 1 l.Internet.b_domain
  | None -> Alcotest.fail "no egress link");
  (* self prefix: no egress *)
  check Alcotest.bool "self has no egress" true
    (Bgp.egress_link bgp ~domain:3 p3 = None);
  match Bgp.domain_path bgp ~src:0 (Prefix.network p3) with
  | Some path -> check Alcotest.(list int) "domain path" [ 0; 1; 3 ] path
  | None -> Alcotest.fail "no domain path"

let prop_lookup_consistent_with_route_to =
  QCheck.Test.make ~name:"lookup = route_to of the covering prefix" ~count:10
    QCheck.(int_bound 10000)
    (fun seed ->
      let params =
        { Internet.default_params with Internet.seed = Int64.of_int seed }
      in
      let inet = Internet.build params in
      let bgp = Bgp.create inet in
      Bgp.originate_all_domain_prefixes bgp;
      ignore (Bgp.converge bgp);
      let n = Internet.num_domains inet in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              let addr = Addressing.endhost_address ~domain:dst ~index:0 in
              match Bgp.lookup bgp ~domain:src addr with
              | None -> false
              | Some r ->
                  Prefix.mem addr r.Bgp.prefix
                  && Bgp.route_to bgp ~domain:src r.Bgp.prefix = Some r)
            (List.init n Fun.id))
        (List.init (min n 6) Fun.id))

let prop_egress_links_per_prefix =
  QCheck.Test.make ~name:"egress_links = egress_link per RIB prefix" ~count:10
    QCheck.(int_bound 10000)
    (fun seed ->
      let params =
        { Internet.default_params with Internet.seed = Int64.of_int seed }
      in
      let inet = Internet.build params in
      let bgp = Bgp.create inet in
      Bgp.originate_all_domain_prefixes bgp;
      let n = Internet.num_domains inet in
      Bgp.originate bgp ~domain:(seed mod n) (Addressing.anycast_global ~group:8);
      (* more-specifics sharing a /16's network, from other domains: a
         prefix's egress is its covering route's, the longest of them *)
      let covered = (Internet.domain inet ((seed + 1) mod n)).Internet.prefix in
      List.iteri
        (fun i len ->
          Bgp.originate bgp ~domain:((seed + 2 + i) mod n)
            (Prefix.make (Prefix.network covered) len))
        [ 20; 24 ];
      ignore (Bgp.converge bgp);
      List.for_all
        (fun domain ->
          Bgp.egress_links bgp ~domain
          = List.filter_map
              (fun r ->
                Option.map
                  (fun l -> (r.Bgp.prefix, l))
                  (Bgp.egress_link bgp ~domain r.Bgp.prefix))
              (Bgp.rib bgp ~domain))
        (List.init (Internet.num_domains inet) Fun.id))

(* ------------------------------------------------------------------ *)
(* Differential: incremental converge vs the full synchronous round    *)

module Rng = Topology.Rng
module Policy = Anycast.Policy
module Pmap = Map.Make (Prefix)

(* A test-local reference that keeps its own copy of the inputs and,
   in every round, recomputes every prefix of every domain from the
   round before, reading the import filter afresh. *)
type reference = {
  inet : Internet.t;
  propagate : int -> Prefix.t -> bool;
  mutable origins : (int * Prefix.t) list;
  mutable limited : (int * Prefix.t * int) list;  (* domain, prefix, radius *)
  mutable scoped : (int * int * Prefix.t) list;  (* from, to, prefix *)
  ribs : Bgp.route Pmap.t array;
}

let route_eq (a : Bgp.route) (b : Bgp.route) =
  Prefix.equal a.prefix b.prefix
  && a.as_path = b.as_path && a.pref = b.pref
  && a.no_export = b.no_export && a.scope = b.scope

let ref_better (a : Bgp.route) (b : Bgp.route) =
  if a.pref <> b.pref then a.pref > b.pref
  else
    let la = List.length a.as_path and lb = List.length b.as_path in
    if la <> lb then la < lb else a.as_path < b.as_path

let origin_pref = 4

let ref_learned_role (r : Bgp.route) =
  if r.pref >= origin_pref then Relationship.Customer
  else if r.pref = Relationship.(local_preference Customer) then Relationship.Customer
  else if r.pref = Relationship.(local_preference Peer) then Relationship.Peer
  else Relationship.Provider

let ref_step m =
  let n = Internet.num_domains m.inet in
  let snapshot = Array.copy m.ribs in
  let candidates = Array.make n [] in
  let add d (r : Bgp.route) =
    if m.propagate d r.prefix then candidates.(d) <- r :: candidates.(d)
  in
  let originated d p scope =
    { Bgp.prefix = p; as_path = [ d ]; pref = origin_pref; no_export = false; scope }
  in
  List.iter (fun (d, p) -> add d (originated d p None)) m.origins;
  List.iter (fun (d, p, radius) -> add d (originated d p (Some radius))) m.limited;
  for d = 0 to n - 1 do
    List.iter
      (fun (nb, role_of_nb) ->
        Pmap.iter
          (fun _ (r : Bgp.route) ->
            let scope_allows = match r.scope with None -> true | Some s -> s > 0 in
            if
              (not r.no_export) && scope_allows
              && (not (List.mem d r.as_path))
              && Relationship.export_allowed ~learned_from:(ref_learned_role r)
                   ~to_:(Relationship.invert role_of_nb)
            then
              add d
                {
                  r with
                  as_path = d :: r.as_path;
                  pref = Relationship.local_preference role_of_nb;
                  no_export = false;
                  scope = Option.map (fun s -> s - 1) r.scope;
                })
          snapshot.(nb))
      (Internet.neighbor_domains m.inet d)
  done;
  List.iter
    (fun (from_, to_, p) ->
      match List.assoc_opt from_ (Internet.neighbor_domains m.inet to_) with
      | None -> ()
      | Some role ->
          add to_
            {
              Bgp.prefix = p;
              as_path = [ to_; from_ ];
              pref = Relationship.local_preference role;
              no_export = true;
              scope = Some 0;
            })
    m.scoped;
  let changed = ref false in
  for d = 0 to n - 1 do
    (* the candidates list is newest first; keep the first of equals *)
    let rib =
      List.fold_left
        (fun best (r : Bgp.route) ->
          match Pmap.find_opt r.prefix best with
          | Some cur when not (ref_better r cur) -> best
          | _ -> Pmap.add r.prefix r best)
        Pmap.empty candidates.(d)
    in
    if not (Pmap.equal route_eq rib snapshot.(d)) then begin
      changed := true;
      m.ribs.(d) <- rib
    end
  done;
  !changed

let ref_converge m =
  let limit = (4 * Internet.num_domains m.inet) + 16 in
  let rec go rounds =
    if rounds >= limit then rounds
    else if ref_step m then go (rounds + 1)
    else rounds
  in
  go 0

type op =
  | Originate of int * Prefix.t
  | Withdraw of int * Prefix.t
  | Limited of int * int * Prefix.t  (* domain, radius *)
  | Unlimit of int * Prefix.t
  | Scoped of int * int * Prefix.t  (* from, to *)
  | Unscope of int * int * Prefix.t
  | Propagates of int * Prefix.t * bool
  | Refuse_long of int

let apply_bgp bgp policy = function
  | Originate (d, p) -> Bgp.originate bgp ~domain:d p
  | Withdraw (d, p) -> Bgp.withdraw_origin bgp ~domain:d p
  | Limited (d, radius, p) -> Bgp.originate_limited bgp ~domain:d ~radius p
  | Unlimit (d, p) -> Bgp.withdraw_limited bgp ~domain:d p
  | Scoped (f, t, p) -> Bgp.advertise_scoped bgp ~from_:f ~to_:t p
  | Unscope (f, t, p) -> Bgp.withdraw_scoped bgp ~from_:f ~to_:t p
  | Propagates (d, p, v) -> Policy.set_propagates policy ~domain:d ~prefix:p v
  | Refuse_long d -> Policy.refuse_all_nonroutable policy ~domains:[ d ]

(* the reference's own copy of the inputs; the policy is shared *)
let apply_ref m = function
  | Originate (d, p) ->
      if not (List.mem (d, p) m.origins) then m.origins <- (d, p) :: m.origins
  | Withdraw (d, p) ->
      m.origins <- List.filter (fun (d', p') -> not (d' = d && Prefix.equal p' p)) m.origins
  | Limited (d, radius, p) ->
      if not (List.mem (d, p, radius) m.limited) then
        m.limited <- (d, p, radius) :: m.limited
  | Unlimit (d, p) ->
      m.limited <-
        List.filter (fun (d', p', _) -> not (d' = d && Prefix.equal p' p)) m.limited
  | Scoped (f, t, p) ->
      if not (List.mem (f, t, p) m.scoped) then m.scoped <- (f, t, p) :: m.scoped
  | Unscope (f, t, p) ->
      m.scoped <-
        List.filter
          (fun (f', t', p') -> not (f' = f && t' = t && Prefix.equal p' p))
          m.scoped
  | Propagates _ | Refuse_long _ -> ()

(* Withdrawals are drawn from what is live, so most of them remove
   something. *)
let random_op rng m anycast =
  let n = Internet.num_domains m.inet in
  let domain () = Rng.int rng n and prefix () = Rng.pick rng anycast in
  let scoped () =
    let l = Rng.pick rng m.inet.Internet.interlinks in
    if Rng.bool rng then Scoped (l.Internet.a_domain, l.Internet.b_domain, prefix ())
    else Scoped (l.Internet.b_domain, l.Internet.a_domain, prefix ())
  in
  let limited () = Limited (domain (), Rng.int rng 3, prefix ()) in
  match Rng.int rng 8 with
  | 0 | 1 -> Originate (domain (), prefix ())
  | 2 -> (
      match m.origins with
      | [] -> Originate (domain (), prefix ())
      | live ->
          let d, p = Rng.pick rng live in
          Withdraw (d, p))
  | 3 -> limited ()
  | 4 -> (
      match m.limited with
      | [] -> limited ()
      | live ->
          let d, p, _ = Rng.pick rng live in
          Unlimit (d, p))
  | 5 -> scoped ()
  | 6 -> (
      match m.scoped with
      | [] -> scoped ()
      | live ->
          let f, t, p = Rng.pick rng live in
          Unscope (f, t, p))
  | _ ->
      if Rng.int rng 4 = 0 then Refuse_long (domain ())
      else
        let p =
          if Rng.bool rng then prefix ()
          else (Internet.domain m.inet (domain ())).Internet.prefix
        in
        Propagates (domain (), p, Rng.bool rng)

let lowest_link inet d nb =
  Internet.interlinks_between inet d nb
  |> List.sort (fun a b ->
         compare
           (a.Internet.a_router, a.Internet.b_router)
           (b.Internet.a_router, b.Internet.b_router))
  |> function
  | [] -> None
  | l :: _ -> Some l

let random_internet rng ~ba =
  let seed = Rng.int64 rng in
  if ba then
    Internet.build_ba
      {
        Internet.default_ba_params with
        Internet.ba_domains = Rng.int_in rng 6 16;
        ba_routers_core = 3;
        ba_routers_edge = 2;
        ba_endhosts_per_domain = 1;
        ba_seed = seed;
      }
  else
    Internet.build
      {
        Internet.default_params with
        Internet.transit_domains = Rng.int_in rng 2 4;
        stubs_per_transit = Rng.int_in rng 1 3;
        routers_per_transit = 4;
        routers_per_stub = 2;
        endhosts_per_domain = 1;
        seed;
      }

let prop_incremental_equals_full_round =
  QCheck.Test.make ~name:"converge = full synchronous rounds = fresh converge"
    ~count:120
    QCheck.(pair bool (int_bound 1_000_000))
    (fun (ba, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let inet = random_internet rng ~ba in
      let n = Internet.num_domains inet in
      let policy = Policy.create () in
      let config = Policy.bgp_config policy in
      let bgp = Bgp.create ~config inet in
      let m =
        {
          inet;
          propagate = config.Bgp.propagate;
          origins = [];
          limited = [];
          scoped = [];
          ribs = Array.make n Pmap.empty;
        }
      in
      let anycast =
        [
          Addressing.anycast_global ~group:1;
          Addressing.anycast_global ~group:2;
          Addressing.anycast_in_domain ~domain:(Rng.int rng n) ~group:3;
        ]
      in
      let log = ref [] in
      let apply op =
        apply_bgp bgp policy op;
        apply_ref m op;
        log := op :: !log
      in
      for d = 0 to n - 1 do
        apply (Originate (d, (Internet.domain inet d).Internet.prefix))
      done;
      let check_rib what step d expected got =
        if
          not
            (List.length expected = List.length got
            && List.for_all2 route_eq expected got)
        then
          QCheck.Test.fail_reportf "seed %d, converge %d: domain %d RIB differs from %s"
            seed step d what
      in
      for step = 0 to 9 do
        if step > 0 then
          for _ = 1 to Rng.int_in rng 1 3 do
            apply (random_op rng m anycast)
          done;
        let expected_rounds = ref_converge m in
        let rounds = Bgp.converge bgp in
        if rounds <> expected_rounds then
          QCheck.Test.fail_reportf "seed %d, converge %d: %d rounds, reference %d"
            seed step rounds expected_rounds;
        let fresh = Bgp.create ~config inet in
        List.iter (fun op -> apply_bgp fresh policy op) (List.rev !log);
        ignore (Bgp.converge fresh);
        for d = 0 to n - 1 do
          let rib = Bgp.rib bgp ~domain:d in
          check_rib "the reference" step d (List.map snd (Pmap.bindings m.ribs.(d))) rib;
          check_rib "a fresh converge" step d (Bgp.rib fresh ~domain:d) rib;
          List.iter
            (fun (r : Bgp.route) ->
              let toward =
                Option.bind
                  (Bgp.lookup bgp ~domain:d (Prefix.network r.prefix))
                  Bgp.next_hop_domain
              in
              if Bgp.egress_link bgp ~domain:d r.prefix
                 <> Option.bind toward (lowest_link inet d)
              then
                QCheck.Test.fail_reportf
                  "seed %d, converge %d: domain %d, %s: egress link is not the lowest"
                  seed step d (Prefix.to_string r.prefix))
            rib
        done
      done;
      true)

let () =
  Alcotest.run "interdomain"
    [
      ( "bgp-core",
        [
          Alcotest.test_case "full reachability" `Quick test_full_reachability;
          Alcotest.test_case "stable after convergence" `Quick test_convergence_stable;
          Alcotest.test_case "loop-free paths" `Quick test_loop_free_paths;
          Alcotest.test_case "valley-free paths" `Quick test_valley_free;
          qcheck prop_valley_free_random_internets;
          Alcotest.test_case "customer preference" `Quick test_customer_preference;
          Alcotest.test_case "LPM lookup" `Quick test_lookup_lpm;
          Alcotest.test_case "RIB accounting" `Quick test_rib_size_accounting;
          Alcotest.test_case "egress link / domain path" `Quick
            test_egress_link_and_domain_path;
          qcheck prop_lookup_consistent_with_route_to;
          qcheck prop_egress_links_per_prefix;
          qcheck prop_incremental_equals_full_round;
        ] );
      ( "bgp-anycast",
        [
          Alcotest.test_case "multi-origin anycast" `Quick test_anycast_multi_origin;
          Alcotest.test_case "propagation filter blocks" `Quick
            test_propagation_filter_blocks;
          Alcotest.test_case "scoped advertisement" `Quick test_scoped_advertisement;
          Alcotest.test_case "scoped requires link" `Quick test_scoped_requires_link;
          Alcotest.test_case "limited-radius origination" `Quick
            test_limited_origin_radius;
          Alcotest.test_case "limited radius validation" `Quick
            test_limited_origin_rejects_negative;
          Alcotest.test_case "withdraw origin" `Quick test_withdraw_origin;
        ] );
    ]
