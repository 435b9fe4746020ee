module Internet = Topology.Internet
module Igp = Routing.Igp
module Bgp = Interdomain.Bgp
module Prefix = Netcore.Prefix
module Lpm = Netcore.Lpm
module Ipv4 = Netcore.Ipv4
module Packet = Netcore.Packet

type action = Local | Attached of int | Next_hop of int
type t = { tables : action Lpm.t array }

let host_prefix addr = Prefix.make addr 32

(* A domain's ordered prefix list — its RIB's egress prefixes, then its
   anycast groups, its routers and its endhosts — and that list's
   layout. Every router of the domain binds from this list, in this
   order; only the actions differ. The layout is a pure function of
   the list, so a plan serves any compiler whose domain has an equal
   list. *)
type plan = { prefixes : Prefix.t array; layout : Lpm.layout }

(* One domain of a compile: the egress interlink and anycast group of
   each plan position that has one, and the plan. *)
type domain = { egress : Internet.interlink array; groups : Prefix.t array; plan : plan }

type compiler = {
  env : Forward.env;
  prior : plan option array;
      (* per domain: a plan an earlier compiler built, reused while the
         domain's prefix list is unchanged *)
  domains : domain Lazy.t array;
}

(* A domain's egress links and plan depend only on the domain, so they
   are resolved once per domain (on first use) and every router of the
   domain shares them; the [prior] plan is kept while the prefix list
   is unchanged. Self-originated prefixes have no egress; local
   entries cover them. *)
let resolve (env : Forward.env) prior d =
  let inet = env.Forward.inet in
  let dom = Internet.domain inet d in
  let egress = Array.of_list (Bgp.egress_links env.Forward.bgp ~domain:d) in
  let groups = Array.of_list (Igp.groups env.Forward.igps.(d)) in
  let router r = host_prefix (Internet.router inet r).Internet.raddr in
  let endhost h = host_prefix (Internet.endhost inet h).Internet.haddr in
  let prefixes =
    Array.concat
      [
        Array.map fst egress;
        groups;
        Array.map router dom.Internet.router_ids;
        Array.map endhost dom.Internet.endhost_ids;
      ]
  in
  let plan =
    match prior with
    | Some p
      when Array.length p.prefixes = Array.length prefixes
           && Array.for_all2 Prefix.equal p.prefixes prefixes ->
        p
    | _ -> { prefixes; layout = Lpm.layout prefixes }
  in
  { egress = Array.map snd egress; groups; plan }

let make env prior =
  { env; prior; domains = Array.mapi (fun d p -> lazy (resolve env p d)) prior }

let compiler (env : Forward.env) =
  make env (Array.make (Internet.num_domains env.Forward.inet) None)

let recompiler c =
  make c.env
    (Array.mapi
       (fun d dom -> if Lazy.is_val dom then Some (Lazy.force dom).plan else c.prior.(d))
       c.domains)

let action_equal a b =
  match (a, b) with
  | Local, Local -> true
  | Attached x, Attached y -> x = y
  | Next_hop x, Next_hop y -> x = y
  | (Local | Attached _ | Next_hop _), _ -> false

let local = Some Local

let router_table c r =
  let env = c.env in
  let inet = env.Forward.inet in
  let router = Internet.router inet r in
  let d = router.Internet.rdomain in
  let igp = env.Forward.igps.(d) in
  let dom = Lazy.force c.domains.(d) in
  let router_ids = (Internet.domain inet d).Internet.router_ids in
  let next_hop = Option.map (fun nh -> Next_hop nh) in
  (* one IGP query per domain router: every egress and endhost behind
     it binds this same cell *)
  let toward =
    Array.map
      (fun r2 -> if r2 = r then None else next_hop (Igp.next_hop igp ~src:r ~dst:r2))
      router_ids
  in
  let via dst =
    let g = Internet.router inet dst in
    if g.Internet.rdomain = d then toward.(g.Internet.rindex)
    else next_hop (Igp.next_hop igp ~src:r ~dst)
  in
  (* one value per slot of the plan's layout, [None] where this router
     binds nothing; a later binding of a prefix replaces an earlier
     one *)
  let plan = dom.plan in
  let values = Array.make (Lpm.slots plan.layout) None in
  let bind i v = if Option.is_some v then values.(Lpm.slot plan.layout i) <- v in
  let ne = Array.length dom.egress and ng = Array.length dom.groups in
  let nr = Array.length router_ids in
  (* 1. inter-domain routes (most generic; overwritten by longer/equal
     local entries below) *)
  Array.iteri
    (fun i link ->
      bind i
        (if link.Internet.a_router = r then Some (Next_hop link.Internet.b_router)
         else via link.Internet.a_router))
    dom.egress;
  (* 2. anycast groups with members in this domain *)
  Array.iteri
    (fun i g ->
      bind (ne + i)
        (match Igp.anycast_route igp ~src:r ~group:g with
        | Some d when d.Igp.deliver -> local
        | Some d -> Some (Next_hop d.Igp.next_hop)
        | None -> None))
    dom.groups;
  (* 3. intra-domain routers *)
  Array.iteri (fun i r2 -> bind (ne + ng + i) (if r2 = r then local else toward.(i))) router_ids;
  (* 4. intra-domain endhosts *)
  Array.iteri
    (fun i hid ->
      let h = Internet.endhost inet hid in
      bind (ne + ng + nr + i)
        (if h.Internet.access_router = r then Some (Attached hid)
         else via h.Internet.access_router))
    (Internet.domain inet d).Internet.endhost_ids;
  Lpm.fill ~equal:action_equal plan.layout values

let compile env =
  let c = compiler env in
  { tables = Array.init (Internet.num_routers env.Forward.inet) (router_table c) }

let lookup t ~router addr = Lpm.lookup_value addr t.tables.(router)
let table t ~router = t.tables.(router)

let size t ~router = Lpm.cardinal t.tables.(router)

let total_entries t =
  Array.fold_left (fun acc tbl -> acc + Lpm.cardinal tbl) 0 t.tables

let forward t _env packet ~entry =
  let dst = packet.Packet.dst in
  let rec go r ttl acc =
    let acc = r :: acc in
    match lookup t ~router:r dst with
    | None -> { Forward.hops = List.rev acc; outcome = Forward.Dropped Forward.No_route }
    | Some Local -> { Forward.hops = List.rev acc; outcome = Forward.Router_accepted r }
    | Some (Attached h) ->
        { Forward.hops = List.rev acc; outcome = Forward.Endhost_accepted h }
    | Some (Next_hop nh) ->
        if ttl <= 1 then
          { Forward.hops = List.rev acc; outcome = Forward.Dropped Forward.Ttl_expired }
        else if nh = r then
          { Forward.hops = List.rev acc; outcome = Forward.Dropped Forward.Stuck }
        else go nh (ttl - 1) acc
  in
  go entry packet.Packet.ttl []

let outcome_eq a b =
  match (a, b) with
  | Forward.Router_accepted x, Forward.Router_accepted y -> x = y
  | Forward.Endhost_accepted x, Forward.Endhost_accepted y -> x = y
  | Forward.Dropped _, Forward.Dropped _ -> true
  | _ -> false

let agrees_with_decide t env ~samples =
  let disagreement = ref None in
  List.iter
    (fun (entry, dst) ->
      if !disagreement = None then begin
        let p = Packet.make_data ~src:Ipv4.any ~dst "fib-check" in
        let a = Forward.forward env p ~entry in
        let b = forward t env p ~entry in
        if not (outcome_eq a.Forward.outcome b.Forward.outcome) then
          disagreement :=
            Some
              (Printf.sprintf "entry %d -> %s: decide and FIB disagree" entry
                 (Ipv4.to_string dst))
      end)
    samples;
  match !disagreement with None -> Ok () | Some m -> Error m
