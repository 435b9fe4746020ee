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

type compiler = {
  env : Forward.env;
  egress : (Prefix.t * Internet.interlink) list Lazy.t array;
      (* per domain: each RIB prefix with its BGP egress interlink *)
}

(* Egress resolution depends only on the domain, so it runs once per
   domain (on first use) and every router of the domain shares the
   result. Self-originated prefixes have no egress; local entries
   cover them. *)
let compiler (env : Forward.env) =
  {
    env;
    egress =
      Array.init (Internet.num_domains env.Forward.inet) (fun domain ->
          lazy (Bgp.egress_links env.Forward.bgp ~domain));
  }

let router_table c r =
  let env = c.env in
  let inet = env.Forward.inet in
  let router = Internet.router inet r in
  let d = router.Internet.rdomain in
  let igp = env.Forward.igps.(d) in
  let table = ref Lpm.empty in
  let add p a = table := Lpm.add p a !table in
  (* 1. inter-domain routes (most generic; overwritten by longer/equal
     local entries below) *)
  List.iter
    (fun (p, link) ->
      if link.Internet.a_router = r then add p (Next_hop link.Internet.b_router)
      else
        match Igp.next_hop igp ~src:r ~dst:link.Internet.a_router with
        | Some nh -> add p (Next_hop nh)
        | None -> ())
    (Lazy.force c.egress.(d));
  (* 2. anycast groups with members in this domain *)
  List.iter
    (fun g ->
      match Igp.anycast_route igp ~src:r ~group:g with
      | Some d when d.Igp.deliver -> add g Local
      | Some d -> add g (Next_hop d.Igp.next_hop)
      | None -> ())
    (Igp.groups igp);
  (* 3. intra-domain routers *)
  Array.iter
    (fun r2 ->
      if r2 = r then add (host_prefix router.Internet.raddr) Local
      else
        match Igp.next_hop igp ~src:r ~dst:r2 with
        | Some nh ->
            add (host_prefix (Internet.router inet r2).Internet.raddr) (Next_hop nh)
        | None -> ())
    (Internet.domain inet d).Internet.router_ids;
  (* 4. intra-domain endhosts *)
  Array.iter
    (fun hid ->
      let h = Internet.endhost inet hid in
      if h.Internet.access_router = r then
        add (host_prefix h.Internet.haddr) (Attached hid)
      else
        match Igp.next_hop igp ~src:r ~dst:h.Internet.access_router with
        | Some nh -> add (host_prefix h.Internet.haddr) (Next_hop nh)
        | None -> ())
    (Internet.domain inet d).Internet.endhost_ids;
  !table

let compile env =
  let c = compiler env in
  { tables = Array.init (Internet.num_routers env.Forward.inet) (router_table c) }

let lookup t ~router addr = Lpm.lookup_value addr t.tables.(router)
let table t ~router = t.tables.(router)

let action_equal a b =
  match (a, b) with
  | Local, Local -> true
  | Attached x, Attached y -> x = y
  | Next_hop x, Next_hop y -> x = y
  | (Local | Attached _ | Next_hop _), _ -> false

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
