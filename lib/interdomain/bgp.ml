module Internet = Topology.Internet
module Relationship = Topology.Relationship
module Prefix = Netcore.Prefix
module Lpm = Netcore.Lpm
module Pmap = Map.Make (Prefix)

type route = {
  prefix : Prefix.t;
  as_path : int list;
  pref : int;
  no_export : bool;
  scope : int option;
}

type config = { propagate : int -> Prefix.t -> bool; version : unit -> int }

let default_config = { propagate = (fun _ _ -> true); version = (fun () -> 0) }
let origin_pref = 4 (* beats customer (3), peer (2), provider (1) *)

(* The decision process, shared with the asynchronous engine
   ([Simcore.Bgpdyn]): the preference order, the role a route was
   learned in, and the routes a domain originates and learns. *)

(* Deterministic total preference order; [a] better than [b] when
   [better a b] is true. *)
let better a b =
  if a.pref <> b.pref then a.pref > b.pref
  else
    let la = List.length a.as_path and lb = List.length b.as_path in
    if la <> lb then la < lb
    else a.as_path < b.as_path (* lexicographic: lower neighbor ids win *)

let equal_route a b =
  Prefix.equal a.prefix b.prefix
  && a.as_path = b.as_path && a.pref = b.pref
  && a.no_export = b.no_export && a.scope = b.scope

(* The role of the route at its owner, for export decisions: recovered
   from the stored preference. *)
let learned_role r =
  if r.pref >= origin_pref then Relationship.Customer (* originated: export freely *)
  else if r.pref = Relationship.(local_preference Customer) then Relationship.Customer
  else if r.pref = Relationship.(local_preference Peer) then Relationship.Peer
  else Relationship.Provider

let origination config ~at ~scope prefix =
  if config.propagate at prefix then
    Some { prefix; as_path = [ at ]; pref = origin_pref; no_export = false; scope }
  else None

let learn config ~at ~role r =
  (* loop prevention at import: [at] rejects a path through itself; the
     role of [at] seen from the neighbour governs the neighbour's export;
     the filter is read last, once every cheaper test has passed *)
  let scope_allows = match r.scope with None -> true | Some s -> s > 0 in
  if
    (not r.no_export) && scope_allows
    && (not (List.mem at r.as_path))
    && Relationship.export_allowed ~learned_from:(learned_role r)
         ~to_:(Relationship.invert role)
    && config.propagate at r.prefix
  then
    Some
      {
        prefix = r.prefix;
        as_path = at :: r.as_path;
        pref = Relationship.local_preference role;
        no_export = false;
        scope = Option.map (fun s -> s - 1) r.scope;
      }
  else None

(* Everything that feeds one prefix's routes, and the routes. No other
   prefix's routes are read, so each prefix converges on its own. *)
type inputs = {
  routes : route option array;  (* per domain: chosen route *)
  mutable origins : int list;
  mutable limited : (int * int) list;  (* domain, radius *)
  mutable scoped : (int * int) list;  (* from, to *)
}

(* One domain's neighbours in increasing order, each with the
   lowest-numbered link to it. *)
type egress = { nbrs : int array; via : Internet.interlink array }

type t = {
  inet : Internet.t;
  config : config;
  mutable version : int;  (* config.version () at the last round *)
  mutable prefixes : inputs Pmap.t;  (* every prefix an operation named *)
  mutable dirty : inputs Pmap.t;  (* the prefixes the next round runs *)
  ribs : route Lpm.t array;  (* per domain: the chosen routes again, for LPM *)
  best : route option array;  (* per domain: a round's best candidate so far *)
  neighbors : (int * Relationship.t) list array;
  links : egress array;  (* per domain *)
}

let internet t = t.inet

let lowest_link inet d nb =
  Internet.interlinks_between inet d nb
  |> List.sort (fun a b ->
         compare
           (a.Internet.a_router, a.Internet.b_router)
           (b.Internet.a_router, b.Internet.b_router))
  |> function
  | [] -> None
  | l :: _ -> Some l

let create ?(config = default_config) inet =
  let n = Internet.num_domains inet in
  let neighbors = Array.init n (fun d -> Internet.neighbor_domains inet d) in
  {
    inet;
    config;
    version = config.version ();
    prefixes = Pmap.empty;
    dirty = Pmap.empty;
    ribs = Array.make n Lpm.empty;
    best = Array.make n None;
    neighbors;
    links =
      Array.mapi
        (fun d nbs ->
          (* [neighbor_domains] lists them in increasing order *)
          let linked =
            Array.of_list
              (List.filter_map
                 (fun (nb, _) -> Option.map (fun l -> (nb, l)) (lowest_link inet d nb))
                 nbs)
          in
          { nbrs = Array.map fst linked; via = Array.map snd linked })
        neighbors;
  }

(* Apply [f] to the prefix's inputs and run the prefix in the next
   round. *)
let update t prefix f =
  let e =
    match Pmap.find_opt prefix t.prefixes with
    | Some e -> e
    | None ->
        let e =
          {
            routes = Array.make (Array.length t.ribs) None;
            origins = [];
            limited = [];
            scoped = [];
          }
        in
        t.prefixes <- Pmap.add prefix e t.prefixes;
        e
  in
  f e;
  t.dirty <- Pmap.add prefix e t.dirty

let originate t ~domain prefix =
  update t prefix (fun e ->
      if not (List.mem domain e.origins) then e.origins <- domain :: e.origins)

let withdraw_origin t ~domain prefix =
  update t prefix (fun e -> e.origins <- List.filter (( <> ) domain) e.origins)

let originate_limited t ~domain ~radius prefix =
  if radius < 0 then invalid_arg "Bgp.originate_limited: negative radius";
  update t prefix (fun e ->
      if not (List.mem (domain, radius) e.limited) then
        e.limited <- (domain, radius) :: e.limited)

let withdraw_limited t ~domain prefix =
  update t prefix (fun e ->
      e.limited <- List.filter (fun (d, _) -> d <> domain) e.limited)

let originate_all_domain_prefixes t =
  for d = 0 to Internet.num_domains t.inet - 1 do
    originate t ~domain:d (Internet.domain t.inet d).prefix
  done

let linked t a b =
  List.exists (fun (nb, _) -> nb = b) t.neighbors.(a)

let advertise_scoped t ~from_ ~to_ prefix =
  if not (linked t from_ to_) then
    invalid_arg "Bgp.advertise_scoped: domains not directly linked";
  update t prefix (fun e ->
      if not (List.mem (from_, to_) e.scoped) then
        e.scoped <- (from_, to_) :: e.scoped)

let withdraw_scoped t ~from_ ~to_ prefix =
  update t prefix (fun e ->
      e.scoped <- List.filter (( <> ) (from_, to_)) e.scoped)

(* One synchronous round for one prefix: every domain chooses among its
   origination, its neighbours' routes of the round before and the
   scoped adverts it received. Rewrites the RIB entries that changed;
   true when any did. *)
let advance t prefix e =
  let prev = e.routes and best = t.best and config = t.config in
  let n = Array.length prev in
  Array.fill best 0 n None;
  (* candidates arrive in a fixed order (origins, limited origins,
     neighbour exports in [neighbors] order, scoped adverts) and the
     last of equally preferred routes wins; each is filtered by the
     choosing domain's [propagate] *)
  let offer d = function
    | None -> ()
    | Some r as c -> (
        match best.(d) with Some b when better b r -> () | _ -> best.(d) <- c)
  in
  List.iter (fun d -> offer d (origination config ~at:d ~scope:None prefix)) e.origins;
  List.iter
    (fun (d, radius) -> offer d (origination config ~at:d ~scope:(Some radius) prefix))
    e.limited;
  for d = 0 to n - 1 do
    List.iter
      (fun (nb, role) ->
        match prev.(nb) with
        | None -> ()
        | Some r -> offer d (learn config ~at:d ~role r))
      t.neighbors.(d)
  done;
  List.iter
    (fun (from_, to_) ->
      (* the caller asserts the advertiser can deliver to the prefix
         (e.g. its own IGP anycast members); scoped routes are taken on
         faith, as real peering advertisements are *)
      match List.assoc_opt from_ t.neighbors.(to_) with
      | Some role_of_from when config.propagate to_ prefix ->
          offer to_
            (Some
               {
                 prefix;
                 as_path = [ to_; from_ ];
                 pref = Relationship.local_preference role_of_from;
                 no_export = true;
                 scope = Some 0;
               })
      | _ -> ())
    e.scoped;
  (* every neighbour's route of the round before has been read, so the
     routes can change in place *)
  let changed = ref false in
  for d = 0 to n - 1 do
    let r = best.(d) in
    if not (Option.equal equal_route r prev.(d)) then begin
      changed := true;
      prev.(d) <- r;
      t.ribs.(d) <-
        (match r with
        | Some r -> Lpm.add prefix r t.ribs.(d)
        | None -> Lpm.remove prefix t.ribs.(d))
    end
  done;
  !changed

let step t =
  let v = t.config.version () in
  if v <> t.version then begin
    (* the import filter moved: no prefix is known to be at rest *)
    t.version <- v;
    t.dirty <- t.prefixes
  end;
  t.dirty <-
    Pmap.fold
      (fun p e still -> if advance t p e then Pmap.add p e still else still)
      t.dirty Pmap.empty;
  not (Pmap.is_empty t.dirty)

let converge t =
  let limit = (4 * Internet.num_domains t.inet) + 16 in
  let rec go rounds =
    if rounds >= limit then rounds else if step t then go (rounds + 1) else rounds
  in
  go 0

let route_to t ~domain prefix = Lpm.find_exact prefix t.ribs.(domain)
let lookup t ~domain addr = Lpm.lookup_value addr t.ribs.(domain)

let next_hop_domain r =
  match r.as_path with
  | _ :: nb :: _ -> Some nb
  | [ _ ] | [] -> None

let as_path_length r = List.length r.as_path
let rib_size t ~domain = Lpm.cardinal t.ribs.(domain)
let rib t ~domain = List.map snd (Lpm.bindings t.ribs.(domain))

(* A binary search over the domain's neighbours. *)
let link_of t ~domain r =
  match r.as_path with
  | _ :: nb :: _ ->
      let e = t.links.(domain) in
      let rec go lo hi =
        if lo >= hi then None
        else
          let mid = (lo + hi) lsr 1 in
          let m = e.nbrs.(mid) in
          if m = nb then Some e.via.(mid) else if m < nb then go (mid + 1) hi else go lo mid
      in
      go 0 (Array.length e.nbrs)
  | [ _ ] | [] -> None

let egress_link t ~domain prefix =
  (* the neighbour the domain's route for the covering prefix goes
     through *)
  match Lpm.lookup_value (Prefix.network prefix) t.ribs.(domain) with
  | None -> None
  | Some r -> link_of t ~domain r

(* [egress_link] of every RIB prefix, with no lookup: the covering
   route of a prefix's network address is the longest route with that
   same network (a longer prefix holding the address starts there), so
   in the RIB's prefix order it is the last of the run of routes that
   share the network. One fold lists the routes last first, where it
   is the first of its run; walking that list pairs each prefix with
   its run's link and conses the result back into RIB order. *)
let egress_links t ~domain =
  let rec go acc net link = function
    | [] -> acc
    | r :: rest ->
        let n = Netcore.Ipv4.to_int (Prefix.network r.prefix) in
        let link = if n = net then link else link_of t ~domain r in
        let acc = match link with Some l -> (r.prefix, l) :: acc | None -> acc in
        go acc n link rest
  in
  (* no network is -1 *)
  go [] (-1) None (Lpm.fold (fun _ r acc -> r :: acc) t.ribs.(domain) [])

let domain_path t ~src addr =
  match lookup t ~domain:src addr with
  | None -> None
  | Some r -> Some r.as_path
