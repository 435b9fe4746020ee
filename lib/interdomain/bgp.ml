module Internet = Topology.Internet
module Relationship = Topology.Relationship
module Prefix = Netcore.Prefix
module Lpm = Netcore.Lpm

type route = {
  prefix : Prefix.t;
  as_path : int list;
  pref : int;
  no_export : bool;
  scope : int option;
}

type config = { propagate : int -> Prefix.t -> bool }

let default_config = { propagate = (fun _ _ -> true) }
let origin_pref = 4 (* beats customer (3), peer (2), provider (1) *)

type t = {
  inet : Internet.t;
  config : config;
  mutable origins : (int * Prefix.t) list;
  mutable limited_origins : (int * Prefix.t * int) list;  (* domain, prefix, radius *)
  mutable scoped : (int * int * Prefix.t) list;  (* from, to, prefix *)
  ribs : route Lpm.t array;  (* per domain: chosen route per prefix *)
  neighbors : (int * Relationship.t) list array;
}

let internet t = t.inet

let create ?(config = default_config) inet =
  let n = Internet.num_domains inet in
  {
    inet;
    config;
    origins = [];
    limited_origins = [];
    scoped = [];
    ribs = Array.make n Lpm.empty;
    neighbors = Array.init n (fun d -> Internet.neighbor_domains inet d);
  }

let originate t ~domain prefix =
  if not (List.mem (domain, prefix) t.origins) then
    t.origins <- (domain, prefix) :: t.origins

let withdraw_origin t ~domain prefix =
  t.origins <-
    List.filter
      (fun (d, p) -> not (d = domain && Prefix.equal p prefix))
      t.origins

let originate_limited t ~domain ~radius prefix =
  if radius < 0 then invalid_arg "Bgp.originate_limited: negative radius";
  let entry = (domain, prefix, radius) in
  if not (List.mem entry t.limited_origins) then
    t.limited_origins <- entry :: t.limited_origins

let withdraw_limited t ~domain prefix =
  t.limited_origins <-
    List.filter
      (fun (d, p, _) -> not (d = domain && Prefix.equal p prefix))
      t.limited_origins

let originate_all_domain_prefixes t =
  for d = 0 to Internet.num_domains t.inet - 1 do
    originate t ~domain:d (Internet.domain t.inet d).prefix
  done

let linked t a b =
  List.exists (fun (nb, _) -> nb = b) t.neighbors.(a)

let advertise_scoped t ~from_ ~to_ prefix =
  if not (linked t from_ to_) then
    invalid_arg "Bgp.advertise_scoped: domains not directly linked";
  if not (List.mem (from_, to_, prefix) t.scoped) then
    t.scoped <- (from_, to_, prefix) :: t.scoped

let withdraw_scoped t ~from_ ~to_ prefix =
  t.scoped <-
    List.filter
      (fun (f, d, p) -> not (f = from_ && d = to_ && Prefix.equal p prefix))
      t.scoped

(* Deterministic total preference order; [a] better than [b] when
   [better a b] is true. *)
let better a b =
  if a.pref <> b.pref then a.pref > b.pref
  else
    let la = List.length a.as_path and lb = List.length b.as_path in
    if la <> lb then la < lb
    else a.as_path < b.as_path (* lexicographic: lower neighbor ids win *)

let route_eq a b =
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

let step t =
  let n = Internet.num_domains t.inet in
  let snapshot = Array.copy t.ribs in
  let changed = ref false in
  (* candidate accumulation per domain *)
  let candidates = Array.make n ([] : route list) in
  (* loop prevention happens at import: a domain rejects routes whose
     path already contains it — checked by callers before the self
     element is prepended *)
  let add_candidate d r =
    if t.config.propagate d r.prefix then candidates.(d) <- r :: candidates.(d)
  in
  (* 1. origination *)
  List.iter
    (fun (d, p) ->
      add_candidate d
        { prefix = p; as_path = [ d ]; pref = origin_pref; no_export = false; scope = None })
    t.origins;
  List.iter
    (fun (d, p, radius) ->
      add_candidate d
        {
          prefix = p;
          as_path = [ d ];
          pref = origin_pref;
          no_export = false;
          scope = Some radius;
        })
    t.limited_origins;
  (* 2. neighbor exports from the snapshot *)
  for d = 0 to n - 1 do
    List.iter
      (fun (nb, role_of_nb) ->
        (* role of d from nb's point of view governs nb's export *)
        let role_of_d = Relationship.invert role_of_nb in
        Lpm.iter
          (fun _p r ->
            let scope_allows = match r.scope with None -> true | Some s -> s > 0 in
            if (not r.no_export) && scope_allows && not (List.mem d r.as_path)
            then
              if Relationship.export_allowed ~learned_from:(learned_role r) ~to_:role_of_d
              then
                add_candidate d
                  {
                    prefix = r.prefix;
                    as_path = d :: r.as_path;
                    pref = Relationship.local_preference role_of_nb;
                    no_export = false;
                    scope = Option.map (fun s -> s - 1) r.scope;
                  })
          snapshot.(nb))
      t.neighbors.(d)
  done;
  (* 3. scoped (one-hop, no-export) advertisements *)
  List.iter
    (fun (from_, to_, p) ->
      match
        List.find_opt (fun (nb, _) -> nb = from_) t.neighbors.(to_)
      with
      | None -> ()
      | Some (_, role_of_from) ->
          (* the caller asserts the advertiser can deliver to the
             prefix (e.g. its own IGP anycast members); scoped routes
             are taken on faith, as real peering advertisements are *)
          add_candidate to_
            {
              prefix = p;
              as_path = [ to_; from_ ];
              pref = Relationship.local_preference role_of_from;
              no_export = true;
              scope = Some 0;
            })
    t.scoped;
  (* 4. selection *)
  for d = 0 to n - 1 do
    let best = Hashtbl.create 16 in
    List.iter
      (fun r ->
        match Hashtbl.find_opt best r.prefix with
        | Some cur when not (better r cur) -> ()
        | _ -> Hashtbl.replace best r.prefix r)
      candidates.(d);
    let rib = Hashtbl.fold (fun p r acc -> Lpm.add p r acc) best Lpm.empty in
    let same =
      Lpm.cardinal rib = Lpm.cardinal snapshot.(d)
      && Lpm.fold
           (fun p r acc ->
             acc
             &&
             match Lpm.find_exact p snapshot.(d) with
             | Some old -> route_eq old r
             | None -> false)
           rib true
    in
    if not same then begin
      changed := true;
      t.ribs.(d) <- rib
    end
  done;
  !changed

let converge t =
  let limit = (4 * Internet.num_domains t.inet) + 16 in
  let rec go rounds =
    if rounds >= limit then rounds else if step t then go (rounds + 1) else rounds
  in
  go 0

let route_to t ~domain prefix = Lpm.find_exact prefix t.ribs.(domain)
let lookup t ~domain addr = Option.map snd (Lpm.lookup addr t.ribs.(domain))

let next_hop_domain r =
  match r.as_path with
  | _ :: nb :: _ -> Some nb
  | [ _ ] | [] -> None

let as_path_length r = List.length r.as_path
let rib_size t ~domain = Lpm.cardinal t.ribs.(domain)
let rib t ~domain = List.map snd (Lpm.bindings t.ribs.(domain))

(* the neighbour the domain's route for the covering prefix goes
   through *)
let covering_next_hop t ~domain prefix =
  match Lpm.lookup (Prefix.network prefix) t.ribs.(domain) with
  | None -> None
  | Some (_, r) -> next_hop_domain r

(* the lowest-numbered link from [domain] to neighbour [nb] *)
let link_to t domain nb =
  Internet.interlinks_between t.inet domain nb
  |> List.sort (fun a b ->
         compare
           (a.Internet.a_router, a.Internet.b_router)
           (b.Internet.a_router, b.Internet.b_router))
  |> function
  | [] -> None
  | l :: _ -> Some l

let egress_link t ~domain prefix =
  Option.bind (covering_next_hop t ~domain prefix) (link_to t domain)

let egress_links t ~domain =
  let links = Hashtbl.create 8 in
  let link nb =
    match Hashtbl.find_opt links nb with
    | Some l -> l
    | None ->
        let l = link_to t domain nb in
        Hashtbl.add links nb l;
        l
  in
  List.filter_map
    (fun r ->
      Option.bind (covering_next_hop t ~domain r.prefix) link
      |> Option.map (fun l -> (r.prefix, l)))
    (rib t ~domain)

let domain_path t ~src addr =
  match lookup t ~domain:src addr with
  | None -> None
  | Some r -> Some r.as_path
