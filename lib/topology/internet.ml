type router = {
  rid : int;
  rdomain : int;
  rindex : int;
  raddr : Netcore.Ipv4.t;
}

type endhost = {
  hid : int;
  hdomain : int;
  hindex : int;
  haddr : Netcore.Ipv4.t;
  access_router : int;
}

type domain = {
  did : int;
  prefix : Netcore.Prefix.t;
  router_ids : int array;
  endhost_ids : int array;
  is_transit : bool;
}

type interlink = {
  a_domain : int;
  b_domain : int;
  a_router : int;
  b_router : int;
  rel : Relationship.t;
}

type t = {
  graph : Graph.t;
  routers : router array;
  endhosts : endhost array;
  domains : domain array;
  interlinks : interlink list;
  domain_graph : Graph.t;
}

let num_domains t = Array.length t.domains
let num_routers t = Array.length t.routers
let router t i = t.routers.(i)
let domain t i = t.domains.(i)
let endhost t i = t.endhosts.(i)

let router_of_addr t a =
  Array.find_opt (fun r -> Netcore.Ipv4.equal r.raddr a) t.routers

let endhost_of_addr t a =
  Array.find_opt (fun h -> Netcore.Ipv4.equal h.haddr a) t.endhosts

let domain_of_addr t a =
  match Netcore.Addressing.domain_of_address a with
  | Some d when d < num_domains t -> Some d
  | _ -> None

let relationship t ~of_ ~to_ =
  List.find_map
    (fun l ->
      if l.a_domain = of_ && l.b_domain = to_ then Some l.rel
      else if l.a_domain = to_ && l.b_domain = of_ then
        Some (Relationship.invert l.rel)
      else None)
    t.interlinks

let neighbor_domains t d =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun l ->
      if l.a_domain = d then Hashtbl.replace seen l.b_domain l.rel
      else if l.b_domain = d then
        Hashtbl.replace seen l.a_domain (Relationship.invert l.rel))
    t.interlinks;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) seen []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let border_routers t d =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun l ->
      if l.a_domain = d then Hashtbl.replace seen l.a_router ()
      else if l.b_domain = d then Hashtbl.replace seen l.b_router ())
    t.interlinks;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort Int.compare

let interlinks_between t a b =
  List.filter_map
    (fun l ->
      if l.a_domain = a && l.b_domain = b then Some l
      else if l.a_domain = b && l.b_domain = a then
        Some
          {
            a_domain = l.b_domain;
            b_domain = l.a_domain;
            a_router = l.b_router;
            b_router = l.a_router;
            rel = Relationship.invert l.rel;
          }
      else None)
    t.interlinks

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

type intra_style =
  | Ring_chords of int
  | Waxman of float * float
  | Erdos_renyi of float

type link_weight = Unit_weight | Uniform_weight of float * float

type params = {
  transit_domains : int;
  stubs_per_transit : int;
  routers_per_transit : int;
  routers_per_stub : int;
  endhosts_per_domain : int;
  extra_transit_peering : float;
  stub_multihoming : float;
  stub_peering : float;
  intra_style : intra_style;
  link_weight : link_weight;
  interlink_weight : float;
  seed : int64;
}

let default_params =
  {
    transit_domains = 4;
    stubs_per_transit = 6;
    routers_per_transit = 12;
    routers_per_stub = 6;
    endhosts_per_domain = 4;
    extra_transit_peering = 0.3;
    stub_multihoming = 0.25;
    stub_peering = 0.1;
    intra_style = Ring_chords 3;
    link_weight = Unit_weight;
    interlink_weight = 1.0;
    seed = 42L;
  }

let weight_of rng = function
  | Unit_weight -> 1.0
  | Uniform_weight (lo, hi) -> lo +. Rng.float rng (hi -. lo)

(* Generate an intra-domain topology over local nodes [0..n-1] as an
   edge list, guaranteed connected. *)
let intra_edges rng style n =
  let edges = Hashtbl.create (2 * n) in
  let add u v =
    if u <> v then begin
      let u, v = if u < v then (u, v) else (v, u) in
      Hashtbl.replace edges (u, v) ()
    end
  in
  (match style with
  | Ring_chords k ->
      if n > 1 then
        for i = 0 to n - 1 do
          add i ((i + 1) mod n)
        done;
      let chords = if n > 3 then k * n / 4 else 0 in
      for _ = 1 to chords do
        add (Rng.int rng n) (Rng.int rng n)
      done
  | Waxman (alpha, beta) ->
      let xs = Array.init n (fun _ -> (Rng.float rng 1.0, Rng.float rng 1.0)) in
      let dist (x1, y1) (x2, y2) = Float.hypot (x1 -. x2) (y1 -. y2) in
      let diag = sqrt 2.0 in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let p = alpha *. exp (-.dist xs.(u) xs.(v) /. (beta *. diag)) in
          if Rng.bernoulli rng p then add u v
        done
      done
  | Erdos_renyi p ->
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Rng.bernoulli rng p then add u v
        done
      done);
  (* repair connectivity: link each component to the next *)
  let g = Graph.create ~n in
  Hashtbl.iter (fun (u, v) () -> Graph.add_edge g u v 1.0) edges;
  (match Graph.components g with
  | [] | [ _ ] -> ()
  | first :: rest ->
      let anchor = ref (List.nth first (Rng.int rng (List.length first))) in
      List.iter
        (fun comp ->
          let v = List.nth comp (Rng.int rng (List.length comp)) in
          add !anchor v;
          anchor := v)
        rest);
  Hashtbl.fold (fun e () acc -> e :: acc) edges [] |> List.sort compare

let build p =
  if p.transit_domains <= 0 then invalid_arg "Internet.build: no transit domains";
  if p.routers_per_transit <= 0 || p.routers_per_stub <= 0 then
    invalid_arg "Internet.build: domains need at least one router";
  if p.stubs_per_transit < 0 || p.endhosts_per_domain < 0 then
    invalid_arg "Internet.build: negative sizes";
  let rng = Rng.create p.seed in
  let num_domains = p.transit_domains * (1 + p.stubs_per_transit) in
  let is_transit d = d < p.transit_domains in
  let routers_in d =
    if is_transit d then p.routers_per_transit else p.routers_per_stub
  in
  (* global router ids *)
  let router_offset = Array.make (num_domains + 1) 0 in
  for d = 0 to num_domains - 1 do
    router_offset.(d + 1) <- router_offset.(d) + routers_in d
  done;
  let total_routers = router_offset.(num_domains) in
  let routers =
    Array.init total_routers (fun rid ->
        (* find the owning domain by scanning offsets (few domains) *)
        let rec owner d = if router_offset.(d + 1) > rid then d else owner (d + 1) in
        let d = owner 0 in
        let idx = rid - router_offset.(d) in
        {
          rid;
          rdomain = d;
          rindex = idx;
          raddr = Netcore.Addressing.router_address ~domain:d ~index:idx;
        })
  in
  let graph = Graph.create ~n:total_routers in
  let domain_graph = Graph.create ~n:num_domains in
  (* intra-domain topologies *)
  for d = 0 to num_domains - 1 do
    let nd = routers_in d in
    let local = intra_edges rng p.intra_style nd in
    List.iter
      (fun (u, v) ->
        Graph.add_edge graph
          (router_offset.(d) + u)
          (router_offset.(d) + v)
          (weight_of rng p.link_weight))
      local
  done;
  (* inter-domain links *)
  let interlinks = ref [] in
  let link_domains a b rel =
    let ra = router_offset.(a) + Rng.int rng (routers_in a) in
    let rb = router_offset.(b) + Rng.int rng (routers_in b) in
    Graph.add_edge graph ra rb p.interlink_weight;
    if not (Graph.has_edge domain_graph a b) then
      Graph.add_edge domain_graph a b 1.0;
    interlinks :=
      { a_domain = a; b_domain = b; a_router = ra; b_router = rb; rel }
      :: !interlinks
  in
  (* transit core: a full peering mesh — peer-learned routes are not
     re-exported to peers, so anything short of a clique leaves
     non-adjacent tier-1s mutually unreachable. [extra_transit_peering]
     adds parallel peering links (extra border-router pairs). *)
  let nt = p.transit_domains in
  for i = 0 to nt - 1 do
    for j = i + 1 to nt - 1 do
      link_domains i j Relationship.Peer;
      if Rng.bernoulli rng p.extra_transit_peering then
        link_domains i j Relationship.Peer
    done
  done;
  (* stubs: customers of their transit; optional multihoming and stub
     peering *)
  for ti = 0 to nt - 1 do
    for si = 0 to p.stubs_per_transit - 1 do
      let stub = nt + (ti * p.stubs_per_transit) + si in
      (* stub's provider is ti: from the stub's view the remote is a
         Provider *)
      link_domains stub ti Relationship.Provider;
      if nt > 1 && Rng.bernoulli rng p.stub_multihoming then begin
        let other = (ti + 1 + Rng.int rng (nt - 1)) mod nt in
        if other <> ti then link_domains stub other Relationship.Provider
      end;
      if si > 0 && Rng.bernoulli rng p.stub_peering then begin
        let sibling = nt + (ti * p.stubs_per_transit) + Rng.int rng si in
        link_domains stub sibling Relationship.Peer
      end
    done
  done;
  (* endhosts *)
  let endhosts =
    Array.init (num_domains * p.endhosts_per_domain) (fun hid ->
        let d = hid / p.endhosts_per_domain in
        let idx = hid mod p.endhosts_per_domain in
        let access = router_offset.(d) + Rng.int rng (routers_in d) in
        {
          hid;
          hdomain = d;
          hindex = idx;
          haddr = Netcore.Addressing.endhost_address ~domain:d ~index:idx;
          access_router = access;
        })
  in
  let domains =
    Array.init num_domains (fun d ->
        {
          did = d;
          prefix = Netcore.Addressing.domain_prefix d;
          router_ids =
            Array.init (routers_in d) (fun i -> router_offset.(d) + i);
          endhost_ids =
            Array.init p.endhosts_per_domain (fun i ->
                (d * p.endhosts_per_domain) + i);
          is_transit = is_transit d;
        })
  in
  { graph; routers; endhosts; domains; interlinks = !interlinks; domain_graph }

type domain_spec = { routers : int; endhosts : int; transit : bool }
type link_spec = { a : int; b : int; rel_of_b : Relationship.t }

let build_custom ?(seed = 1L) ?(intra_style = Ring_chords 2)
    ?(link_weight = Unit_weight) ?(interlink_weight = 1.0) specs links =
  let num_domains = Array.length specs in
  Array.iter
    (fun s ->
      if s.routers <= 0 then invalid_arg "Internet.build_custom: empty domain")
    specs;
  List.iter
    (fun l ->
      if l.a < 0 || l.a >= num_domains || l.b < 0 || l.b >= num_domains || l.a = l.b
      then invalid_arg "Internet.build_custom: bad link endpoints")
    links;
  let rng = Rng.create seed in
  let router_offset = Array.make (num_domains + 1) 0 in
  for d = 0 to num_domains - 1 do
    router_offset.(d + 1) <- router_offset.(d) + specs.(d).routers
  done;
  let total_routers = router_offset.(num_domains) in
  let routers =
    Array.init total_routers (fun rid ->
        let rec owner d = if router_offset.(d + 1) > rid then d else owner (d + 1) in
        let d = owner 0 in
        let idx = rid - router_offset.(d) in
        {
          rid;
          rdomain = d;
          rindex = idx;
          raddr = Netcore.Addressing.router_address ~domain:d ~index:idx;
        })
  in
  let graph = Graph.create ~n:total_routers in
  let domain_graph = Graph.create ~n:num_domains in
  for d = 0 to num_domains - 1 do
    let local = intra_edges rng intra_style specs.(d).routers in
    List.iter
      (fun (u, v) ->
        Graph.add_edge graph
          (router_offset.(d) + u)
          (router_offset.(d) + v)
          (weight_of rng link_weight))
      local
  done;
  let interlinks =
    List.map
      (fun l ->
        let ra = router_offset.(l.a) + Rng.int rng specs.(l.a).routers in
        let rb = router_offset.(l.b) + Rng.int rng specs.(l.b).routers in
        Graph.add_edge graph ra rb interlink_weight;
        if not (Graph.has_edge domain_graph l.a l.b) then
          Graph.add_edge domain_graph l.a l.b 1.0;
        { a_domain = l.a; b_domain = l.b; a_router = ra; b_router = rb; rel = l.rel_of_b })
      links
  in
  let endhost_offset = Array.make (num_domains + 1) 0 in
  for d = 0 to num_domains - 1 do
    endhost_offset.(d + 1) <- endhost_offset.(d) + specs.(d).endhosts
  done;
  let endhosts =
    Array.init endhost_offset.(num_domains) (fun hid ->
        let rec owner d = if endhost_offset.(d + 1) > hid then d else owner (d + 1) in
        let d = owner 0 in
        let idx = hid - endhost_offset.(d) in
        {
          hid;
          hdomain = d;
          hindex = idx;
          haddr = Netcore.Addressing.endhost_address ~domain:d ~index:idx;
          access_router = router_offset.(d) + Rng.int rng specs.(d).routers;
        })
  in
  let domains =
    Array.init num_domains (fun d ->
        {
          did = d;
          prefix = Netcore.Addressing.domain_prefix d;
          router_ids = Array.init specs.(d).routers (fun i -> router_offset.(d) + i);
          endhost_ids =
            Array.init specs.(d).endhosts (fun i -> endhost_offset.(d) + i);
          is_transit = specs.(d).transit;
        })
  in
  { graph; routers; endhosts; domains; interlinks; domain_graph }

type ba_params = {
  ba_domains : int;
  ba_seed_clique : int;
  ba_attach : int;
  ba_routers_core : int;
  ba_routers_edge : int;
  ba_endhosts_per_domain : int;
  ba_sibling_peering : float;
  ba_seed : int64;
}

let default_ba_params =
  {
    ba_domains = 30;
    ba_seed_clique = 3;
    ba_attach = 2;
    ba_routers_core = 10;
    ba_routers_edge = 5;
    ba_endhosts_per_domain = 4;
    ba_sibling_peering = 0.15;
    ba_seed = 42L;
  }

let build_ba p =
  if p.ba_seed_clique < 2 || p.ba_domains <= p.ba_seed_clique then
    invalid_arg "Internet.build_ba: need a clique and at least one newcomer";
  if p.ba_attach < 1 then invalid_arg "Internet.build_ba: attach >= 1";
  let rng = Rng.create p.ba_seed in
  (* degree-proportional provider choice over already-joined domains *)
  let degree = Array.make p.ba_domains 0 in
  let links = ref [] in
  let add_link a b rel =
    degree.(a) <- degree.(a) + 1;
    degree.(b) <- degree.(b) + 1;
    links := { a; b; rel_of_b = rel } :: !links
  in
  for i = 0 to p.ba_seed_clique - 1 do
    for j = i + 1 to p.ba_seed_clique - 1 do
      add_link i j Relationship.Peer
    done
  done;
  for d = p.ba_seed_clique to p.ba_domains - 1 do
    let chosen = ref [] in
    let attach = min p.ba_attach d in
    while List.length !chosen < attach do
      (* roulette over degree among domains < d *)
      let total = ref 0 in
      for x = 0 to d - 1 do
        if not (List.mem x !chosen) then total := !total + degree.(x)
      done;
      if !total = 0 then chosen := 0 :: !chosen
      else begin
        let pick = Rng.int rng !total in
        let acc = ref 0 and found = ref (-1) in
        for x = 0 to d - 1 do
          if !found < 0 && not (List.mem x !chosen) then begin
            acc := !acc + degree.(x);
            if pick < !acc then found := x
          end
        done;
        chosen := (if !found < 0 then 0 else !found) :: !chosen
      end
    done;
    List.iter (fun provider -> add_link d provider Relationship.Provider)
      (List.sort_uniq Int.compare !chosen);
    (* occasional lateral peering with a recent arrival *)
    if d > p.ba_seed_clique && Rng.bernoulli rng p.ba_sibling_peering then begin
      let peer = p.ba_seed_clique + Rng.int rng (d - p.ba_seed_clique) in
      if peer <> d then add_link d peer Relationship.Peer
    end
  done;
  let specs =
    Array.init p.ba_domains (fun d ->
        {
          routers = (if d < p.ba_seed_clique then p.ba_routers_core else p.ba_routers_edge);
          endhosts = p.ba_endhosts_per_domain;
          transit = d < p.ba_seed_clique;
        })
  in
  build_custom ~seed:(Rng.int64 rng) specs (List.rev !links)

let small_example () =
  build
    {
      default_params with
      transit_domains = 2;
      stubs_per_transit = 1;
      routers_per_transit = 4;
      routers_per_stub = 3;
      endhosts_per_domain = 2;
      extra_transit_peering = 0.0;
      stub_multihoming = 0.0;
      stub_peering = 0.0;
      seed = 7L;
    }

let check_invariants t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ok = Ok () in
  let check_router acc r =
    match acc with
    | Error _ -> acc
    | Ok () ->
        if r.rid < 0 || r.rid >= num_routers t then fail "router id %d out of range" r.rid
        else if r.rdomain < 0 || r.rdomain >= num_domains t then
          fail "router %d: bad domain" r.rid
        else if
          not
            (Netcore.Ipv4.equal r.raddr
               (Netcore.Addressing.router_address ~domain:r.rdomain ~index:r.rindex))
        then fail "router %d: address off-plan" r.rid
        else if not (Array.exists (fun id -> id = r.rid) t.domains.(r.rdomain).router_ids)
        then fail "router %d missing from its domain" r.rid
        else ok
  in
  let result = Array.fold_left check_router ok t.routers in
  let result =
    Array.fold_left
      (fun acc h ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            if t.routers.(h.access_router).rdomain <> h.hdomain then
              fail "endhost %d: access router outside its domain" h.hid
            else ok)
      result t.endhosts
  in
  let result =
    List.fold_left
      (fun acc l ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            if t.routers.(l.a_router).rdomain <> l.a_domain then
              fail "interlink: a_router not in a_domain"
            else if t.routers.(l.b_router).rdomain <> l.b_domain then
              fail "interlink: b_router not in b_domain"
            else if not (Graph.has_edge t.graph l.a_router l.b_router) then
              fail "interlink missing from router graph"
            else ok)
      result t.interlinks
  in
  match result with
  | Error _ as e -> e
  | Ok () ->
      (* intra-domain connectivity: restrict the graph to each domain *)
      let intra_ok d =
        let ids = d.router_ids in
        let index_of = Hashtbl.create (Array.length ids) in
        Array.iteri (fun i id -> Hashtbl.replace index_of id i) ids;
        let sub = Graph.create ~n:(Array.length ids) in
        Array.iter
          (fun id ->
            Graph.iter_neighbors t.graph id (fun nb w ->
                match Hashtbl.find_opt index_of nb with
                | Some j when t.routers.(nb).rdomain = d.did ->
                    let i = Hashtbl.find index_of id in
                    if i < j then Graph.add_edge sub i j w
                | _ -> ()))
          ids;
        Graph.is_connected sub
      in
      if Array.for_all intra_ok t.domains then
        if Graph.is_connected t.graph then Ok ()
        else Error "router graph disconnected"
      else Error "a domain's internal topology is disconnected"
