module Internet = Topology.Internet
module Graph = Topology.Graph
module Forward = Simcore.Forward
module Service = Anycast.Service
module Packet = Netcore.Packet
module Spt = Routing.Spt
module Igp = Routing.Igp

type tunnel = {
  from_router : int;
  to_router : int;
  underlay_metric : float;
  kind : [ `Intra | `Inter_policy | `Inter_bootstrap | `Manual ];
}

type t = {
  service : Service.t;
  members : int array;
  index : (int, int) Hashtbl.t;  (* router id -> vN node *)
  graph : Graph.t;
  mutable tunnels : tunnel list;
  anchor : int option;
  spt_cache : (int, Spt.t) Hashtbl.t;  (* vN node -> SPT over the vN graph *)
}

let service t = t.service
let members t = t.members
let graph t = t.graph
let tunnels t = t.tunnels
let anchor_domain t = t.anchor
let index_of t r = Hashtbl.find_opt t.index r

(* Underlay metrics as the data plane forwards them: one memoised
   forwarding tree per destination router, filled in as pairs are
   priced. The trees hold one env snapshot, so each public call makes
   its own pricer and drops it on return. *)
let pricer env =
  let trees = Array.make (Internet.num_routers env.Forward.inet) None in
  fun a b ->
    if a = b then 0.0
    else
      let tree =
        match trees.(b) with
        | Some tree -> tree
        | None ->
            let tree =
              Forward.toward env (Internet.router env.Forward.inet b).raddr
            in
            trees.(b) <- Some tree;
            tree
      in
      (Forward.reach tree ~entry:a ~ttl:Packet.default_ttl).Forward.metric

let add_tunnel t price kind a b =
  let ia = Hashtbl.find t.index a and ib = Hashtbl.find t.index b in
  if ia <> ib && not (Graph.has_edge t.graph ia ib) then begin
    let m = price a b in
    if m < infinity then begin
      Graph.add_edge t.graph ia ib (Float.max m 0.001);
      t.tunnels <-
        { from_router = a; to_router = b; underlay_metric = m; kind } :: t.tunnels
    end
  end

type discovery = Linkstate_lsdb | Anycast_walk

(* --- intra-domain fallback for DV domains (footnote 2): joiners
   anycast before advertising and link to the closest already-joined
   member, producing a nearest-neighbor join tree --- *)

let build_intra_walk t price domain =
  let igp = (Service.env t.service).Forward.igps.(domain) in
  let members = Service.members_in t.service ~domain in
  let dist m o = Igp.distance igp ~src:m ~dst:o in
  (* enrollment order = router id order (the order Service enrolls) *)
  let rec join joined = function
    | [] -> ()
    | m :: rest ->
        (match
           List.fold_left
             (fun acc o ->
               let d = dist m o in
               match acc with
               | Some (_, bd) when bd <= d -> acc
               | _ -> if d < infinity then Some (o, d) else acc)
             None joined
         with
        | Some (o, _) -> add_tunnel t price `Intra m o
        | None -> () (* first joiner, or unreachable *));
        join (m :: joined) rest
  in
  join [] members

(* --- intra-domain: k closest members, then partition repair --- *)

let build_intra t price k domain =
  let igp = (Service.env t.service).Forward.igps.(domain) in
  let members = Service.members_in t.service ~domain in
  let dist m o = Igp.distance igp ~src:m ~dst:o in
  List.iter
    (fun m ->
      let nearest =
        List.filter (fun o -> o <> m) members
        |> List.map (fun o -> (o, dist m o))
        |> List.filter (fun (_, d) -> d < infinity)
        |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
      in
      List.iteri
        (fun i (o, _) -> if i < k then add_tunnel t price `Intra m o)
        nearest)
    members;
  (* repair: the member subgraph of this domain must be one component *)
  let nodes = List.filter_map (fun m -> index_of t m) members in
  let rec repair () =
    let ids = Graph.component_ids t.graph in
    let comps =
      List.sort_uniq Int.compare (List.map (fun n -> ids.(n)) nodes)
    in
    match comps with
    | [] | [ _ ] -> ()
    | first :: _ ->
        (* cheapest cross pair between component [first] and the rest *)
        let in_first m = ids.(Hashtbl.find t.index m) = first in
        let best = ref None in
        List.iter
          (fun a ->
            if in_first a then
              List.iter
                (fun b ->
                  if not (in_first b) then begin
                    let d = dist a b in
                    match !best with
                    | Some (_, _, bd) when bd <= d -> ()
                    | _ -> if d < infinity then best := Some (a, b, d)
                  end)
                members)
          members;
        (match !best with
        | Some (a, b, _) ->
            add_tunnel t price `Intra a b;
            repair ()
        | None -> () (* domain members mutually unreachable: give up *))
  in
  repair ()

(* --- inter-domain: tunnels along business links, then anchoring --- *)

let closest_cross_pair t price doms_a doms_b =
  (* cheapest member pair with one side in [doms_a], other in [doms_b] *)
  let in_set doms r =
    let d = (Internet.router (Service.env t.service).Forward.inet r).rdomain in
    List.mem d doms
  in
  let best = ref None in
  Array.iter
    (fun a ->
      if in_set doms_a a then
        Array.iter
          (fun b ->
            if in_set doms_b b then begin
              let d = price a b in
              match !best with
              | Some (_, _, bd) when bd <= d -> ()
              | _ -> if d < infinity then best := Some (a, b, d)
            end)
          t.members)
    t.members;
  !best

let build_inter t price anchor =
  let env = Service.env t.service in
  let parts = Service.participants t.service in
  (* policy tunnels: linked participant pairs *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a < b && Internet.relationship env.Forward.inet ~of_:a ~to_:b <> None
          then
            match closest_cross_pair t price [ a ] [ b ] with
            | Some (ra, rb, _) -> add_tunnel t price `Inter_policy ra rb
            | None -> ())
        parts)
    parts;
  (* anchoring: every participant domain must reach the anchor on the
     vN-Bone ("connected, directly or indirectly, to the default
     provider"); a stranded domain bootstraps via anycast and tunnels
     its cheapest member pair into the anchor's component *)
  match anchor with
  | None -> ()
  | Some anchor_dom -> (
      match Service.members_in t.service ~domain:anchor_dom with
      | [] -> () (* the anchor has no presence yet; nothing to anchor to *)
      | anchor_member :: _ ->
          let anchor_node = Hashtbl.find t.index anchor_member in
          let rec anchor_all () =
            let ids = Graph.component_ids t.graph in
            let anchor_comp = ids.(anchor_node) in
            if
              Array.exists
                (fun m -> ids.(Hashtbl.find t.index m) <> anchor_comp)
                t.members
            then begin
              (* cheapest tunnel from any stranded member into the
                 anchor's component; each merge strictly shrinks the
                 number of components, so this terminates *)
              let best = ref None in
              Array.iter
                (fun a ->
                  if ids.(Hashtbl.find t.index a) <> anchor_comp then
                    Array.iter
                      (fun b ->
                        if ids.(Hashtbl.find t.index b) = anchor_comp then begin
                          let d = price a b in
                          match !best with
                          | Some (_, _, bd) when bd <= d -> ()
                          | _ -> if d < infinity then best := Some (a, b, d)
                        end)
                      t.members)
                t.members;
              match !best with
              | Some (a, b, _) ->
                  add_tunnel t price `Inter_bootstrap a b;
                  anchor_all ()
              | None -> () (* underlay cannot reach the anchor: give up *)
            end
          in
          anchor_all ())

let build ?(k = 2) ?(anchored = true) ?(discovery = Linkstate_lsdb) service =
  let members = Array.of_list (Service.members service) in
  let index = Hashtbl.create (Array.length members) in
  Array.iteri (fun i r -> Hashtbl.replace index r i) members;
  let anchor =
    match Service.strategy service with
    | Service.Option2 { default_domain } -> Some default_domain
    | Service.Gia { home_domain; _ } -> Some home_domain
    | Service.Option1 -> (
        match Service.participants service with [] -> None | d :: _ -> Some d)
  in
  let t =
    {
      service;
      members;
      index;
      graph = Graph.create ~n:(Array.length members);
      tunnels = [];
      anchor;
      spt_cache = Hashtbl.create 16;
    }
  in
  let env = Service.env service in
  let price = pricer env in
  let intra d =
    (* the LSDB rule needs the member set, which only link-state
       reveals; distance-vector domains fall back to the anycast walk
       regardless of the requested discovery (footnote 2) *)
    match discovery with
    | Anycast_walk -> build_intra_walk t price d
    | Linkstate_lsdb ->
        if Igp.members_known env.Forward.igps.(d) then build_intra t price k d
        else build_intra_walk t price d
  in
  List.iter intra (Service.participants service);
  build_inter t price (if anchored then anchor else None);
  t

let is_connected t = Graph.is_connected t.graph

let spt t node =
  match Hashtbl.find_opt t.spt_cache node with
  | Some s -> s
  | None ->
      let s = Spt.dijkstra t.graph ~src:node in
      Hashtbl.replace t.spt_cache node s;
      s

let vn_distance t a b =
  match (index_of t a, index_of t b) with
  | Some ia, Some ib -> Spt.distance (spt t ia) ib
  | _ -> infinity

let vn_path t a b =
  match (index_of t a, index_of t b) with
  | Some ia, Some ib ->
      Option.map (List.map (fun n -> t.members.(n))) (Spt.path (spt t ia) ib)
  | _ -> None

let add_manual_tunnel t a b =
  (match (index_of t a, index_of t b) with
  | Some _, Some _ -> ()
  | _ -> invalid_arg "Fabric.add_manual_tunnel: router is not a member");
  if a = b then invalid_arg "Fabric.add_manual_tunnel: same router";
  Hashtbl.reset t.spt_cache;
  add_tunnel t (pricer (Service.env t.service)) `Manual a b

let vn_hop_distance t a b =
  match (index_of t a, index_of t b) with
  | Some ia, Some ib ->
      let level = ref None in
      let seen = Array.make (Array.length t.members) false in
      let q = Queue.create () in
      seen.(ia) <- true;
      Queue.add (ia, 0) q;
      while !level = None && not (Queue.is_empty q) do
        let u, d = Queue.pop q in
        if u = ib then level := Some d
        else
          Graph.iter_neighbors t.graph u (fun v _ ->
              if not seen.(v) then begin
                seen.(v) <- true;
                Queue.add (v, d + 1) q
              end)
      done;
      !level
  | _ -> None

(* --- liveness: probing and re-anchoring after member deaths --- *)

let probe_tunnels t ~alive =
  let dead tn = not (alive tn.from_router) || not (alive tn.to_router) in
  let removed = List.filter dead t.tunnels in
  List.iter
    (fun tn ->
      let ia = Hashtbl.find t.index tn.from_router
      and ib = Hashtbl.find t.index tn.to_router in
      if Graph.has_edge t.graph ia ib then Graph.remove_edge t.graph ia ib)
    removed;
  t.tunnels <- List.filter (fun tn -> not (dead tn)) t.tunnels;
  match removed with
  | [] -> 0
  | _ ->
      Hashtbl.reset t.spt_cache;
      List.length removed

let reanchor t ~alive =
  let live_members = List.filter alive (Array.to_list t.members) in
  let price = pricer (Service.env t.service) in
  let added = ref 0 in
  (match live_members with
  | [] -> ()
  | first_live :: _ ->
      (* re-anchor to the default provider's surviving presence; if the
         provider lost all members, the first survivor's component
         stands in so the living vN-Bone still becomes one piece *)
      let anchor_member =
        match t.anchor with
        | Some dom -> (
            match List.filter alive (Service.members_in t.service ~domain:dom) with
            | m :: _ -> m
            | [] -> first_live)
        | None -> first_live
      in
      let anchor_node = Hashtbl.find t.index anchor_member in
      let rec go () =
        let ids = Graph.component_ids t.graph in
        let anchor_comp = ids.(anchor_node) in
        let stranded =
          List.filter
            (fun m -> ids.(Hashtbl.find t.index m) <> anchor_comp)
            live_members
        in
        match stranded with
        | [] -> ()
        | _ -> (
            (* cheapest live pair bridging into the anchor's component;
               each merge shrinks the component count, so this
               terminates *)
            let best = ref None in
            List.iter
              (fun a ->
                List.iter
                  (fun b ->
                    if ids.(Hashtbl.find t.index b) = anchor_comp then begin
                      let d = price a b in
                      match !best with
                      | Some (_, _, bd) when bd <= d -> ()
                      | _ -> if d < infinity then best := Some (a, b, d)
                    end)
                  live_members)
              stranded;
            match !best with
            | Some (a, b, _) ->
                add_tunnel t price `Inter_bootstrap a b;
                incr added;
                go ()
            | None -> () (* survivors mutually unreachable: give up *))
      in
      go ());
  if !added > 0 then Hashtbl.reset t.spt_cache;
  !added

let mean_vn_stretch t =
  let n = Array.length t.members in
  let price = pricer (Service.env t.service) in
  let acc = ref 0.0 and count = ref 0 in
  for i = 0 to n - 1 do
    let spt_i = spt t i in
    for j = i + 1 to n - 1 do
      let vn = Spt.distance spt_i j in
      let direct = price t.members.(i) t.members.(j) in
      if vn < infinity && direct > 0.0 && direct < infinity then begin
        acc := !acc +. (vn /. direct);
        incr count
      end
    done
  done;
  if !count = 0 then nan else !acc /. float_of_int !count
