module Internet = Topology.Internet
module Prefix = Netcore.Prefix

type anycast_decision =
  | Deliver
  | Toward of { member : int; next_hop : int; metric : float }

type t = {
  inet : Internet.t;
  dom : int;
  router_ids : int array;  (* global ids, domain order *)
  spts : Spt.t array;  (* indexed like router_ids, filtered to the domain *)
  members : (Prefix.t, int list ref) Hashtbl.t;  (* group -> global ids *)
}

let routers t = Array.to_list t.router_ids

let in_domain t rid =
  rid >= 0
  && rid < Internet.num_routers t.inet
  && (Internet.router t.inet rid).rdomain = t.dom

let local_index t rid =
  (* router_ids are contiguous in construction order; rindex is the
     offset *)
  (Internet.router t.inet rid).rindex

let compute inet ~domain =
  let d = Internet.domain inet domain in
  let allow rid = (Internet.router inet rid).rdomain = domain in
  let spts =
    Array.map (fun rid -> Spt.dijkstra_filtered inet.graph ~src:rid ~allow) d.router_ids
  in
  {
    inet;
    dom = domain;
    router_ids = d.router_ids;
    spts;
    members = Hashtbl.create 4;
  }

let advertise_anycast t ~group ~member =
  if not (in_domain t member) then
    invalid_arg "Linkstate.advertise_anycast: router not in domain";
  let cell =
    match Hashtbl.find_opt t.members group with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.replace t.members group c;
        c
  in
  if not (List.mem member !cell) then cell := member :: !cell

let withdraw_anycast t ~group ~member =
  match Hashtbl.find_opt t.members group with
  | None -> ()
  | Some c ->
      c := List.filter (fun m -> m <> member) !c;
      if !c = [] then Hashtbl.remove t.members group

let distance t ~src ~dst =
  if not (in_domain t src && in_domain t dst) then infinity
  else Spt.distance t.spts.(local_index t src) dst

let next_hop t ~src ~dst =
  if not (in_domain t src && in_domain t dst) then None
  else Spt.next_hop t.spts.(local_index t src) dst

let anycast_members t ~group =
  match Hashtbl.find_opt t.members group with
  | None -> []
  | Some c -> List.sort Int.compare !c

let groups t =
  Hashtbl.fold (fun g _ acc -> g :: acc) t.members []
  |> List.sort Prefix.compare

let anycast_route t ~src ~group =
  if not (in_domain t src) then None
  else
    match anycast_members t ~group with
    | [] -> None
    | members ->
        if List.mem src members then Some Deliver
        else begin
          let spt = t.spts.(local_index t src) in
          let best =
            List.fold_left
              (fun acc m ->
                let d = Spt.distance spt m in
                match acc with
                | Some (_, bd) when bd <= d -> acc
                | _ -> if d < infinity then Some (m, d) else acc)
              None members
          in
          match best with
          | None -> None
          | Some (m, d) -> (
              match Spt.next_hop spt m with
              | Some nh -> Some (Toward { member = m; next_hop = nh; metric = d })
              | None -> None)
        end

let anycast_route_pseudo_node t ~src ~group =
  if not (in_domain t src) then None
  else
    match anycast_members t ~group with
    | [] -> None
    | members ->
        if List.mem src members then Some Deliver
        else begin
          (* materialize the pseudo-node: copy the domain subgraph,
             append one node, hang it off every member with an equal
             high cost, and run SPF from [src] *)
          let n = Topology.Graph.n t.inet.Internet.graph in
          let g = Topology.Graph.create ~n:(n + 1) in
          Array.iter
            (fun rid ->
              Topology.Graph.iter_neighbors t.inet.Internet.graph rid
                (fun nb w ->
                  if
                    rid < nb
                    && (Internet.router t.inet nb).Internet.rdomain = t.dom
                  then Topology.Graph.add_edge g rid nb w))
            t.router_ids;
          let high_cost = 1.0e6 in
          List.iter
            (fun m -> Topology.Graph.add_edge g m n high_cost)
            members;
          let allow v =
            v = n || (Internet.router t.inet v).Internet.rdomain = t.dom
          in
          let spt = Spt.dijkstra_filtered g ~src ~allow in
          match Spt.path spt n with
          | None -> None
          | Some nodes -> (
              (* the hop before the pseudo-node is the chosen member *)
              match List.rev nodes with
              | _pseudo :: member :: _ -> (
                  let metric = Spt.distance spt n -. high_cost in
                  match Spt.next_hop spt n with
                  | Some nh when nh <> n ->
                      Some (Toward { member; next_hop = nh; metric })
                  | _ ->
                      (* src is adjacent to the pseudo-node only when it
                         is a member, handled above; next hop toward the
                         pseudo-node is the first real hop otherwise *)
                      Some (Toward { member; next_hop = member; metric }))
              | _ -> None)
  end

let flood_rounds t ~origin =
  if not (in_domain t origin) then
    invalid_arg "Linkstate.flood_rounds: router not in domain";
  let allow rid = (Internet.router t.inet rid).rdomain = t.dom in
  Spt.eccentricity t.inet.graph ~src:origin ~allow
