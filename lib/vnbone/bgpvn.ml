module Internet = Topology.Internet
module Graph = Topology.Graph
module Forward = Simcore.Forward
module Service = Anycast.Service
module Prefix = Netcore.Prefix

type dest = Vn_domain of int | External of Prefix.t

let compare_dest a b =
  match (a, b) with
  | Vn_domain x, Vn_domain y -> Int.compare x y
  | Vn_domain _, External _ -> -1
  | External _, Vn_domain _ -> 1
  | External p, External q -> Prefix.compare p q

type route = {
  rdest : dest;
  cost : float;
  next : int option;
  egress : int;
  vn_hops : int;
}

type t = {
  fabric : Fabric.t;
  alpha : float;
  tables : (dest, route) Hashtbl.t array;  (* per fabric node *)
  mutable external_origins : (int * Prefix.t * float) list;
      (* fabric node, prefix, exit cost *)
  mutable alive : int -> bool;  (* member router id -> process is up *)
}

let node_of t member =
  match Fabric.index_of t.fabric member with
  | Some n -> n
  | None -> invalid_arg "Bgpvn: router is not a vN-Bone member"

let create ?(alpha = 0.5) fabric =
  let n = Array.length (Fabric.members fabric) in
  {
    fabric;
    alpha;
    tables = Array.init n (fun _ -> Hashtbl.create 8);
    external_origins = [];
    alive = (fun _ -> true);
  }

let originate_external t ~member ~prefix ~exit_cost =
  if exit_cost < 0.0 then invalid_arg "Bgpvn.originate_external: negative cost";
  let node = node_of t member in
  let entry = (node, prefix, exit_cost) in
  if not (List.mem entry t.external_origins) then
    t.external_origins <- entry :: t.external_origins

(* deterministic preference: cheaper cost, then lower egress id *)
let better a b =
  a.cost < b.cost || (Float.equal a.cost b.cost && a.egress < b.egress)

let install t node r =
  match Hashtbl.find_opt t.tables.(node) r.rdest with
  | Some cur when not (better r cur) -> false
  | _ ->
      Hashtbl.replace t.tables.(node) r.rdest r;
      true

let step t =
  let members = Fabric.members t.fabric in
  let inet = (Service.env (Fabric.service t.fabric)).Forward.inet in
  let changed = ref false in
  (* 1. originations (dead members originate nothing) *)
  Array.iteri
    (fun node member ->
      if t.alive member then begin
        let dom = (Internet.router inet member).Internet.rdomain in
        let r =
          {
            rdest = Vn_domain dom;
            cost = 0.0;
            next = None;
            egress = member;
            vn_hops = 0;
          }
        in
        if install t node r then changed := true
      end)
    members;
  List.iter
    (fun (node, prefix, exit_cost) ->
      if t.alive members.(node) then begin
        let r =
          {
            rdest = External prefix;
            cost = exit_cost;
            next = None;
            egress = members.(node);
            vn_hops = 0;
          }
        in
        if install t node r then changed := true
      end)
    t.external_origins;
  (* 2. neighbor exchange from a snapshot *)
  let snapshot = Array.map Hashtbl.copy t.tables in
  let g = Fabric.graph t.fabric in
  Array.iteri
    (fun node member ->
      if t.alive member then
        Graph.iter_neighbors g node (fun nb w ->
            if t.alive members.(nb) then
              Hashtbl.iter
                (fun _dest (r : route) ->
                  let hop_cost =
                    match r.rdest with
                    | Vn_domain _ -> w (* aggregates ride the tunnel metric *)
                    | External _ -> t.alpha (* proxy routes pay the policy weight *)
                  in
                  let candidate =
                    {
                      r with
                      cost = r.cost +. hop_cost;
                      next = Some members.(nb);
                      vn_hops = r.vn_hops + 1;
                    }
                  in
                  if install t node candidate then changed := true)
                snapshot.(nb)))
    members;
  !changed

let converge t =
  let n = Array.length (Fabric.members t.fabric) in
  let dests = n + List.length t.external_origins in
  let limit = (4 * (n + 2) * (dests + 2)) + 16 in
  let rec go rounds =
    if rounds >= limit then rounds else if step t then go (rounds + 1) else rounds
  in
  go 0

(* Dead speakers lose everything; live speakers must also shed every
   route that leans on dead state, directly or transitively: a
   distance-vector table converges to the true optimum from above, so
   once no remaining entry underestimates, plain relaxation
   ({!converge}) finishes the repair. *)
let fail_members t ~alive =
  t.alive <- alive;
  let members = Fabric.members t.fabric in
  let g = Fabric.graph t.fabric in
  Array.iteri
    (fun node member -> if not (alive member) then Hashtbl.reset t.tables.(node))
    members;
  let supported node (r : route) =
    match r.next with
    | None -> alive r.egress
    | Some m -> (
        alive m && alive r.egress
        &&
        match Fabric.index_of t.fabric m with
        | None -> false
        | Some nb -> (
            match Graph.edge_weight g node nb with
            | None -> false (* the tunnel is gone *)
            | Some w -> (
                match Hashtbl.find_opt t.tables.(nb) r.rdest with
                | None -> false
                | Some r' ->
                    (* the next hop must still justify our cost: an
                       underestimate would anchor the table below the
                       reachable optimum forever *)
                    let hop =
                      match r.rdest with Vn_domain _ -> w | External _ -> t.alpha
                    in
                    r'.cost +. hop <= r.cost)))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun node member ->
        if alive member then begin
          let doomed =
            Hashtbl.fold
              (fun dest r acc -> if supported node r then acc else dest :: acc)
              t.tables.(node) []
            |> List.sort compare_dest
          in
          match doomed with
          | [] -> ()
          | _ ->
              changed := true;
              List.iter (fun dest -> Hashtbl.remove t.tables.(node) dest) doomed
        end)
      members
  done

let route t ~at dest =
  match Fabric.index_of t.fabric at with
  | None -> None
  | Some node -> Hashtbl.find_opt t.tables.(node) dest

let routes t ~at =
  match Fabric.index_of t.fabric at with
  | None -> []
  | Some node ->
      Hashtbl.fold (fun _ r acc -> r :: acc) t.tables.(node) []
      (* destinations are the table keys, so they are unique and an
         order on [rdest] alone is total over one table *)
      |> List.sort (fun a b -> compare_dest a.rdest b.rdest)

let table_size t ~at =
  match Fabric.index_of t.fabric at with
  | None -> 0
  | Some node -> Hashtbl.length t.tables.(node)
