module Internet = Topology.Internet
module Graph = Topology.Graph
module Prefix = Netcore.Prefix

type anycast_decision =
  | Deliver
  | Toward of { next_hop : int; metric : float }

let infinity_metric = 64.0

(* Destinations are domain routers (indices 0..n-1) and anycast groups
   (indices n..n+g-1, registered on first advertisement). Vectors are
   dense matrices local-router x destination. *)
type t = {
  inet : Internet.t;
  dom : int;
  router_ids : int array;
  neighbors : (int * float) list array;  (* local idx -> (local idx, w) *)
  mutable group_of : (Prefix.t * bool array) list;
      (* group -> membership flags by local idx; order = column order *)
  mutable dist : float array array;  (* [local][dest-column] *)
  mutable nh : int array array;  (* local idx of next hop, -1 = none/self *)
}

let num_routers t = Array.length t.router_ids
let num_groups t = List.length t.group_of
let columns t = num_routers t + num_groups t

let in_domain t rid =
  rid >= 0
  && rid < Internet.num_routers t.inet
  && (Internet.router t.inet rid).rdomain = t.dom

let local_index t rid = (Internet.router t.inet rid).rindex

let resize_matrices t =
  let n = num_routers t in
  let cols = columns t in
  let dist = Array.make_matrix n cols infinity_metric in
  let nh = Array.make_matrix n cols (-1) in
  let old_cols = Array.length t.dist.(0) in
  for i = 0 to n - 1 do
    Array.blit t.dist.(i) 0 dist.(i) 0 (min cols old_cols);
    Array.blit t.nh.(i) 0 nh.(i) 0 (min cols old_cols)
  done;
  t.dist <- dist;
  t.nh <- nh

let create inet ~domain =
  let d = Internet.domain inet domain in
  let n = Array.length d.router_ids in
  let neighbors =
    Array.map
      (fun rid ->
        Graph.neighbors inet.graph rid
        |> List.filter_map (fun (nb, w) ->
               if (Internet.router inet nb).rdomain = domain then
                 Some ((Internet.router inet nb).rindex, w)
               else None))
      d.router_ids
  in
  let dist = Array.make_matrix n n infinity_metric in
  let nh = Array.make_matrix n n (-1) in
  for i = 0 to n - 1 do
    dist.(i).(i) <- 0.0
  done;
  { inet; dom = domain; router_ids = d.router_ids; neighbors; group_of = []; dist; nh }

let group_column t group =
  let rec find i = function
    | [] -> None
    | (g, _) :: rest -> if Prefix.equal g group then Some i else find (i + 1) rest
  in
  Option.map (fun i -> num_routers t + i) (find 0 t.group_of)

let membership t group =
  List.find_map
    (fun (g, flags) -> if Prefix.equal g group then Some flags else None)
    t.group_of

let advertise_anycast t ~group ~member =
  if not (in_domain t member) then
    invalid_arg "Distvec.advertise_anycast: router not in domain";
  let li = local_index t member in
  match membership t group with
  | Some flags -> flags.(li) <- true
  | None ->
      let flags = Array.make (num_routers t) false in
      flags.(li) <- true;
      t.group_of <- t.group_of @ [ (group, flags) ];
      resize_matrices t

let withdraw_anycast t ~group ~member =
  match membership t group with
  | None -> ()
  | Some flags ->
      if in_domain t member then begin
        let li = local_index t member in
        flags.(li) <- false;
        (* the member no longer originates distance 0: reset its own
           entry so the withdrawal can propagate *)
        let col =
          match group_column t group with Some c -> c | None -> assert false
        in
        t.dist.(li).(col) <- infinity_metric;
        t.nh.(li).(col) <- -1
      end

(* Refresh locally-originated entries (self route, member-of-group
   zero routes) before an exchange round. *)
let refresh_origins t =
  let n = num_routers t in
  for i = 0 to n - 1 do
    t.dist.(i).(i) <- 0.0;
    t.nh.(i).(i) <- -1
  done;
  List.iteri
    (fun gi (_, flags) ->
      let col = n + gi in
      for i = 0 to n - 1 do
        if flags.(i) then begin
          t.dist.(i).(col) <- 0.0;
          t.nh.(i).(col) <- -1
        end
      done)
    t.group_of

let step t =
  refresh_origins t;
  let n = num_routers t in
  let cols = columns t in
  let changed = ref false in
  (* snapshot the vectors each neighbor will announce this round *)
  let snapshot_dist = Array.map Array.copy t.dist in
  let snapshot_nh = Array.map Array.copy t.nh in
  for i = 0 to n - 1 do
    List.iter
      (fun (j, w) ->
        for c = 0 to cols - 1 do
          (* split horizon: j does not announce routes whose next hop
             is i back to i *)
          if snapshot_nh.(j).(c) <> i then begin
            let candidate = snapshot_dist.(j).(c) +. w in
            let candidate =
              if candidate > infinity_metric then infinity_metric else candidate
            in
            let current = t.dist.(i).(c) in
            let better =
              candidate < current
              (* route through the current next hop must be refreshed
                 even if worse (topology/membership may have changed) *)
              || (t.nh.(i).(c) = j && not (Float.equal candidate current))
            in
            if better && candidate < infinity_metric then begin
              if
                (not (Float.equal t.dist.(i).(c) candidate))
                || t.nh.(i).(c) <> j
              then changed := true;
              t.dist.(i).(c) <- candidate;
              t.nh.(i).(c) <- j
            end
            else if t.nh.(i).(c) = j && candidate >= infinity_metric then begin
              (* route through j evaporated *)
              if t.dist.(i).(c) < infinity_metric then changed := true;
              t.dist.(i).(c) <- infinity_metric;
              t.nh.(i).(c) <- -1
            end
          end
        done)
      t.neighbors.(i)
  done;
  !changed

let converge t =
  let rec go rounds =
    if rounds > 4 * (num_routers t + 2) * (columns t + 2) then rounds
    else if step t then go (rounds + 1)
    else rounds
  in
  go 0

let distance t ~src ~dst =
  if not (in_domain t src && in_domain t dst) then infinity
  else
    let d = t.dist.(local_index t src).(local_index t dst) in
    if d >= infinity_metric then infinity else d

let next_hop t ~src ~dst =
  if not (in_domain t src && in_domain t dst) then None
  else
    let nh = t.nh.(local_index t src).(local_index t dst) in
    if nh < 0 then None else Some t.router_ids.(nh)

let anycast_distance t ~src ~group =
  if not (in_domain t src) then infinity
  else
    match group_column t group with
    | None -> infinity
    | Some col ->
        let d = t.dist.(local_index t src).(col) in
        if d >= infinity_metric then infinity else d

let anycast_route t ~src ~group =
  if not (in_domain t src) then None
  else
    match (group_column t group, membership t group) with
    | None, _ | _, None -> None
    | Some col, Some flags ->
        let li = local_index t src in
        if flags.(li) then Some Deliver
        else begin
          let d = t.dist.(li).(col) in
          let nh = t.nh.(li).(col) in
          if d >= infinity_metric || nh < 0 then None
          else Some (Toward { next_hop = t.router_ids.(nh); metric = d })
        end
