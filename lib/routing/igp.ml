module Prefix = Netcore.Prefix

type flavor = Linkstate_igp | Distvec_igp

type state = Ls of Linkstate.t | Dv of Distvec.t

type t = {
  state : state;
  dom : int;
  live_groups : (Prefix.t, int ref) Hashtbl.t;  (* group -> member count *)
}

type anycast_decision = {
  deliver : bool;
  next_hop : int;
  metric : float;
  member : int option;
}

let compute inet ~domain ~flavor =
  let state =
    match flavor with
    | Linkstate_igp -> Ls (Linkstate.compute inet ~domain)
    | Distvec_igp ->
        let dv = Distvec.create inet ~domain in
        ignore (Distvec.converge dv);
        Dv dv
  in
  { state; dom = domain; live_groups = Hashtbl.create 4 }

let flavor t = match t.state with Ls _ -> Linkstate_igp | Dv _ -> Distvec_igp
let members_known t = match t.state with Ls _ -> true | Dv _ -> false

let distance t ~src ~dst =
  match t.state with
  | Ls ls -> Linkstate.distance ls ~src ~dst
  | Dv dv -> Distvec.distance dv ~src ~dst

let next_hop t ~src ~dst =
  match t.state with
  | Ls ls -> Linkstate.next_hop ls ~src ~dst
  | Dv dv -> Distvec.next_hop dv ~src ~dst

let bump t group delta =
  let cell =
    match Hashtbl.find_opt t.live_groups group with
    | Some c -> c
    | None ->
        let c = ref 0 in
        Hashtbl.replace t.live_groups group c;
        c
  in
  cell := !cell + delta;
  if !cell <= 0 then Hashtbl.remove t.live_groups group

let advertise_anycast t ~group ~member =
  (match t.state with
  | Ls ls ->
      (* Linkstate dedups members itself; only count fresh ones *)
      if not (List.mem member (Linkstate.anycast_members ls ~group)) then
        bump t group 1;
      Linkstate.advertise_anycast ls ~group ~member
  | Dv dv ->
      bump t group 1;
      Distvec.advertise_anycast dv ~group ~member;
      ignore (Distvec.converge dv))

let withdraw_anycast t ~group ~member =
  (match t.state with
  | Ls ls ->
      if List.mem member (Linkstate.anycast_members ls ~group) then
        bump t group (-1);
      Linkstate.withdraw_anycast ls ~group ~member
  | Dv dv ->
      bump t group (-1);
      Distvec.withdraw_anycast dv ~group ~member;
      ignore (Distvec.converge dv))

let groups t =
  Hashtbl.fold (fun g _ acc -> g :: acc) t.live_groups []
  |> List.sort Prefix.compare

let anycast_route t ~src ~group =
  match t.state with
  | Ls ls -> (
      match Linkstate.anycast_route ls ~src ~group with
      | Some Linkstate.Deliver ->
          Some { deliver = true; next_hop = src; metric = 0.0; member = Some src }
      | Some (Linkstate.Toward { member; next_hop; metric }) ->
          Some { deliver = false; next_hop; metric; member = Some member }
      | None -> None)
  | Dv dv -> (
      match Distvec.anycast_route dv ~src ~group with
      | Some Distvec.Deliver ->
          Some { deliver = true; next_hop = src; metric = 0.0; member = Some src }
      | Some (Distvec.Toward { next_hop; metric }) ->
          Some { deliver = false; next_hop; metric; member = None }
      | None -> None)

let anycast_members t ~group =
  match t.state with
  | Ls ls -> Some (Linkstate.anycast_members ls ~group)
  | Dv _ -> None
