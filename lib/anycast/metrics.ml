module Internet = Topology.Internet
module Forward = Simcore.Forward
module Packet = Netcore.Packet

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentile p = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) rank))

(* Every query prices its walks with memoised forwarding trees, one
   toward the anycast address and one toward each member, entered at
   the endhost's access router with a fresh packet's TTL. The trees
   hold one env snapshot, so each call builds its own and drops them. *)

let anycast_tree service =
  Forward.toward (Service.env service) (Service.address service)

let member_trees service =
  let env = Service.env service in
  List.map
    (fun m -> (m, Forward.toward env (Internet.router env.Forward.inet m).raddr))
    (Service.members service)

let walk service tree ~endhost =
  let inet = (Service.env service).Forward.inet in
  Forward.reach tree
    ~entry:(Internet.endhost inet endhost).Internet.access_router
    ~ttl:Packet.default_ttl

let actual_in service anycast ~endhost =
  let w = walk service anycast ~endhost in
  match w.Forward.verdict with
  | Forward.Router_accepted r -> Some (r, w.Forward.metric)
  | Forward.Endhost_accepted _ | Forward.Dropped _ -> None

let best_in service members ~endhost =
  List.fold_left
    (fun acc (m, tree) ->
      let d = (walk service tree ~endhost).Forward.metric in
      match acc with
      | Some (_, bd) when bd <= d -> acc
      | _ -> if d < infinity then Some (m, d) else acc)
    None members

let stretch_in service anycast members ~endhost =
  match actual_in service anycast ~endhost with
  | None -> None
  | Some (_, got) -> (
      match best_in service members ~endhost with
      | None -> None
      | Some (_, best) ->
          if Float.equal best 0.0 then Some 1.0 else Some (got /. best))

let best_member service ~endhost =
  best_in service (member_trees service) ~endhost

let actual service ~endhost = actual_in service (anycast_tree service) ~endhost

let stretch service ~endhost =
  stretch_in service (anycast_tree service) (member_trees service) ~endhost

let all_endhosts service =
  let inet = (Service.env service).Forward.inet in
  List.init (Array.length inet.Internet.endhosts) Fun.id

let stretches service =
  let anycast = anycast_tree service and members = member_trees service in
  List.filter_map
    (fun h -> stretch_in service anycast members ~endhost:h)
    (all_endhosts service)

let mean_stretch service = mean (stretches service)

(* the members that anycast delivers each endhost's probe to, with the
   path metric, in endhost order; undelivered endhosts are left out *)
let deliveries service =
  let anycast = anycast_tree service in
  List.filter_map
    (fun h -> actual_in service anycast ~endhost:h)
    (all_endhosts service)

let delivery_rate service =
  let ok = List.length (deliveries service) in
  float_of_int ok
  /. float_of_int (max 1 (List.length (all_endhosts service)))

let termination_share service ~domain =
  let inet = (Service.env service).Forward.inet in
  match deliveries service with
  | [] -> 0.0
  | delivered ->
      let inside =
        List.filter
          (fun (m, _) -> (Internet.router inet m).rdomain = domain)
          delivered
      in
      float_of_int (List.length inside) /. float_of_int (List.length delivered)
