(* Finite-capacity link queues (DESIGN.md §13). One FIFO/droptail
   byte queue per registered directed link, drained at a fixed rate
   per tick. Everything is deterministic: admission depends only on
   the queue's current occupancy, and service happens in [tick]. *)

type verdict = Admitted | Rejected_full | Rejected_shed

type q = {
  mutable occ : int; (* queued bytes *)
  mutable hw : int; (* high-water of [occ] *)
  mutable admitted : int; (* packets admitted *)
  mutable drops_full : int; (* droptail losses *)
  mutable drops_shed : int; (* class-precedence sheds *)
  mutable delay_bytes : int; (* sum over admitted packets of the bytes
                                queued ahead of them (delay = /rate) *)
}

let fresh_q () =
  {
    occ = 0;
    hw = 0;
    admitted = 0;
    drops_full = 0;
    drops_shed = 0;
    delay_bytes = 0;
  }

type t = {
  routers : int;
  rate : int; (* bytes drained per tick, per link *)
  depth : int; (* max queued bytes per link *)
  reserve : int; (* tail bytes of [depth] reserved for control *)
  slots : q option array; (* dense [src * routers + dst] index *)
  qs : q array; (* registration order, for deterministic service *)
}

let create ?(control_reserve = 0) ~routers ~rate ~depth links =
  if rate <= 0 then invalid_arg "Linkq.create: rate must be positive";
  if depth <= 0 then invalid_arg "Linkq.create: depth must be positive";
  if control_reserve < 0 || control_reserve >= depth then
    invalid_arg "Linkq.create: control_reserve must be in [0, depth)";
  let slots = Array.make (routers * routers) None in
  let qs = ref [] in
  let register src dst =
    if src < 0 || src >= routers || dst < 0 || dst >= routers then
      invalid_arg "Linkq.create: link endpoint out of range";
    let k = (src * routers) + dst in
    match slots.(k) with
    | Some _ -> ()
    | None ->
        let q = fresh_q () in
        slots.(k) <- Some q;
        qs := q :: !qs
  in
  List.iter
    (fun (a, b) ->
      register a b;
      register b a)
    links;
  {
    routers;
    rate;
    depth;
    reserve = control_reserve;
    slots;
    qs = Array.of_list (List.rev !qs);
  }

let of_internet ?control_reserve ~rate ~depth inet =
  let routers = Topology.Internet.num_routers inet in
  let links =
    List.map
      (fun (a, b, _w) -> (a, b))
      (Topology.Graph.edges inet.Topology.Internet.graph)
  in
  create ?control_reserve ~routers ~rate ~depth links

(* Hot path (reachable from Pump.inject through the Hop kernel): no
   allocation — the dense array probe returns an existing [Some] cell
   and every verdict is a constant constructor. *)
let admit t ~src ~dst ~cls ~bytes =
  match t.slots.((src * t.routers) + dst) with
  | None -> Admitted (* unregistered link: infinite pipe, as before *)
  | Some q ->
      let limit =
        if cls = Telemetry.Control then t.depth else t.depth - t.reserve
      in
      if q.occ + bytes <= limit then begin
        q.admitted <- q.admitted + 1;
        q.delay_bytes <- q.delay_bytes + q.occ;
        q.occ <- q.occ + bytes;
        if q.occ > q.hw then q.hw <- q.occ;
        Admitted
      end
      else if q.occ + bytes <= t.depth then begin
        (* only the control reserve refused it: a precedence shed.
           Control itself never lands here ([limit = depth]), so
           control is never shed before data by construction. *)
        q.drops_shed <- q.drops_shed + 1;
        Rejected_shed
      end
      else begin
        q.drops_full <- q.drops_full + 1;
        Rejected_full
      end

let tick t =
  Array.iter
    (fun q -> if q.occ > 0 then q.occ <- (if q.occ > t.rate then q.occ - t.rate else 0))
    t.qs

type stats = {
  links : int;
  admitted : int;
  drops_full : int;
  drops_shed : int;
  queued : int; (* bytes queued right now, over all links *)
  high_water : int; (* max bytes any one link ever queued *)
  mean_delay : float; (* mean queueing delay of admitted packets, ticks *)
}

let stats t =
  let admitted = ref 0
  and drops_full = ref 0
  and drops_shed = ref 0
  and queued = ref 0
  and hw = ref 0
  and delay_bytes = ref 0 in
  Array.iter
    (fun (q : q) ->
      admitted := !admitted + q.admitted;
      drops_full := !drops_full + q.drops_full;
      drops_shed := !drops_shed + q.drops_shed;
      queued := !queued + q.occ;
      if q.hw > !hw then hw := q.hw;
      delay_bytes := !delay_bytes + q.delay_bytes)
    t.qs;
  {
    links = Array.length t.qs;
    admitted = !admitted;
    drops_full = !drops_full;
    drops_shed = !drops_shed;
    queued = !queued;
    high_water = !hw;
    mean_delay =
      (if !admitted = 0 then 0.0
       else
         float_of_int !delay_bytes
         /. float_of_int !admitted /. float_of_int t.rate);
  }

let queued t ~src ~dst =
  match t.slots.((src * t.routers) + dst) with None -> 0 | Some q -> q.occ
