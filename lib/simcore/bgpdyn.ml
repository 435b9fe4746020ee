module Internet = Topology.Internet
module Relationship = Topology.Relationship
module Bgp = Interdomain.Bgp
module Prefix = Netcore.Prefix

type stats = {
  updates : int;
  best_changes : int;
  last_change : float;
  keepalives : int;
  resets : int;
  shed_retries : int;
}

(* a candidate route at a domain *)
type cand = { path : int list; pref : int }

type session = {
  peer : int;
  role_of_peer : Relationship.t;
  delay : float;  (* propagation latency of this session *)
  mutable advertised : (Prefix.t * int list) list;
      (* what we last announced to this peer *)
  mutable pending : bool;  (* a flush is scheduled *)
  mutable next_allowed : float;  (* MRAI gate *)
  mutable up : bool;  (* session established (this end's view) *)
  mutable hold_h : Engine.handle option;  (* armed hold timer *)
}

type t = {
  inet : Internet.t;
  config : Bgp.config;
  mrai : float;
  link_delay : float;
  faults : Faults.t option;
  origins : (int, Prefix.t list ref) Hashtbl.t;  (* domain -> originated *)
  rib_in : (int * int * Prefix.t, cand) Hashtbl.t;  (* (domain, peer, prefix) *)
  best : (int * Prefix.t, cand) Hashtbl.t;  (* (domain, prefix) *)
  sessions : session list array;  (* per domain *)
  touched : (int * Prefix.t, unit) Hashtbl.t array;
      (* per domain: prefixes whose export state may have changed,
         keyed by (peer, prefix) — flushed by the MRAI timer *)
  mutable timers_on : bool;
  mutable timers_until : float;  (* keepalives stop here; later holds ignored *)
  mutable hold : float;
  mutable updates : int;
  mutable best_changes : int;
  mutable last_change : float;
  mutable keepalives : int;
  mutable resets : int;
  mutable shed_retries : int;
}

let origin_pref = 4

let alive t d =
  match t.faults with None -> true | Some f -> Faults.node_up f d

let better a b =
  if a.pref <> b.pref then a.pref > b.pref
  else
    let la = List.length a.path and lb = List.length b.path in
    if la <> lb then la < lb else a.path < b.path

let learned_role c =
  if c.pref >= origin_pref then Relationship.Customer
  else if c.pref = Relationship.(local_preference Customer) then Relationship.Customer
  else if c.pref = Relationship.(local_preference Peer) then Relationship.Peer
  else Relationship.Provider

(* the route [d] would export to [s], if any *)
let exportable t d (s : session) prefix =
  match Hashtbl.find_opt t.best (d, prefix) with
  | None -> None
  | Some c ->
      (* the export target's role, seen from the exporter [d], is
         exactly the session's role_of_peer *)
      if
        Relationship.export_allowed ~learned_from:(learned_role c)
          ~to_:s.role_of_peer
        && not (List.mem s.peer c.path)
        && t.config.Bgp.propagate s.peer prefix
      then Some c.path
      else None

(* hand a message to the fabric (or straight to the engine when no
   faults are configured); false = the transport visibly failed.
   A [Shed] verdict is overload, not failure: the channel is alive and
   the fabric just refused this window's budget, so instead of a
   session reset we re-post after an exponential backoff (doubling
   from one session delay), giving up — and only then treating it as a
   transport failure — after [max_shed_retries] refusals. *)
let max_shed_retries = 8

(* [still_wanted] is re-checked before every re-post: an update retry
   carries the advertisement captured at flush time, and replaying it
   after a newer flush advertised something else would let the stale
   path land second and overwrite the fresh one. [on_give_up] runs
   when a retry exhausts the budget (or the retried transport visibly
   fails) — the async analogue of [post] returning [false] to its
   original caller, which by then has long returned. *)
let rec post ?(prio = Faults.Bulk) ?(attempt = 0)
    ?(still_wanted = fun () -> true) ?on_give_up t engine d (s : session)
    action =
  match t.faults with
  | None ->
      Engine.schedule engine ~delay:s.delay action;
      true
  | Some f -> (
      match
        Faults.send ~prio f engine ~src:d ~dst:s.peer ~delay:s.delay action
      with
      | Faults.Sent -> true
      | Faults.Shed ->
          if attempt >= max_shed_retries then false
          else begin
            t.shed_retries <- t.shed_retries + 1;
            let backoff = s.delay *. Float.of_int (1 lsl attempt) in
            Engine.schedule engine ~delay:backoff (fun engine ->
                if alive t d && s.up && still_wanted () then
                  if
                    not
                      (post ~prio ~attempt:(attempt + 1) ~still_wanted
                         ?on_give_up t engine d s action)
                  then
                    match on_give_up with
                    | Some give_up -> give_up engine
                    | None -> ());
            true
          end
      | Faults.Lost | Faults.Cut | Faults.Dead -> false)

let rec recompute_best t engine d prefix =
  (* candidates: own origination + rib_in *)
  let own =
    match Hashtbl.find_opt t.origins d with
    | Some ps when List.exists (Prefix.equal prefix) !ps ->
        Some { path = [ d ]; pref = origin_pref }
    | _ -> None
  in
  let cands =
    List.fold_left
      (fun acc (s : session) ->
        match Hashtbl.find_opt t.rib_in (d, s.peer, prefix) with
        | Some c when not (List.mem d c.path) ->
            { path = d :: c.path; pref = Relationship.local_preference s.role_of_peer }
            :: acc
        | _ -> acc)
      (match own with Some c -> [ c ] | None -> [])
      t.sessions.(d)
  in
  let new_best =
    List.fold_left
      (fun acc c ->
        match acc with Some b when not (better c b) -> acc | _ -> Some c)
      None cands
  in
  let old_best = Hashtbl.find_opt t.best (d, prefix) in
  let cand_equal a b =
    a.pref = b.pref && List.equal Int.equal a.path b.path
  in
  if not (Option.equal cand_equal new_best old_best) then begin
    (match new_best with
    | Some c -> Hashtbl.replace t.best (d, prefix) c
    | None -> Hashtbl.remove t.best (d, prefix));
    t.best_changes <- t.best_changes + 1;
    t.last_change <- Engine.now engine;
    (* export state toward every session may have changed *)
    List.iter (fun s -> mark_touched t engine d s prefix) t.sessions.(d)
  end

and mark_touched t engine d (s : session) prefix =
  Hashtbl.replace t.touched.(d) (s.peer, prefix) ();
  if not s.pending then begin
    s.pending <- true;
    let now = Engine.now engine in
    let at = Float.max (now +. 0.001) s.next_allowed in
    Engine.schedule_at engine ~time:at (fun engine -> flush t engine d s)
  end

and flush t engine d (s : session) =
  s.pending <- false;
  if not (alive t d) then ()
  else begin
    s.next_allowed <- Engine.now engine +. t.mrai;
    (* collect this session's touched prefixes *)
    let mine =
      Hashtbl.fold
        (fun (peer, p) () acc -> if peer = s.peer then p :: acc else acc)
        t.touched.(d) []
      |> List.sort Prefix.compare
    in
    List.iter (fun p -> Hashtbl.remove t.touched.(d) (s.peer, p)) mine;
    if s.up then begin
      let failed = ref false in
      List.iter
        (fun prefix ->
          if not !failed then
            let now_export = exportable t d s prefix in
            let was = List.assoc_opt prefix s.advertised in
            match (now_export, was) with
            | Some path, Some old when List.equal Int.equal old path ->
                () (* no change *)
            | Some path, _ ->
                s.advertised <-
                  (prefix, path) :: List.remove_assoc prefix s.advertised;
                t.updates <- t.updates + 1;
                let still_wanted () =
                  match List.assoc_opt prefix s.advertised with
                  | Some cur -> List.equal Int.equal cur path
                  | None -> false
                in
                if
                  not
                    (post ~still_wanted
                       ~on_give_up:(fun engine -> transport_failure t engine d s)
                       t engine d s
                       (fun engine ->
                         receive t engine ~at:s.peer ~from:d ~prefix (Some path)))
                then failed := true
            | None, Some _ ->
                s.advertised <- List.remove_assoc prefix s.advertised;
                t.updates <- t.updates + 1;
                let still_wanted () =
                  Option.is_none (List.assoc_opt prefix s.advertised)
                in
                if
                  not
                    (post ~still_wanted
                       ~on_give_up:(fun engine -> transport_failure t engine d s)
                       t engine d s
                       (fun engine ->
                         receive t engine ~at:s.peer ~from:d ~prefix None))
                then failed := true
            | None, None -> ())
        mine
      (* the rest of the batch is subsumed by the full re-advertisement
         the session reset triggers *);
      if !failed then transport_failure t engine d s
    end
    (* session down: the batch is dropped — re-establishment replays the
       whole table, and the reset already purged the peer's rib_in *)
  end

and receive t engine ~at ~from ~prefix update =
  heard t engine ~at ~from;
  (match update with
  | Some path ->
      Hashtbl.replace t.rib_in (at, from, prefix) { path; pref = 0 }
  | None -> Hashtbl.remove t.rib_in (at, from, prefix));
  recompute_best t engine at prefix

(* any message from [from] proves the peer is alive: refresh the hold
   timer and (re-)establish the session if it was down *)
and heard t engine ~at ~from =
  match List.find_opt (fun (s : session) -> s.peer = from) t.sessions.(at) with
  | None -> ()
  | Some s ->
      if t.timers_on then begin
        (match s.hold_h with Some h -> Engine.cancel engine h | None -> ());
        s.hold_h <-
          Some
            (Engine.timer engine ~delay:t.hold (fun engine ->
                 hold_expired t engine at s))
      end;
      if not s.up then establish t engine at s

and establish t engine d s =
  s.up <- true;
  full_readvertise t engine d s

(* a fresh session starts from nothing: replay the entire table *)
and full_readvertise t engine d s =
  let ps =
    Hashtbl.fold (fun (dd, p) _ acc -> if dd = d then p :: acc else acc) t.best []
    |> List.sort Prefix.compare
  in
  List.iter (fun p -> mark_touched t engine d s p) ps

and hold_expired t engine d s =
  s.hold_h <- None;
  (* holds that fire after the keepalive horizon are not evidence of a
     dead peer — the hellos simply stopped — so ignore them *)
  if Engine.now engine <= t.timers_until && alive t d then
    reset_half t engine d s

(* tear down this end of the session: forget what we told the peer and
   what it told us.  Without keepalive machinery there is no hello
   exchange to come back up, so resync immediately instead. *)
and reset_half t engine d (s : session) =
  t.resets <- t.resets + 1;
  s.advertised <- [];
  (match s.hold_h with Some h -> Engine.cancel engine h | None -> ());
  s.hold_h <- None;
  drop_learned t engine d s.peer;
  if t.timers_on then s.up <- false else establish t engine d s

and drop_learned t engine d peer =
  let ps =
    Hashtbl.fold
      (fun (dd, pp, p) _ acc -> if dd = d && pp = peer then p :: acc else acc)
      t.rib_in []
    |> List.sort Prefix.compare
  in
  List.iter (fun p -> Hashtbl.remove t.rib_in (d, peer, p)) ps;
  List.iter (fun p -> recompute_best t engine d p) ps

(* the transport under a session visibly failed (TCP reset): both ends
   drop the session state, exactly like BGP's session reset *)
and transport_failure t engine d (s : session) =
  let already_torn_down =
    t.timers_on && (not s.up)
    && (match s.advertised with [] -> true | _ -> false)
  in
  if not already_torn_down then begin
    reset_half t engine d s;
    if alive t s.peer then
      match
        List.find_opt (fun (s2 : session) -> s2.peer = d) t.sessions.(s.peer)
      with
      | Some s2 -> reset_half t engine s.peer s2
      | None -> ()
  end

(* crash: all soft state is gone; origins survive (configuration) *)
let wipe t engine d =
  let bests =
    Hashtbl.fold (fun (dd, p) _ acc -> if dd = d then p :: acc else acc) t.best []
    |> List.sort Prefix.compare
  in
  List.iter (fun p -> Hashtbl.remove t.best (d, p)) bests;
  let learned =
    Hashtbl.fold
      (fun (dd, pp, p) _ acc -> if dd = d then (pp, p) :: acc else acc)
      t.rib_in []
    |> List.sort (fun (a, pa) (b, pb) ->
           if a <> b then Int.compare a b else Prefix.compare pa pb)
  in
  List.iter (fun (pp, p) -> Hashtbl.remove t.rib_in (d, pp, p)) learned;
  Hashtbl.reset t.touched.(d);
  List.iter
    (fun (s : session) ->
      s.advertised <- [];
      s.up <- false;
      s.pending <- false;
      (match s.hold_h with Some h -> Engine.cancel engine h | None -> ());
      s.hold_h <- None)
    t.sessions.(d)

(* restart: re-originate from configuration; every peer must restart
   its session half too — the old TCP connections died with us *)
let revive t engine d =
  (match Hashtbl.find_opt t.origins d with
  | Some ps ->
      List.iter
        (fun p -> recompute_best t engine d p)
        (List.sort Prefix.compare !ps)
  | None -> ());
  List.iter
    (fun (s : session) ->
      (if alive t s.peer then
         match
           List.find_opt (fun (s2 : session) -> s2.peer = d) t.sessions.(s.peer)
         with
         | Some s2 -> reset_half t engine s.peer s2
         | None -> ());
      if not t.timers_on then establish t engine d s)
    t.sessions.(d)

let create ?(mrai = 2.0) ?(link_delay = 0.1) ?(jitter = 0.0)
    ?(config = Bgp.default_config) ?faults inet =
  let n = Internet.num_domains inet in
  let rng = Topology.Rng.create 97L in
  let t =
    {
      inet;
      config;
      mrai;
      link_delay;
      faults;
      origins = Hashtbl.create 8;
      rib_in = Hashtbl.create 64;
      best = Hashtbl.create 64;
      sessions =
        Array.init n (fun d ->
            List.map
              (fun (peer, role_of_peer) ->
                {
                  peer;
                  role_of_peer;
                  delay =
                    link_delay *. (1.0 +. (jitter *. Topology.Rng.float rng 1.0));
                  advertised = [];
                  pending = false;
                  next_allowed = 0.0;
                  up = true;
                  hold_h = None;
                })
              (Internet.neighbor_domains inet d));
      touched = Array.init n (fun _ -> Hashtbl.create 8);
      timers_on = false;
      timers_until = 0.0;
      hold = 0.0;
      updates = 0;
      best_changes = 0;
      last_change = 0.0;
      keepalives = 0;
      resets = 0;
      shed_retries = 0;
    }
  in
  (match faults with
  | Some f ->
      Faults.on_crash f (fun engine c -> if c >= 0 && c < n then wipe t engine c);
      Faults.on_restart f (fun engine c ->
          if c >= 0 && c < n then revive t engine c)
  | None -> ());
  t

let enable_timers ?(keepalive = 1.0) ?(hold = 3.5) t engine ~until =
  if keepalive <= 0.0 then invalid_arg "Bgpdyn.enable_timers: keepalive <= 0";
  if hold <= keepalive then
    invalid_arg "Bgpdyn.enable_timers: hold must exceed keepalive";
  t.timers_on <- true;
  t.timers_until <- until;
  t.hold <- hold;
  let n = Array.length t.sessions in
  let rec tick time =
    if time <= until then
      Engine.schedule_at engine ~time (fun engine ->
          for d = 0 to n - 1 do
            if alive t d then
              List.iter
                (fun (s : session) ->
                  t.keepalives <- t.keepalives + 1;
                  if
                    not
                      (post ~prio:Faults.Keepalive t engine d s (fun engine ->
                           heard t engine ~at:s.peer ~from:d))
                  then transport_failure t engine d s)
                t.sessions.(d)
          done;
          tick (Engine.now engine +. keepalive))
  in
  tick (Engine.now engine +. keepalive)

let check_domain t fn domain =
  if domain < 0 || domain >= Internet.num_domains t.inet then
    invalid_arg
      (Printf.sprintf "Bgpdyn.%s: domain %d out of range [0, %d)" fn domain
         (Internet.num_domains t.inet))

let originate t engine ~domain prefix =
  check_domain t "originate" domain;
  let cell =
    match Hashtbl.find_opt t.origins domain with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.replace t.origins domain c;
        c
  in
  if not (List.exists (Prefix.equal prefix) !cell) then begin
    cell := prefix :: !cell;
    recompute_best t engine domain prefix
  end

let withdraw t engine ~domain prefix =
  check_domain t "withdraw" domain;
  match Hashtbl.find_opt t.origins domain with
  | None -> ()
  | Some cell ->
      if List.exists (Prefix.equal prefix) !cell then begin
        cell := List.filter (fun p -> not (Prefix.equal p prefix)) !cell;
        recompute_best t engine domain prefix
      end

let originate_all_domain_prefixes t engine =
  for d = 0 to Internet.num_domains t.inet - 1 do
    originate t engine ~domain:d (Internet.domain t.inet d).Internet.prefix
  done

let best_path t ~domain prefix =
  Option.map (fun c -> c.path) (Hashtbl.find_opt t.best (domain, prefix))

let stats t =
  {
    updates = t.updates;
    best_changes = t.best_changes;
    last_change = t.last_change;
    keepalives = t.keepalives;
    resets = t.resets;
    shed_retries = t.shed_retries;
  }

let agrees_with_synchronous t =
  let reference = Bgp.create ~config:t.config t.inet in
  Hashtbl.iter
    (fun d ps -> List.iter (fun p -> Bgp.originate reference ~domain:d p) !ps)
    t.origins;
  ignore (Bgp.converge reference);
  let disagreement = ref None in
  let prefixes =
    Hashtbl.fold (fun _ ps acc -> !ps @ acc) t.origins []
    |> List.sort_uniq Prefix.compare
  in
  for d = 0 to Internet.num_domains t.inet - 1 do
    List.iter
      (fun p ->
        let sync =
          Option.map (fun r -> r.Bgp.as_path) (Bgp.route_to reference ~domain:d p)
        in
        let dyn = best_path t ~domain:d p in
        if sync <> dyn && !disagreement = None then
          disagreement :=
            Some
              (Printf.sprintf "domain %d, %s: sync=%s dyn=%s" d
                 (Prefix.to_string p)
                 (match sync with
                 | Some path -> String.concat "," (List.map string_of_int path)
                 | None -> "-")
                 (match dyn with
                 | Some path -> String.concat "," (List.map string_of_int path)
                 | None -> "-")))
      prefixes
  done;
  match !disagreement with None -> Ok () | Some msg -> Error msg
