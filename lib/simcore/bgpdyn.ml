module Internet = Topology.Internet
module Relationship = Topology.Relationship
module Bgp = Interdomain.Bgp
module Prefix = Netcore.Prefix
module Pmap = Map.Make (Prefix)
module Pset = Set.Make (Prefix)

type stats = {
  updates : int;
  best_changes : int;
  last_change : float;
  keepalives : int;
  resets : int;
  shed_retries : int;
}

(* One end of a session. Every map and set is ordered by
   [Prefix.compare], which fixes the order of the events a walk over
   one schedules. *)
type session = {
  peer : int;
  role_at_peer : Relationship.t;  (* this domain's role, seen from the peer *)
  delay : float;  (* propagation latency of this session *)
  mutable rib_in : Bgp.route Pmap.t;  (* the routes the peer gave us *)
  mutable touched : Pset.t;
      (* prefixes whose export to the peer may have changed — sent by
         the MRAI flush *)
  mutable advertised : Bgp.route Pmap.t;
      (* what we last announced to the peer, as the peer learns it *)
  mutable pending : bool;  (* a flush is scheduled *)
  mutable next_allowed : float;  (* MRAI gate *)
  mutable up : bool;  (* session established (this end's view) *)
  mutable hold_h : Engine.handle option;  (* armed hold timer *)
  mutable epoch : int;
      (* this end's connection: bumped when the half is torn down (reset
         or crash), so an update sent over the old connection is
         dropped on arrival, as TCP drops it *)
}

type t = {
  inet : Internet.t;
  config : Bgp.config;
  mrai : float;
  faults : Faults.t option;
  origins : Pset.t array;  (* per domain: the prefixes it originates *)
  best : Bgp.route Pmap.t array;  (* per domain: its chosen routes *)
  sessions : session list array;  (* per domain *)
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

let alive t d =
  match t.faults with None -> true | Some f -> Faults.node_up f d

(* the session [d] holds toward [peer] *)
let session_to t d peer =
  List.find_opt (fun (s : session) -> s.peer = peer) t.sessions.(d)

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
  (* candidates: own origination + what each peer gave us *)
  let own =
    if Pset.mem prefix t.origins.(d) then
      Bgp.origination t.config ~at:d ~scope:None prefix
    else None
  in
  let new_best =
    List.fold_left
      (fun acc (s : session) ->
        match (Pmap.find_opt prefix s.rib_in, acc) with
        | None, _ -> acc
        | Some r, Some b when not (Bgp.better r b) -> acc
        | (Some _ as c), _ -> c)
      own t.sessions.(d)
  in
  if not (Option.equal Bgp.equal_route new_best (Pmap.find_opt prefix t.best.(d)))
  then begin
    t.best.(d) <-
      (match new_best with
      | Some r -> Pmap.add prefix r t.best.(d)
      | None -> Pmap.remove prefix t.best.(d));
    t.best_changes <- t.best_changes + 1;
    t.last_change <- Engine.now engine;
    (* export state toward every session may have changed *)
    List.iter (fun s -> mark_touched t engine d s prefix) t.sessions.(d)
  end

and mark_touched t engine d (s : session) prefix =
  s.touched <- Pset.add prefix s.touched;
  if not s.pending then begin
    s.pending <- true;
    let now = Engine.now engine in
    let at = Float.max (now +. 0.001) s.next_allowed in
    Engine.schedule_at engine ~time:at (fun engine -> flush t engine d s)
  end

and flush t engine d (s : session) =
  s.pending <- false;
  if alive t d then begin
    s.next_allowed <- Engine.now engine +. t.mrai;
    let mine = s.touched in
    s.touched <- Pset.empty;
    if s.up then begin
      let failed = ref false in
      (* the peer takes the update into its own half of the session,
         unless that half was torn down while the update was in flight *)
      let deliver =
        match session_to t s.peer d with
        | Some back ->
            let epoch = back.epoch in
            fun prefix update engine ->
              if back.epoch = epoch then receive t engine s.peer back prefix update
        | None -> fun _ _ _ -> ()
      in
      let send ~still_wanted prefix update =
        if
          not
            (post ~still_wanted
               ~on_give_up:(fun engine -> transport_failure t engine d s)
               t engine d s (deliver prefix update))
        then failed := true
      in
      Pset.iter
        (fun prefix ->
          if not !failed then
            let now_export =
              Option.bind (Pmap.find_opt prefix t.best.(d))
                (Bgp.learn t.config ~at:s.peer ~role:s.role_at_peer)
            in
            match (now_export, Pmap.find_opt prefix s.advertised) with
            | Some r, Some old when Bgp.equal_route old r -> () (* no change *)
            | Some r, _ ->
                s.advertised <- Pmap.add prefix r s.advertised;
                t.updates <- t.updates + 1;
                send prefix (Some r) ~still_wanted:(fun () ->
                    match Pmap.find_opt prefix s.advertised with
                    | Some cur -> Bgp.equal_route cur r
                    | None -> false)
            | None, Some _ ->
                s.advertised <- Pmap.remove prefix s.advertised;
                t.updates <- t.updates + 1;
                send prefix None ~still_wanted:(fun () ->
                    not (Pmap.mem prefix s.advertised))
            | None, None -> ())
        mine
      (* the rest of the batch is subsumed by the full re-advertisement
         the session reset triggers *);
      if !failed then transport_failure t engine d s
    end
    (* session down: the batch is dropped — re-establishment replays the
       whole table, and the reset already purged the peer's rib_in *)
  end

(* [s] is [at]'s session to the sender *)
and receive t engine at (s : session) prefix update =
  heard t engine at s;
  s.rib_in <-
    (match update with
    | Some r -> Pmap.add prefix r s.rib_in
    | None -> Pmap.remove prefix s.rib_in);
  recompute_best t engine at prefix

(* any message on [at]'s session [s] proves the peer is alive: refresh
   the hold timer and (re-)establish the session if it was down *)
and heard t engine at (s : session) =
  if t.timers_on then begin
    (match s.hold_h with Some h -> Engine.cancel engine h | None -> ());
    s.hold_h <-
      Some (Engine.timer engine ~delay:t.hold (fun engine -> hold_expired t engine at s))
  end;
  if not s.up then establish t engine at s

(* a fresh session starts from nothing: replay the entire table *)
and establish t engine d s =
  s.up <- true;
  Pmap.iter (fun p _ -> mark_touched t engine d s p) t.best.(d)

(* the peer went quiet: close the session as BGP does (a NOTIFICATION
   and a TCP close), so a live peer tears its half down too and
   re-advertises when the session comes back *)
and hold_expired t engine d s =
  s.hold_h <- None;
  (* holds that fire after the keepalive horizon are not evidence of a
     dead peer — the hellos simply stopped — so ignore them *)
  if Engine.now engine <= t.timers_until && alive t d then
    transport_failure t engine d s

(* tear down this end of the session: forget what we told the peer and
   what it told us.  Without keepalive machinery there is no hello
   exchange to come back up, so resync immediately instead. *)
and reset_half t engine d (s : session) =
  t.resets <- t.resets + 1;
  s.epoch <- s.epoch + 1;
  s.advertised <- Pmap.empty;
  (match s.hold_h with Some h -> Engine.cancel engine h | None -> ());
  s.hold_h <- None;
  drop_learned t engine d s;
  if t.timers_on then s.up <- false else establish t engine d s

and drop_learned t engine d (s : session) =
  let learned = s.rib_in in
  s.rib_in <- Pmap.empty;
  Pmap.iter (fun p _ -> recompute_best t engine d p) learned

(* the transport under a session visibly failed (TCP reset): both ends
   drop the session state, exactly like BGP's session reset *)
and transport_failure t engine d (s : session) =
  let already_torn_down =
    t.timers_on && (not s.up) && Pmap.is_empty s.advertised
  in
  if not already_torn_down then begin
    reset_half t engine d s;
    if alive t s.peer then
      Option.iter (reset_half t engine s.peer) (session_to t s.peer d)
  end

(* crash: all soft state is gone; origins survive (configuration) *)
let wipe t engine d =
  t.best.(d) <- Pmap.empty;
  List.iter
    (fun (s : session) ->
      s.rib_in <- Pmap.empty;
      s.touched <- Pset.empty;
      s.advertised <- Pmap.empty;
      s.up <- false;
      s.epoch <- s.epoch + 1;
      s.pending <- false;
      (match s.hold_h with Some h -> Engine.cancel engine h | None -> ());
      s.hold_h <- None)
    t.sessions.(d)

(* restart: re-originate from configuration; every peer must restart
   its session half too — the old TCP connections died with us *)
let revive t engine d =
  Pset.iter (fun p -> recompute_best t engine d p) t.origins.(d);
  List.iter
    (fun (s : session) ->
      if alive t s.peer then
        Option.iter (reset_half t engine s.peer) (session_to t s.peer d);
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
      faults;
      origins = Array.make n Pset.empty;
      best = Array.make n Pmap.empty;
      sessions =
        Array.init n (fun d ->
            List.map
              (fun (peer, role_of_peer) ->
                {
                  peer;
                  role_at_peer = Relationship.invert role_of_peer;
                  delay =
                    link_delay *. (1.0 +. (jitter *. Topology.Rng.float rng 1.0));
                  rib_in = Pmap.empty;
                  touched = Pset.empty;
                  advertised = Pmap.empty;
                  pending = false;
                  next_allowed = 0.0;
                  up = true;
                  hold_h = None;
                  epoch = 0;
                })
              (Internet.neighbor_domains inet d));
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
                           Option.iter (heard t engine s.peer)
                             (session_to t s.peer d)))
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
  if not (Pset.mem prefix t.origins.(domain)) then begin
    t.origins.(domain) <- Pset.add prefix t.origins.(domain);
    recompute_best t engine domain prefix
  end

let withdraw t engine ~domain prefix =
  check_domain t "withdraw" domain;
  if Pset.mem prefix t.origins.(domain) then begin
    t.origins.(domain) <- Pset.remove prefix t.origins.(domain);
    recompute_best t engine domain prefix
  end

let originate_all_domain_prefixes t engine =
  for d = 0 to Internet.num_domains t.inet - 1 do
    originate t engine ~domain:d (Internet.domain t.inet d).Internet.prefix
  done

let best_path t ~domain prefix =
  Option.map (fun r -> r.Bgp.as_path) (Pmap.find_opt prefix t.best.(domain))

let stats t =
  {
    updates = t.updates;
    best_changes = t.best_changes;
    last_change = t.last_change;
    keepalives = t.keepalives;
    resets = t.resets;
    shed_retries = t.shed_retries;
  }

(* Every prefix some domain originates or holds a route for is compared
   at every domain, so a route that outlived its last origin shows up
   too. *)
let agrees_with_synchronous t =
  let reference = Bgp.create ~config:t.config t.inet in
  Array.iteri
    (fun d -> Pset.iter (fun p -> Bgp.originate reference ~domain:d p))
    t.origins;
  ignore (Bgp.converge reference);
  let prefixes =
    Array.fold_left
      (fun acc best -> Pmap.fold (fun p _ -> Pset.add p) best acc)
      (Array.fold_left Pset.union Pset.empty t.origins)
      t.best
  in
  let path = function
    | Some r -> String.concat "," (List.map string_of_int r.Bgp.as_path)
    | None -> "-"
  in
  let differs d p =
    let sync = Bgp.route_to reference ~domain:d p
    and dyn = Pmap.find_opt p t.best.(d) in
    if Option.equal Bgp.equal_route sync dyn then None
    else
      Some
        (Printf.sprintf "domain %d, %s: sync=%s dyn=%s" d (Prefix.to_string p)
           (path sync) (path dyn))
  in
  match
    Seq.find_map
      (fun d -> Seq.find_map (differs d) (Pset.to_seq prefixes))
      (Seq.init (Array.length t.best) Fun.id)
  with
  | None -> Ok ()
  | Some msg -> Error msg
