module Internet = Topology.Internet
module Forward = Simcore.Forward
module Service = Anycast.Service
module Fabric = Vnbone.Fabric
module Router = Vnbone.Router
module Transport = Vnbone.Transport

type t = {
  inet : Internet.t;
  env : Forward.env;
  service : Service.t;
  version : int;
  mutable router : Router.t option;  (* invalidated on deployment change *)
}

let internet t = t.inet
let env t = t.env
let service t = t.service

let of_internet inet ~version ~strategy =
  let env = Forward.make_env inet in
  let service = Service.deploy env ~version ~strategy in
  { inet; env; service; version; router = None }

let create ?(params = Internet.default_params) ~version ~strategy () =
  of_internet (Internet.build params) ~version ~strategy

let invalidate t = t.router <- None

let deploy ?(fraction = 1.0) t ~domain =
  if fraction <= 0.0 || fraction > 1.0 then
    invalid_arg "Setup.deploy: fraction outside (0, 1]";
  let d = Internet.domain t.inet domain in
  let n = Array.length d.Internet.router_ids in
  let count = max 1 (int_of_float (ceil (fraction *. float_of_int n))) in
  let routers =
    Array.to_list (Array.sub d.Internet.router_ids 0 (min count n))
  in
  Service.add_participant t.service ~domain ~routers;
  invalidate t

let undeploy t ~domain =
  Service.remove_participant t.service ~domain;
  invalidate t

let router t =
  match t.router with
  | Some r -> r
  | None ->
      let r = Router.create (Fabric.build t.service) in
      t.router <- Some r;
      r

let fabric t = Router.fabric (router t)

let send t ~strategy ~src ~dst ?(payload = "hello-ipvn") () =
  Transport.send (router t) ~strategy ~src ~dst ~payload
