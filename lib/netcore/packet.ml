type vn = {
  version : int;
  vsrc : Ipvn.t;
  vdst : Ipvn.t;
  vttl : int;
  dest_v4_hint : Ipv4.t option;
  body : string;
}

type payload = Data of string | Encap of vn
type t = { src : Ipv4.t; dst : Ipv4.t; ttl : int; payload : payload }

let default_ttl = 64
let make_data ~src ~dst body = { src; dst; ttl = default_ttl; payload = Data body }

let make_vn ~version ~vsrc ~vdst ?dest_v4_hint body =
  if Ipvn.version vsrc <> version then
    invalid_arg "Packet.make_vn: source address version mismatch";
  if Ipvn.version vdst <> version then
    invalid_arg "Packet.make_vn: destination address version mismatch";
  { version; vsrc; vdst; vttl = default_ttl; dest_v4_hint; body }

let encapsulate ~src ~dst vn = { src; dst; ttl = default_ttl; payload = Encap vn }
let decapsulate t = match t.payload with Encap vn -> Some vn | Data _ -> None
let decrement_ttl t = if t.ttl <= 1 then None else Some { t with ttl = t.ttl - 1 }

let dest_ipv4 vn =
  match vn.dest_v4_hint with
  | Some a -> Some a
  | None -> Ipvn.embedded_ipv4 vn.vdst
