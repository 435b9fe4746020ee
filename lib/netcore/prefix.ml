type t = { network : Ipv4.t; length : int }

let mask_of_length len =
  if len = 0 then 0 else 0xFFFF_FFFF lsl (32 - len) land 0xFFFF_FFFF

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of range";
  let net = Ipv4.to_int addr land mask_of_length len in
  { network = Ipv4.of_int net; length = len }

let network p = p.network
let length p = p.length

let of_string_opt s =
  match String.index_opt s '/' with
  | None -> None
  | Some i -> (
      let addr = String.sub s 0 i in
      let len = String.sub s (i + 1) (String.length s - i - 1) in
      match (Ipv4.of_string_opt addr, int_of_string_opt len) with
      | Some a, Some l when l >= 0 && l <= 32 -> Some (make a l)
      | _ -> None)

let of_string s =
  match of_string_opt s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string: %S" s)

let to_string p = Printf.sprintf "%s/%d" (Ipv4.to_string p.network) p.length

let compare a b =
  match Ipv4.compare a.network b.network with
  | 0 -> Int.compare a.length b.length
  | c -> c

let equal a b = compare a b = 0

let mem addr p =
  Ipv4.to_int addr land mask_of_length p.length = Ipv4.to_int p.network

let subsumes outer inner =
  outer.length <= inner.length && mem inner.network outer

let split p =
  if p.length = 32 then invalid_arg "Prefix.split: /32 cannot be split";
  let len = p.length + 1 in
  let lo = { network = p.network; length = len } in
  let hi_net = Ipv4.to_int p.network lor (1 lsl (32 - len)) in
  (lo, { network = Ipv4.of_int hi_net; length = len })

let size p = 1 lsl (32 - p.length)

let host p i =
  if i < 0 || i >= size p then invalid_arg "Prefix.host: index out of range";
  Ipv4.add p.network i

let global_routability_limit = 22
let is_globally_routable p = p.length <= global_routability_limit
