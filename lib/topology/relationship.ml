type t = Customer | Peer | Provider

let invert = function
  | Customer -> Provider
  | Provider -> Customer
  | Peer -> Peer

let to_string = function
  | Customer -> "customer"
  | Peer -> "peer"
  | Provider -> "provider"

let equal a b = a = b

let export_allowed ~learned_from ~to_ =
  match (learned_from, to_) with
  | Customer, _ -> true (* customer routes go to everyone *)
  | (Peer | Provider), Customer -> true (* customers hear everything *)
  | (Peer | Provider), (Peer | Provider) -> false

let local_preference = function Customer -> 3 | Peer -> 2 | Provider -> 1
