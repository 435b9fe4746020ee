type t = int (* invariant: 0 <= t < 2^32 *)

let mask32 = 0xFFFF_FFFF
let of_int i = i land mask32
external to_int : t -> int = "%identity"

let of_octets a b c d =
  let check o =
    if o < 0 || o > 255 then invalid_arg "Ipv4.of_octets: octet out of range"
  in
  check a;
  check b;
  check c;
  check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let of_string_opt s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 -> Some v
        | _ -> None
      in
      match (octet a, octet b, octet c, octet d) with
      | Some a, Some b, Some c, Some d -> Some (of_octets a b c d)
      | _ -> None)
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv4.of_string: %S" s)

let to_string a =
  Printf.sprintf "%d.%d.%d.%d"
    ((a lsr 24) land 0xFF)
    ((a lsr 16) land 0xFF)
    ((a lsr 8) land 0xFF)
    (a land 0xFF)

let compare = Int.compare
let equal = Int.equal

let bit a i =
  if i < 0 || i > 31 then invalid_arg "Ipv4.bit: index out of range";
  (a lsr (31 - i)) land 1 = 1

let succ a = (a + 1) land mask32
let add a k = (a + k) land mask32
let any = 0
let broadcast = mask32
