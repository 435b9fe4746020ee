(* Layout of the 64-bit value:
   bit 63          : self-addressing flag
   self form       : bits 31..0 carry the embedded IPv4 address
   provider form   : bits 50..31 carry the domain id, bits 30..0 the
                     host index. *)

type t = { version : int; value : int64 }

let self_flag = Int64.shift_left 1L 63

let check_version version =
  if version < 1 || version > 255 then
    invalid_arg "Ipvn: version out of range [1, 255]"

let version t = t.version

let self_of_ipv4 ~version a =
  check_version version;
  { version; value = Int64.logor self_flag (Int64.of_int (Ipv4.to_int a)) }

let provider ~version ~domain ~host =
  check_version version;
  if domain < 0 || domain >= 1 lsl 20 then
    invalid_arg "Ipvn.provider: domain out of range";
  if host < 0 || host >= 1 lsl 31 then
    invalid_arg "Ipvn.provider: host out of range";
  let v =
    Int64.logor
      (Int64.shift_left (Int64.of_int domain) 31)
      (Int64.of_int host)
  in
  { version; value = v }

let is_self t = Int64.logand t.value self_flag <> 0L

(* Raw field accessors for the wire encoder's per-packet path: total on
   the bit layout, no option cell. [raw_ipv4] is meaningful only when
   [is_self]; [raw_domain]/[raw_host] only when not. *)
let raw_ipv4 t = Ipv4.of_int (Int64.to_int (Int64.logand t.value 0xFFFF_FFFFL))

let raw_domain t =
  Int64.to_int (Int64.logand (Int64.shift_right_logical t.value 31) 0xF_FFFFL)

let raw_host t = Int64.to_int (Int64.logand t.value 0x7FFF_FFFFL)

let embedded_ipv4 t = if is_self t then Some (raw_ipv4 t) else None
let domain t = if is_self t then None else Some (raw_domain t)
let host t = if is_self t then None else Some (raw_host t)

let compare a b =
  match Int.compare a.version b.version with
  | 0 -> Int64.unsigned_compare a.value b.value
  | c -> c

let equal a b = compare a b = 0

let to_string t =
  if is_self t then
    match embedded_ipv4 t with
    | Some a -> Printf.sprintf "v%d:self[%s]" t.version (Ipv4.to_string a)
    | None -> assert false
  else
    match (domain t, host t) with
    | Some d, Some h -> Printf.sprintf "v%d:d%d.h%d" t.version d h
    | _ -> assert false

let pp fmt t = Format.pp_print_string fmt (to_string t)
