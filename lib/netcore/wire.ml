let format_version = 1

(* --- encoding ------------------------------------------------------ *)

(* Writers into the exact-size image [encode] allocates. Each takes the
   bytes as an argument, so none is a closure over them
   (hot-path-alloc). *)

let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)
let set_ipv4 b off a = set_u32 b off (Ipv4.to_int a)

let set_body b off body =
  let n = String.length body in
  Bytes.set_uint16_be b off n;
  Bytes.blit_string body 0 b (off + 2) n

(* Uses the raw accessors, not the option-returning ones: encode runs
   once per injected packet, and the self/provider split is total on
   the bit layout, so nothing needs an option here (hot-path-alloc).
   Returns the offset after the address. *)
let set_ipvn b off a =
  if Ipvn.is_self a then begin
    Bytes.set_uint8 b off 0;
    set_ipv4 b (off + 1) (Ipvn.raw_ipv4 a);
    off + 5
  end
  else begin
    Bytes.set_uint8 b off 1;
    set_u32 b (off + 1) (Ipvn.raw_domain a);
    set_u32 b (off + 5) (Ipvn.raw_host a);
    off + 9
  end

let check_ttl ttl =
  if ttl < 0 || ttl > 255 then invalid_arg "Wire.encode: TTL out of [0, 255]"

let check_body body =
  if String.length body > 0xFFFF then
    invalid_arg "Wire.encode: body exceeds 65535 bytes"

(* --- decoding ------------------------------------------------------ *)

type cursor = { data : string; mutable pos : int }

exception Malformed of string

let need c n what =
  if c.pos + n > String.length c.data then
    raise (Malformed ("truncated " ^ what))

let get_u8 c what =
  need c 1 what;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u16 c what =
  let hi = get_u8 c what in
  let lo = get_u8 c what in
  (hi lsl 8) lor lo

let get_u32 c what =
  let hi = get_u16 c what in
  let lo = get_u16 c what in
  (hi lsl 16) lor lo

let get_ipv4 c what = Ipv4.of_int (get_u32 c what)

let get_body c =
  let len = get_u16 c "body length" in
  need c len "body";
  let s = String.sub c.data c.pos len in
  c.pos <- c.pos + len;
  s

let get_ipvn c ~version what =
  match get_u8 c (what ^ " tag") with
  | 0 -> Ipvn.self_of_ipv4 ~version (get_ipv4 c what)
  | 1 ->
      let domain = get_u32 c (what ^ " domain") in
      let host = get_u32 c (what ^ " host") in
      (try Ipvn.provider ~version ~domain ~host
       with Invalid_argument m -> raise (Malformed m))
  | t -> raise (Malformed (Printf.sprintf "unknown %s tag %d" what t))

let decode s =
  let c = { data = s; pos = 0 } in
  try
    let v = get_u8 c "format version" in
    if v <> format_version then
      raise (Malformed (Printf.sprintf "unsupported format version %d" v));
    let kind = get_u8 c "payload kind" in
    let src = get_ipv4 c "source" in
    let dst = get_ipv4 c "destination" in
    let ttl = get_u8 c "ttl" in
    let payload =
      match kind with
      | 0 -> Packet.Data (get_body c)
      | 1 ->
          let version = get_u8 c "ipvn version" in
          if version < 1 then raise (Malformed "ipvn version must be positive");
          let vttl = get_u8 c "vttl" in
          let vsrc = get_ipvn c ~version "vsrc" in
          let vdst = get_ipvn c ~version "vdst" in
          let dest_v4_hint =
            match get_u8 c "hint flag" with
            | 0 -> None
            | 1 -> Some (get_ipv4 c "hint")
            | f -> raise (Malformed (Printf.sprintf "unknown hint flag %d" f))
          in
          let body = get_body c in
          Packet.Encap
            { Packet.version; vsrc; vdst; vttl; dest_v4_hint; body }
      | k -> raise (Malformed (Printf.sprintf "unknown payload kind %d" k))
    in
    if c.pos <> String.length s then raise (Malformed "trailing bytes");
    Ok { Packet.src; dst; ttl; payload }
  with Malformed m -> Error m

(* --- header peeks -------------------------------------------------- *)

let header_bytes = 11

(* header, u16 body length, body *)
let data_length body_len = header_bytes + 2 + body_len

let u32_at s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let peek_ok s = String.length s >= header_bytes && Char.code s.[0] = format_version

(* The caller supplies the fallback instead of matching on an option,
   so the per-packet path allocates nothing (hot-path-alloc). *)
let peek_dst_or s ~default =
  if peek_ok s then Ipv4.of_int (u32_at s 6) else default

let wire_length (p : Packet.t) =
  let ipvn_len a = if Ipvn.is_self a then 5 else 9 in
  match p.Packet.payload with
  | Packet.Data body -> data_length (String.length body)
  | Packet.Encap vn ->
      header_bytes + 1 + 1
      + ipvn_len vn.Packet.vsrc
      + ipvn_len vn.Packet.vdst
      + (match vn.Packet.dest_v4_hint with Some _ -> 5 | None -> 1)
      + 2
      + String.length vn.Packet.body

(* One exact-size image: [wire_length] sizes it, so nothing grows or
   copies. The checks come first, in the order the fields are laid
   out. *)
let encode (p : Packet.t) =
  check_ttl p.Packet.ttl;
  (match p.Packet.payload with
  | Packet.Data body -> check_body body
  | Packet.Encap vn ->
      check_ttl vn.Packet.vttl;
      check_body vn.Packet.body);
  let b = Bytes.create (wire_length p) in
  Bytes.set_uint8 b 0 format_version;
  set_ipv4 b 2 p.Packet.src;
  set_ipv4 b 6 p.Packet.dst;
  Bytes.set_uint8 b 10 p.Packet.ttl;
  (match p.Packet.payload with
  | Packet.Data body ->
      Bytes.set_uint8 b 1 0;
      set_body b header_bytes body
  | Packet.Encap vn ->
      Bytes.set_uint8 b 1 1;
      Bytes.set_uint8 b 11 vn.Packet.version;
      Bytes.set_uint8 b 12 vn.Packet.vttl;
      let i = set_ipvn b 13 vn.Packet.vsrc in
      let i = set_ipvn b i vn.Packet.vdst in
      let i =
        match vn.Packet.dest_v4_hint with
        | Some a ->
            Bytes.set_uint8 b i 1;
            set_ipv4 b (i + 1) a;
            i + 5
        | None ->
            Bytes.set_uint8 b i 0;
            i + 1
      in
      set_body b i vn.Packet.body);
  (* [b] is never written again, so handing it out as a string is safe *)
  Bytes.unsafe_to_string b

(* --- arena copy ----------------------------------------------------- *)

(* One image from [encode], then one checked copy into the slab, so the
   slab bytes are [encode]'s by construction. *)
let encode_into (p : Packet.t) arena =
  let s = encode p in
  let len = String.length s in
  let off = Arena.alloc arena len in
  if off < 0 then invalid_arg "Wire.encode_into: arena exhausted";
  let b = Arena.buf arena in
  for i = 0 to len - 1 do
    Bigarray.Array1.set b (off + i) s.[i]
  done;
  off
