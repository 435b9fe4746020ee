let format_version = 1

(* --- encoding ------------------------------------------------------ *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let put_u16 buf v =
  put_u8 buf (v lsr 8);
  put_u8 buf v

let put_u32 buf v =
  put_u16 buf (v lsr 16);
  put_u16 buf v

let put_ipv4 buf a = put_u32 buf (Ipv4.to_int a)

let put_body buf body =
  if String.length body > 0xFFFF then
    invalid_arg "Wire.encode: body exceeds 65535 bytes";
  put_u16 buf (String.length body);
  Buffer.add_string buf body

(* Uses the raw accessors, not the option-returning ones: encode runs
   once per injected packet, and the self/provider split is total on
   the bit layout, so nothing needs an option here (hot-path-alloc). *)
let put_ipvn buf a =
  if Ipvn.is_self a then begin
    put_u8 buf 0;
    put_ipv4 buf (Ipvn.raw_ipv4 a)
  end
  else begin
    put_u8 buf 1;
    put_u32 buf (Ipvn.raw_domain a);
    put_u32 buf (Ipvn.raw_host a)
  end

let check_ttl ttl =
  if ttl < 0 || ttl > 255 then invalid_arg "Wire.encode: TTL out of [0, 255]"

let encode (p : Packet.t) =
  check_ttl p.Packet.ttl;
  let buf = Buffer.create 64 in
  put_u8 buf format_version;
  (match p.Packet.payload with
  | Packet.Data _ -> put_u8 buf 0
  | Packet.Encap _ -> put_u8 buf 1);
  put_ipv4 buf p.Packet.src;
  put_ipv4 buf p.Packet.dst;
  put_u8 buf p.Packet.ttl;
  (match p.Packet.payload with
  | Packet.Data body -> put_body buf body
  | Packet.Encap vn ->
      check_ttl vn.Packet.vttl;
      put_u8 buf vn.Packet.version;
      put_u8 buf vn.Packet.vttl;
      put_ipvn buf vn.Packet.vsrc;
      put_ipvn buf vn.Packet.vdst;
      (match vn.Packet.dest_v4_hint with
      | Some a ->
          put_u8 buf 1;
          put_ipv4 buf a
      | None -> put_u8 buf 0);
      put_body buf vn.Packet.body);
  Buffer.contents buf

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

let peek_dst s = if peek_ok s then Some (Ipv4.of_int (u32_at s 6)) else None

(* Allocation-free variant for the per-packet path: the caller supplies
   the fallback instead of matching on an option (hot-path-alloc). *)
let peek_dst_or s ~default =
  if peek_ok s then Ipv4.of_int (u32_at s 6) else default
let peek_src s = if peek_ok s then Some (Ipv4.of_int (u32_at s 2)) else None
let peek_ttl s = if peek_ok s then Some (Char.code s.[10]) else None

let peek_kind s =
  if not (peek_ok s) then None
  else
    match Char.code s.[1] with
    | 0 -> Some `Data
    | 1 -> Some `Encap
    | _ -> None

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

(* --- arena views ---------------------------------------------------- *)

(* Two accessor families. The unsafe one (big_put8 .. big_put_body,
   big_u32, the peeks) may only be used where evolvelint's bounds pack
   (rules_bounds.ml, DESIGN.md §9.5) proves every offset in-bounds —
   `dune build @lint` fails otherwise, and CI independently checks
   that each unchecked access site appears in the prover's
   `--proven` list. The checked one (big_put8c .. big_put_ipvnc) is
   for the encap encoder, whose field widths depend on Ipvn.is_self —
   a relational fact outside the prover's linear domain — so those
   writes keep the dynamic bigarray check. *)

let big_put8 (b : Arena.buf) i v =
  Bigarray.Array1.unsafe_set b i (Char.unsafe_chr (v land 0xFF))

let big_put16 b i v =
  big_put8 b i (v lsr 8);
  big_put8 b (i + 1) v

let big_put32 b i v =
  big_put16 b i (v lsr 16);
  big_put16 b (i + 2) v

let big_put_body b i body =
  if String.length body > 0xFFFF then
    invalid_arg "Wire.encode_into: body exceeds 65535 bytes";
  let n = String.length body in
  big_put16 b i n;
  for k = 0 to n - 1 do
    Bigarray.Array1.unsafe_set b (i + 2 + k) (String.unsafe_get body k)
  done;
  i + 2 + n

(* Checked variants for the encap path: Bigarray.Array1.set keeps the
   runtime bounds check. The width of each ipvn field (5 or 9 bytes)
   depends on Ipvn.is_self, so relating the writes to the wire_length
   the arena allocated needs relational reasoning the bounds prover
   does not attempt; these sites carry an arena-bounds allowlist entry
   instead of a proof. *)

let big_put8c (b : Arena.buf) i v =
  Bigarray.Array1.set b i (Char.unsafe_chr (v land 0xFF))

let big_put16c b i v =
  big_put8c b i (v lsr 8);
  big_put8c b (i + 1) v

let big_put32c b i v =
  big_put16c b i (v lsr 16);
  big_put16c b (i + 2) v

let big_put_bodyc b i body =
  if String.length body > 0xFFFF then
    invalid_arg "Wire.encode_into: body exceeds 65535 bytes";
  let n = String.length body in
  big_put16c b i n;
  for k = 0 to n - 1 do
    Bigarray.Array1.set b (i + 2 + k) (String.unsafe_get body k)
  done;
  i + 2 + n

let big_put_ipvnc b i a =
  if Ipvn.is_self a then begin
    big_put8c b i 0;
    big_put32c b (i + 1) (Ipv4.to_int (Ipvn.raw_ipv4 a));
    i + 5
  end
  else begin
    big_put8c b i 1;
    big_put32c b (i + 1) (Ipvn.raw_domain a);
    big_put32c b (i + 5) (Ipvn.raw_host a);
    i + 9
  end

(* The payload match comes first so each branch can bind the length the
   prover needs: the data branch states it as header + u16 + body
   inline, which — together with the Arena.alloc postcondition and the
   off < 0 guard — is exactly what licenses its unsafe writes. *)
let encode_into (p : Packet.t) arena =
  check_ttl p.Packet.ttl;
  match p.Packet.payload with
  | Packet.Data body ->
      let len = header_bytes + 2 + String.length body in
      let off = Arena.alloc arena len in
      if off < 0 then invalid_arg "Wire.encode_into: arena exhausted";
      let b = Arena.buf arena in
      big_put8 b off format_version;
      big_put8 b (off + 1) 0;
      big_put32 b (off + 2) (Ipv4.to_int p.Packet.src);
      big_put32 b (off + 6) (Ipv4.to_int p.Packet.dst);
      big_put8 b (off + 10) p.Packet.ttl;
      ignore (big_put_body b (off + 11) body : int);
      off
  | Packet.Encap vn ->
      check_ttl vn.Packet.vttl;
      let len = wire_length p in
      let off = Arena.alloc arena len in
      if off < 0 then invalid_arg "Wire.encode_into: arena exhausted";
      let b = Arena.buf arena in
      big_put8c b off format_version;
      big_put8c b (off + 1) 1;
      big_put32c b (off + 2) (Ipv4.to_int p.Packet.src);
      big_put32c b (off + 6) (Ipv4.to_int p.Packet.dst);
      big_put8c b (off + 10) p.Packet.ttl;
      big_put8c b (off + 11) vn.Packet.version;
      big_put8c b (off + 12) vn.Packet.vttl;
      let i = big_put_ipvnc b (off + 13) vn.Packet.vsrc in
      let i = big_put_ipvnc b i vn.Packet.vdst in
      let i =
        match vn.Packet.dest_v4_hint with
        | Some a ->
            big_put8c b i 1;
            big_put32c b (i + 1) (Ipv4.to_int a);
            i + 5
        | None ->
            big_put8c b i 0;
            i + 1
      in
      ignore (big_put_bodyc b i vn.Packet.body : int);
      off

let big_u32 (b : Arena.buf) i =
  (Char.code (Bigarray.Array1.unsafe_get b i) lsl 24)
  lor (Char.code (Bigarray.Array1.unsafe_get b (i + 1)) lsl 16)
  lor (Char.code (Bigarray.Array1.unsafe_get b (i + 2)) lsl 8)
  lor Char.code (Bigarray.Array1.unsafe_get b (i + 3))

let big_peek_ok (b : Arena.buf) ~off ~len =
  len >= header_bytes && off >= 0
  && off + len <= Bigarray.Array1.dim b
  && Char.code (Bigarray.Array1.unsafe_get b off) = format_version

let peek_dst_big b ~off ~len ~default =
  if big_peek_ok b ~off ~len then Ipv4.of_int (big_u32 b (off + 6)) else default

let peek_ttl_big b ~off ~len ~default =
  if big_peek_ok b ~off ~len then
    Char.code (Bigarray.Array1.unsafe_get b (off + 10))
  else default

let decode_big b ~off ~len =
  if off < 0 || len < 0 || off + len > Bigarray.Array1.dim b then
    Error "view out of bounds"
  else
    (* the guard above is the proof: off >= 0, len >= 0 and
       off + len <= dim, and String.init keeps i < len *)
    decode (String.init len (fun i -> Bigarray.Array1.unsafe_get b (off + i)))
