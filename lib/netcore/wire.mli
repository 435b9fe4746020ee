(** Binary wire format for packets.

    A compact, versioned encoding of {!Packet.t} — what would actually
    cross a link, including the IPvN-in-IPv4 encapsulation of §3.3.2's
    tunnels. Layout (all integers big-endian):

    {v
    byte 0      : format version (1)
    byte 1      : payload kind (0 = data, 1 = encapsulated IPvN)
    bytes 2-5   : IPv4 source
    bytes 6-9   : IPv4 destination
    byte 10     : TTL
    data:         u16 body length, body bytes
    encap:        IPvN version (u8), vTTL (u8),
                  vsrc (u8 tag + payload), vdst (u8 tag + payload),
                  dest hint (u8 flag + optional IPv4),
                  u16 body length, body bytes
    v}

    IPvN addresses encode as a tag byte (0 = self, 1 = provider)
    followed by the embedded IPv4 (self) or u32 domain + u32 host
    (provider). *)

val encode : Packet.t -> string
(** Serialize. Allocates one string of exactly {!wire_length}[ p]
    bytes and writes it in place: nothing grows or is copied out.
    @raise Invalid_argument when a body exceeds 65535 bytes or a TTL
    is outside [\[0, 255\]]. *)

val decode : string -> (Packet.t, string) result
(** Parse; [Error] describes the first malformed field. Every packet
    produced by {!encode} decodes back to an equal value (round-trip
    property in the test-suite). *)

val wire_length : Packet.t -> int
(** Encoded size in bytes, without encoding. *)

val data_length : int -> int
(** [data_length n] is the encoded size of a native data packet with
    an [n]-byte body: the fixed 11-byte header, the u16 body length,
    then the body. An encapsulated packet's {!wire_length} minus
    [data_length] of its body is the §3.3.2 encapsulation overhead. *)

(** {2 Header peeks}

    A forwarding element only needs the fixed 11-byte header to make
    its per-hop decision (§3.3.2: tunnel transit routers treat the
    IPvN payload as opaque bytes). A peek reads one header field
    straight out of the encoded bytes without allocating or parsing
    the payload — the data-plane hot path. *)

val peek_dst_or : string -> default:Ipv4.t -> Ipv4.t
(** IPv4 destination (bytes 6-9) of an encoded packet, or [default]
    when the string is shorter than the fixed header or not format
    version 1. Returning the fallback instead of an option lets the
    per-packet path read the destination without allocating. *)

(** {2 Arena views}

    The sharded data plane (DESIGN.md §11) keeps packet bytes in
    pre-allocated {!Arena} slabs so the steady-state forwarding loop
    never touches the GC. These variants encode into and peek out of
    an [(off, len)] view of a slab instead of a heap string; §3.3.2's
    opaque-payload rule means per-hop forwarding only ever reads the
    fixed 11-byte header of the view. *)

val encode_into : Packet.t -> Arena.t -> int
(** [encode_into p arena] serializes [p] into freshly bump-allocated
    arena bytes and returns the slab offset; the view length is
    {!wire_length}[ p]. Byte-for-byte identical to {!encode}.
    @raise Invalid_argument when the arena is exhausted, a body
    exceeds 65535 bytes, or a TTL is outside [\[0, 255\]]. *)

val peek_dst_big : Arena.buf -> off:int -> len:int -> default:Ipv4.t -> Ipv4.t
(** IPv4 destination of the encoded packet at [(off, len)], or
    [default] when the view is out of bounds, shorter than the fixed
    header, or not format version 1. Allocation-free. *)

val peek_ttl_big : Arena.buf -> off:int -> len:int -> default:int -> int
(** TTL (byte 10) of the encoded packet at [(off, len)], or [default]
    under the same conditions as {!peek_dst_big}. Allocation-free. *)

val decode_big : Arena.buf -> off:int -> len:int -> (Packet.t, string) result
(** Copying decode of the view — the boundary/test-suite counterpart
    proving {!encode_into} round-trips; not for the per-hop path. *)
