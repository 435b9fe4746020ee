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
    (provider).

    One codec: {!encode} is the only writer. The serial pump and the
    sharded pool both encode a packet with it and read its destination
    back with {!peek_dst_or}; {!encode_into} copies the same image into
    an {!Arena} slab. *)

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

(** {2 Arena copy} *)

val encode_into : Packet.t -> Arena.t -> int
(** [encode_into p arena] is {!encode}[ p] copied into freshly
    bump-allocated arena bytes; it returns the slab offset, and the
    view is {!wire_length}[ p] bytes long. The data plane never calls
    it: a shard reads only the header fields staged from {!encode}'s
    image (§3.3.2: transit treats the payload as opaque bytes).
    @raise Invalid_argument when the arena has fewer than
    {!wire_length}[ p] bytes left, a body exceeds 65535 bytes, or a
    TTL is outside [\[0, 255\]]. *)
