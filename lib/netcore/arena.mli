(** Pre-allocated byte slabs for packet wire images.

    §3.3.2's forwarding model treats packet payloads as opaque bytes.
    An arena is one [Bigarray] slab of raw bytes outside the OCaml
    heap, with a bump cursor handing out offsets; {!Wire.encode_into}
    copies a packet's wire image into it. The data plane does not use
    one: its walks and handoffs carry header fields only (DESIGN.md
    §11.3). Lifetime rule: offsets handed out by {!alloc} stay valid
    until the owner calls {!reset}. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The raw slab: a C-layout byte bigarray. *)

type t
(** An arena: one slab plus a bump cursor. Owned by a single writer. *)

val create : bytes:int -> t
(** [create ~bytes] allocates a slab of [bytes] bytes.
    @raise Invalid_argument when [bytes] is negative. *)

val alloc : t -> int -> int
(** [alloc t len] reserves [len] bytes and returns the slab offset, or
    [-1] when the slab is exhausted — an int sentinel rather than an
    option, so learning it allocates nothing.
    @raise Invalid_argument when [len] is negative. *)

val buf : t -> buf
(** The backing slab. Offsets from {!alloc} index into this. *)

val reset : t -> unit
(** Rewind the bump cursor to zero, invalidating all outstanding
    offsets, so the slab is reused without new allocation. *)
