type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { slab : buf; mutable used : int }

let create ~bytes =
  if bytes < 0 then invalid_arg "Arena.create: negative size";
  { slab = Bigarray.Array1.create Bigarray.char Bigarray.c_layout bytes; used = 0 }

let buf t = t.slab

(* Bump allocation: a single mutable cursor, no per-packet header, no
   free list. Returns -1 on exhaustion instead of an option, so a caller
   allocates nothing to learn it. *)
let alloc t len =
  if len < 0 then invalid_arg "Arena.alloc: negative length";
  let off = t.used in
  if off + len > Bigarray.Array1.dim t.slab then -1
  else begin
    t.used <- off + len;
    off
  end

let reset t = t.used <- 0
