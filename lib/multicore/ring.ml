type 'a t = {
  buf : 'a array;
  mask : int;
  dummy : 'a;
  head : int Atomic.t; (* next slot to pop; written only by the consumer *)
  tail : int Atomic.t; (* next slot to push; written only by the producer *)
}

let create ~capacity ~dummy =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  let rec pow2 n = if n >= capacity then n else pow2 (n * 2) in
  let n = pow2 1 in
  {
    buf = Array.make n dummy;
    mask = n - 1;
    dummy;
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }

let capacity t = Array.length t.buf

(* tail and head are read in two separate loads, not a snapshot: a
   cross-domain caller can observe a tail from before a concurrent push
   paired with a head from after a concurrent pop (or vice versa), so
   the raw difference can transiently be negative or exceed the
   capacity. Clamp into [0, capacity] — the only honest answer a
   non-owner can give. Each endpoint's own side stays exact. *)
let length t =
  let n = Atomic.get t.tail - Atomic.get t.head in
  if n < 0 then 0
  else if n > Array.length t.buf then Array.length t.buf
  else n

let is_empty t = length t = 0

(* Publication order is what makes this safe across domains: the slot
   write happens before the Atomic.set on tail (a seq_cst store), and
   the consumer reads tail (seq_cst load) before touching the slot.
   Head mirrors the argument for slot reuse in the other direction. *)
let push t x =
  let tl = Atomic.get t.tail in
  let occ = tl - Atomic.get t.head in
  (* producer owns tail, and head only advances: a stale head read can
     only overstate occupancy, never make it negative *)
  assert (occ >= 0);
  if occ >= Array.length t.buf then false
  else begin
    t.buf.(tl land t.mask) <- x;
    Atomic.set t.tail (tl + 1);
    true
  end

let pop t =
  let hd = Atomic.get t.head in
  let occ = Atomic.get t.tail - hd in
  (* consumer owns head and never advances it past an observed tail;
     tail is monotonic, so the occupancy it computes is never negative
     and never exceeds what the producer was allowed to publish *)
  assert (occ >= 0 && occ <= Array.length t.buf);
  if occ <= 0 then invalid_arg "Ring.pop: empty";
  let i = hd land t.mask in
  let x = t.buf.(i) in
  (* drop the slot's reference so popped elements don't leak through
     the ring; the dummy write also keeps pop allocation-free *)
  t.buf.(i) <- t.dummy;
  Atomic.set t.head (hd + 1);
  x
