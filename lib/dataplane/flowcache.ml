module Ipv4 = Netcore.Ipv4

(* Split key/value arrays rather than one [(key * value) option array]:
   [values.(i)] holds the [Some v] that [lookup] returns, so a cache hit
   allocates nothing. The cell is the one [refill] was given, so a
   refill with a cell the caller already holds allocates nothing either.
   [keys.(i)] is meaningful only where [values.(i)] is [Some _]. *)
type 'a t = {
  keys : Ipv4.t array;
  values : 'a option array;
  mask : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; occupied : int }

let create ~slots =
  if slots <= 0 then invalid_arg "Flowcache.create: slots must be positive";
  (* doubling stops before it could pass the largest array (or wrap) *)
  let rec pow2 k =
    if k >= slots then k
    else if k > Sys.max_array_length / 2 then
      invalid_arg "Flowcache.create: slots exceed the largest array"
    else pow2 (k * 2)
  in
  let n = pow2 1 in
  {
    keys = Array.make n (Ipv4.of_int 0);
    values = Array.make n None;
    mask = n - 1;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = Array.length t.values

(* Fibonacci (multiplicative) hashing before masking: endhost addresses
   are domain-/16-aligned with tiny host parts, so raw low bits would
   map every destination in the internet onto a handful of slots. *)
let slot_of t addr =
  let h = Ipv4.to_int addr * 0x9E3779B1 in
  (h lsr 15) land t.mask

let lookup t addr =
  let i = slot_of t addr in
  match t.values.(i) with
  | Some _ as hit when Ipv4.equal t.keys.(i) addr ->
      t.hits <- t.hits + 1;
      hit
  | Some _ | None ->
      t.misses <- t.misses + 1;
      None

let refill t addr cell =
  match cell with
  | None -> ()
  | Some _ ->
      let i = slot_of t addr in
      (match t.values.(i) with
      | Some _ when not (Ipv4.equal t.keys.(i) addr) ->
          t.evictions <- t.evictions + 1
      | Some _ | None -> ());
      t.keys.(i) <- addr;
      t.values.(i) <- cell

let insert t addr v = refill t addr (Some v)

let find t addr ~compute =
  match lookup t addr with
  | Some _ as hit -> hit
  | None ->
      let r = compute addr in
      refill t addr r;
      r

let clear t = Array.fill t.values 0 (Array.length t.values) None

let stats t =
  let occupied =
    Array.fold_left
      (fun n s -> match s with None -> n | Some _ -> n + 1)
      0 t.values
  in
  { hits = t.hits; misses = t.misses; evictions = t.evictions; occupied }
