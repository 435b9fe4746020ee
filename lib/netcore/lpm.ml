(* A plain (non-compressed) binary trie over address bits. Depth is
   bounded by 32, so the lack of path compression costs little and keeps
   the structure easy to verify. A node is one inline-record block.

   [Frozen] is the other form of a table, built by [fill] over a
   [layout] and holding no trie. Its intervals are the layout's
   elementary ones: interval i starts at address [starts.(i)], the
   layout's own array, shared by every table filled over it
   ([starts.(0) = 0], increasing, and one sentinel above every address
   after the last), and [tags.(i)] is the tag of the longest bound
   prefix's value covering it, or [no_tag] where nothing is bound.
   [cells] holds one entry per slot of the layout: the bound value's
   own [Some] cell, or [None] where the slot is unbound; [cardinal]
   counts the bound ones. A [Frozen] only ever stands at the root:
   [add], [remove] and [map] rebuild a trie from its bindings. *)

(* [keys]: the distinct prefixes in [Prefix.compare] order, every
   prefix before the longer ones it covers; [slot_of.(i)] the key of
   the i-th prefix given; [parent.(k)] the innermost key enclosing key
   [k], or -1. [starts]/[inner]: the elementary intervals, [starts.(0)
   = 0] and increasing, over each of which the innermost covering key
   is [inner.(j)] (-1 where no key covers it); [starts] has one more
   entry than [inner], a sentinel above every address, so that interval
   j ends where [starts.(j + 1)] begins for every j. *)
type layout = {
  keys : Prefix.t array;
  slot_of : int array;
  parent : int array;
  starts : int array;
  inner : int array;
}

type 'a t =
  | Leaf
  | Node of { value : 'a option; zero : 'a t; one : 'a t }
  | Frozen of {
      starts : int array;
      tags : int array;
      layout : layout;
      cells : 'a option array;
      cardinal : int;
    }

let empty = Leaf

let node value zero one =
  match (value, zero, one) with
  | None, Leaf, Leaf -> Leaf
  | _ -> Node { value; zero; one }

(* Bit [depth] of address value [a], 0 = most significant. Callers keep
   [depth < 32]: no trie is deeper than a /32. *)
let bit a depth = (a lsr (31 - depth)) land 1 = 1

let rec add_bits net depth len v t =
  match t with
  | Leaf ->
      if depth = len then node (Some v) Leaf Leaf
      else if bit net depth then node None Leaf (add_bits net (depth + 1) len v Leaf)
      else node None (add_bits net (depth + 1) len v Leaf) Leaf
  | Node n ->
      if depth = len then node (Some v) n.zero n.one
      else if bit net depth then node n.value n.zero (add_bits net (depth + 1) len v n.one)
      else node n.value (add_bits net (depth + 1) len v n.zero) n.one
  | Frozen f -> add_bits net depth len v (thaw f.layout.keys f.cells)

(* The trie of a frozen table's bindings, added in key order. *)
and thaw keys cells =
  let t = ref Leaf in
  Array.iteri
    (fun i p ->
      match cells.(i) with
      | Some v -> t := add_bits (Ipv4.to_int (Prefix.network p)) 0 (Prefix.length p) v !t
      | None -> ())
    keys;
  !t

let add p v t = add_bits (Ipv4.to_int (Prefix.network p)) 0 (Prefix.length p) v t

let rec remove_bits net depth len t =
  match t with
  | Leaf -> Leaf
  | Node n ->
      if depth = len then node None n.zero n.one
      else if bit net depth then node n.value n.zero (remove_bits net (depth + 1) len n.one)
      else node n.value (remove_bits net (depth + 1) len n.zero) n.one
  | Frozen f -> remove_bits net depth len (thaw f.layout.keys f.cells)

let remove p t = remove_bits (Ipv4.to_int (Prefix.network p)) 0 (Prefix.length p) t

(* The index of the key [net]/[len] in the sorted [keys], or -1: a
   binary search in [Prefix.compare] order (network, then length). *)
let find_key keys net len =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let k = keys.(mid) in
      let c =
        match Int.compare (Ipv4.to_int (Prefix.network k)) net with
        | 0 -> Int.compare (Prefix.length k) len
        | c -> c
      in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length keys)

let rec find_exact_bits net depth len t =
  match t with
  | Leaf -> None
  | Node n ->
      if depth = len then n.value
      else if bit net depth then find_exact_bits net (depth + 1) len n.one
      else find_exact_bits net (depth + 1) len n.zero
  | Frozen f -> ( match find_key f.layout.keys net len with -1 -> None | i -> f.cells.(i))

let find_exact p t =
  find_exact_bits (Ipv4.to_int (Prefix.network p)) 0 (Prefix.length p) t

(* The largest interval [i] in [\[lo, hi)] whose start [starts.(i)]
   is at most [a], given that [lo]'s is. Typed, so that the comparison
   is an integer one and the reads skip the float-array test. *)
let rec search (starts : int array) (a : int) lo hi =
  if hi - lo <= 1 then lo
  else
    let mid = (lo + hi) lsr 1 in
    if starts.(mid) <= a then search starts a mid hi else search starts a lo mid

(* The cell of the innermost bound key enclosing [key] (itself
   included), or [None]. *)
let rec bound_cell cells parent key =
  if key < 0 then None
  else match cells.(key) with None -> bound_cell cells parent parent.(key) | c -> c

(* The per-packet lookup: unlike [lookup] it never builds a prefix, and
   it returns a [Some] the table already holds, so a hit allocates
   nothing. The address threads through as an argument to keep the loop
   capture-free (hot-path-alloc). *)
let rec lookup_value_bits a depth t best =
  match t with
  | Leaf -> best
  | Node n ->
      let best = match n.value with Some _ as v -> v | None -> best in
      if depth = 32 then best
      else if bit a depth then lookup_value_bits a (depth + 1) n.one best
      else lookup_value_bits a (depth + 1) n.zero best
  | Frozen f ->
      let l = f.layout in
      bound_cell f.cells l.parent l.inner.(search f.starts a 0 (Array.length f.tags))

let lookup_value addr t = lookup_value_bits (Ipv4.to_int addr) 0 t None

let no_tag = min_int

let lookup_tag addr = function
  | Frozen f -> f.tags.(search f.starts (Ipv4.to_int addr) 0 (Array.length f.tags))
  | Leaf | Node _ -> invalid_arg "Lpm.lookup_tag: the table is not frozen"

(* The hint is taken when the address lies in its interval of this
   table: [near] is in range and its start and the next one's bound
   the address. Any int is a safe hint, one from another layout too. *)
let interval t addr ~near =
  match t with
  | Frozen f ->
      let a = Ipv4.to_int addr and starts = f.starts in
      if near >= 0 && near < Array.length f.tags && starts.(near) <= a && a < starts.(near + 1)
      then near
      else search starts a 0 (Array.length f.tags)
  | Leaf | Node _ -> invalid_arg "Lpm.interval: the table is not frozen"

let interval_tag t i =
  match t with
  | Frozen f -> f.tags.(i)
  | Leaf | Node _ -> invalid_arg "Lpm.interval_tag: the table is not frozen"

(* --- freezing ------------------------------------------------------ *)

(* A prefix as one int whose order is [Prefix.compare]'s: the network
   above the length. *)
let code p = (Ipv4.to_int (Prefix.network p) lsl 6) lor Prefix.length p
let code_first c = c lsr 6
let code_last c = (c lsr 6) + (1 lsl (32 - (c land 63))) - 1

(* The index of [c] in the sorted, distinct [codes]. *)
let find_code (codes : int array) (c : int) =
  let rec go lo hi =
    let mid = (lo + hi) lsr 1 in
    let m = codes.(mid) in
    if m = c then mid else if m < c then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length codes)

(* One sweep over the sorted keys. [stack] holds the keys open at the
   sweep point, innermost on top; a sorted key either lies inside the
   innermost one still open or after it, so lengths rise strictly up
   the stack, which is at most 33 deep. Each key emits a piece at its
   first address, and each close a piece after its last address naming
   the next enclosing key; a piece replaces one emitted at the same
   address. Two adjacent pieces never name the same key. *)
let layout ps =
  let codes = Array.map code ps in
  let sorted = Array.copy codes in
  Array.stable_sort Int.compare sorted;
  let distinct = ref 0 in
  Array.iteri
    (fun i c ->
      if i = 0 || sorted.(i - 1) <> c then begin
        sorted.(!distinct) <- c;
        incr distinct
      end)
    sorted;
  let uniq = Array.sub sorted 0 !distinct in
  let k = Array.length uniq in
  let slot_of = Array.map (find_code uniq) codes in
  let keys = if k = 0 then [||] else Array.make k ps.(0) in
  Array.iteri (fun i s -> keys.(s) <- ps.(i)) slot_of;
  let parent = Array.make k (-1) in
  (* room for the sentinel after the last piece *)
  let starts = Array.make ((2 * k) + 2) 0 and inner = Array.make ((2 * k) + 1) (-1) in
  let pieces = ref 1 in
  let emit start key =
    if starts.(!pieces - 1) = start then inner.(!pieces - 1) <- key
    else begin
      starts.(!pieces) <- start;
      inner.(!pieces) <- key;
      incr pieces
    end
  in
  let stack = Array.make 33 0 and depth = ref 0 in
  let top () = if !depth = 0 then -1 else stack.(!depth - 1) in
  let close upto =
    while !depth > 0 && code_last uniq.(top ()) < upto do
      let last = code_last uniq.(top ()) in
      decr depth;
      emit (last + 1) (top ())
    done
  in
  for key = 0 to k - 1 do
    let first = code_first uniq.(key) in
    close first;
    parent.(key) <- top ();
    stack.(!depth) <- key;
    incr depth;
    emit first key
  done;
  (* prefixes that end at the top of the space never close *)
  close 0xFFFF_FFFF;
  starts.(!pieces) <- max_int;
  {
    keys;
    slot_of;
    parent;
    starts = Array.sub starts 0 (!pieces + 1);
    inner = Array.sub inner 0 !pieces;
  }

let slots l = Array.length l.keys
let slot l i = l.slot_of.(i)

let fill ~tag l values =
  let k = Array.length l.keys in
  if Array.length values <> k then invalid_arg "Lpm.fill: one value per slot of the layout";
  (* One pass in key order, where a parent precedes the keys it
     encloses: [slot_tags.(key)] is the tag of the longest bound match
     inside [key] — its own value's, or its innermost bound ancestor's
     ([no_tag] where none is bound). *)
  let slot_tags = Array.make k no_tag and cardinal = ref 0 in
  for key = 0 to k - 1 do
    match values.(key) with
    | Some v ->
        let t = tag v in
        if t = no_tag then invalid_arg "Lpm.fill: a value's tag is no_tag";
        slot_tags.(key) <- t;
        incr cardinal
    | None ->
        let p = l.parent.(key) in
        if p >= 0 then slot_tags.(key) <- slot_tags.(p)
  done;
  (* each elementary interval takes its innermost key's tag *)
  let tags = Array.map (fun key -> if key < 0 then no_tag else slot_tags.(key)) l.inner in
  Frozen { starts = l.starts; tags; layout = l; cells = Array.copy values; cardinal = !cardinal }

let freeze ~tag bindings =
  let l = layout (Array.of_list (List.map fst bindings)) in
  let values = Array.make (slots l) None in
  (* read as a sequence of adds: a later binding of a prefix wins *)
  List.iteri (fun i (_, v) -> values.(l.slot_of.(i)) <- Some v) bindings;
  fill ~tag l values

(* --- whole-table views --------------------------------------------- *)

let fold f t acc =
  (* [path] is the address bits accumulated so far (as an int shifted to
     the high end), [depth] their count. *)
  let rec go path depth t acc =
    match t with
    | Leaf -> acc
    | Node n ->
        let acc =
          match n.value with
          | Some v -> f (Prefix.make (Ipv4.of_int path) depth) v acc
          | None -> acc
        in
        if depth = 32 then acc
        else
          let acc = go path (depth + 1) n.zero acc in
          go (path lor (1 lsl (31 - depth))) (depth + 1) n.one acc
    | Frozen fz ->
        let acc = ref acc in
        Array.iteri
          (fun i p -> match fz.cells.(i) with Some v -> acc := f p v !acc | None -> ())
          fz.layout.keys;
        !acc
  in
  go 0 0 t acc

let bindings t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

let cardinal = function
  | Frozen f -> f.cardinal
  | t -> fold (fun _ _ n -> n + 1) t 0

let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l

let union f a b =
  fold
    (fun p vb acc ->
      match find_exact p acc with
      | None -> add p vb acc
      | Some va -> add p (f p va vb) acc)
    b a
