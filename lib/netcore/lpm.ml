(* A plain (non-compressed) binary trie over address bits. Depth is
   bounded by 32, so the lack of path compression costs little and keeps
   the structure easy to verify. A node is one inline-record block.

   [Frozen] is the other form of a table, built by [fill] over a
   [layout] and holding no trie: [keys]/[vals] are its bindings
   sorted by [Prefix.compare], one per prefix, and [line]/[cells] its
   interval layout. Interval i starts at address [line.(2 * i)], in
   increasing order ([line.(0) = 0]); [line.(2 * i + 1)] is the tag of
   the longest bound prefix's value covering it, or [no_tag] where
   nothing is bound, and [cells.(i)] that value's cell, or [None].
   Adjacent intervals hold different tags. Start and tag sit side by
   side so that [lookup_tag] reads one int array and no pointer. A
   [Frozen] only ever stands at the root: [add], [remove] and [map]
   rebuild a trie from its bindings. *)

type 'a t =
  | Leaf
  | Node of { value : 'a option; zero : 'a t; one : 'a t }
  | Frozen of {
      keys : Prefix.t array;
      vals : 'a array;
      line : int array;
      cells : 'a option array;
    }

let empty = Leaf

let node value zero one =
  match (value, zero, one) with
  | None, Leaf, Leaf -> Leaf
  | _ -> Node { value; zero; one }

let is_empty = function
  | Leaf -> true
  | Node _ -> false
  | Frozen f -> Array.length f.keys = 0

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
  | Frozen f -> add_bits net depth len v (thaw f.keys f.vals)

(* The trie of a frozen table's bindings, added in key order. *)
and thaw keys vals =
  let t = ref Leaf in
  Array.iteri
    (fun i p -> t := add_bits (Ipv4.to_int (Prefix.network p)) 0 (Prefix.length p) vals.(i) !t)
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
  | Frozen f -> remove_bits net depth len (thaw f.keys f.vals)

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
  | Frozen f -> (
      match find_key f.keys net len with -1 -> None | i -> Some f.vals.(i))

let find_exact p t =
  find_exact_bits (Ipv4.to_int (Prefix.network p)) 0 (Prefix.length p) t

(* A frozen table keeps no trie to walk: try each length from the
   longest, masking the address down to it. *)
let lookup_sorted keys vals addr =
  let a = Ipv4.to_int addr in
  let rec go len =
    if len < 0 then None
    else
      let net = if len = 0 then 0 else (a lsr (32 - len)) lsl (32 - len) in
      match find_key keys net len with
      | -1 -> go (len - 1)
      | i -> Some (Prefix.make addr len, vals.(i))
  in
  go 32

let lookup addr t =
  let a = Ipv4.to_int addr in
  let rec go depth t best =
    match t with
    | Leaf -> best
    | Node n ->
        let best =
          match n.value with
          | Some v -> Some (Prefix.make addr depth, v)
          | None -> best
        in
        if depth = 32 then best
        else if bit a depth then go (depth + 1) n.one best
        else go (depth + 1) n.zero best
    | Frozen f -> lookup_sorted f.keys f.vals addr
  in
  go 0 t None

(* The largest interval [i] in [\[lo, hi)] whose start
   [line.(2 * i)] is at most [a], given that [lo]'s is. Typed, so that
   the comparison is an integer one and the reads skip the float-array
   test. *)
let rec search (line : int array) (a : int) lo hi =
  if hi - lo <= 1 then lo
  else
    let mid = (lo + hi) lsr 1 in
    if line.(2 * mid) <= a then search line a mid hi else search line a lo mid

let intervals line = Array.length line / 2

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
  | Frozen f -> f.cells.(search f.line a 0 (intervals f.line))

let lookup_value addr t = lookup_value_bits (Ipv4.to_int addr) 0 t None

let no_tag = min_int

let lookup_tag addr = function
  | Frozen f ->
      let line = f.line in
      line.((2 * search line (Ipv4.to_int addr) 0 (intervals line)) + 1)
  | Leaf | Node _ -> invalid_arg "Lpm.lookup_tag: the table is not frozen"

(* --- freezing ------------------------------------------------------ *)

(* A prefix as one int whose order is [Prefix.compare]'s: the network
   above the length. *)
let code p = (Ipv4.to_int (Prefix.network p) lsl 6) lor Prefix.length p
let code_first c = c lsr 6
let code_last c = (c lsr 6) + (1 lsl (32 - (c land 63))) - 1

(* [keys]: the distinct prefixes in [Prefix.compare] order, every
   prefix before the longer ones it covers; [slot_of.(i)] the key of
   the i-th prefix given; [parent.(k)] the innermost key enclosing key
   [k], or -1. [starts]/[inner]: the elementary intervals, [starts.(0)
   = 0] and increasing, over each of which the innermost covering key
   is [inner.(j)] (-1 where no key covers it). *)
type layout = {
  keys : Prefix.t array;
  slot_of : int array;
  parent : int array;
  starts : int array;
  inner : int array;
}

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
  let starts = Array.make ((2 * k) + 1) 0 and inner = Array.make ((2 * k) + 1) (-1) in
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
  {
    keys;
    slot_of;
    parent;
    starts = Array.sub starts 0 !pieces;
    inner = Array.sub inner 0 !pieces;
  }

let slots l = Array.length l.keys
let slot l i = l.slot_of.(i)

let fill ~tag l values =
  let k = Array.length l.keys in
  if Array.length values <> k then invalid_arg "Lpm.fill: one value per slot of the layout";
  (* One pass in key order, where a parent precedes the keys it
     encloses: [tags.(key)] is the tag of the longest bound match
     inside [key] — its own value's, or its innermost bound ancestor's
     ([no_tag] where none is bound) — and the bound values and their
     keys are gathered in key order. Keys are copied only once a slot
     turns out unbound; a fully bound layout shares its keys. *)
  let tags = Array.make k no_tag in
  let vals =
    match Array.find_opt Option.is_some values with Some (Some v) -> Array.make k v | _ -> [||]
  in
  let kept = ref 0 and keys = ref l.keys and shared = ref true in
  for key = 0 to k - 1 do
    match values.(key) with
    | Some v ->
        let t = tag v in
        if t = no_tag then invalid_arg "Lpm.fill: a value's tag is no_tag";
        tags.(key) <- t;
        vals.(!kept) <- v;
        if not !shared then !keys.(!kept) <- l.keys.(key);
        incr kept
    | None ->
        if !shared then begin
          keys := Array.copy l.keys;
          shared := false
        end;
        let p = l.parent.(key) in
        if p >= 0 then tags.(key) <- tags.(p)
  done;
  let keys = if !shared then l.keys else Array.sub !keys 0 !kept in
  let vals = if !kept = k then vals else Array.sub vals 0 !kept in
  let rec cell key =
    if key < 0 then None else match values.(key) with None -> cell l.parent.(key) | c -> c
  in
  (* the maximal runs of elementary intervals with equal tags, each
     keeping its first interval's cell: counted, then written into
     arrays of their exact size *)
  let inner = l.inner and starts = l.starts in
  let e = Array.length starts in
  let tag_at j = match inner.(j) with -1 -> no_tag | key -> tags.(key) in
  let runs = ref 1 and last = ref (tag_at 0) in
  for j = 1 to e - 1 do
    let t = tag_at j in
    if t <> !last then begin
      incr runs;
      last := t
    end
  done;
  let line = Array.make (2 * !runs) 0 and cells = Array.make !runs None in
  line.(1) <- tag_at 0;
  cells.(0) <- cell inner.(0);
  let n = ref 0 in
  for j = 1 to e - 1 do
    let t = tag_at j in
    if t <> line.((2 * !n) + 1) then begin
      incr n;
      line.(2 * !n) <- starts.(j);
      line.((2 * !n) + 1) <- t;
      cells.(!n) <- cell inner.(j)
    end
  done;
  Frozen { keys; vals; line; cells }

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
        Array.iteri (fun i p -> acc := f p fz.vals.(i) !acc) fz.keys;
        !acc
  in
  go 0 0 t acc

let iter f t = fold (fun p v () -> f p v) t ()

let bindings t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

let cardinal = function
  | Frozen f -> Array.length f.keys
  | t -> fold (fun _ _ n -> n + 1) t 0

let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l

let rec map f = function
  | Leaf -> Leaf
  | Node n -> Node { value = Option.map f n.value; zero = map f n.zero; one = map f n.one }
  | Frozen fz -> map f (thaw fz.keys fz.vals)

let union f a b =
  fold
    (fun p vb acc ->
      match find_exact p acc with
      | None -> add p vb acc
      | Some va -> add p (f p va vb) acc)
    b a
