(* A plain (non-compressed) binary trie over address bits. Depth is
   bounded by 32, so the lack of path compression costs little and keeps
   the structure easy to verify. A node is one inline-record block.

   [Frozen] only ever stands at the root (built by [freeze], whose trie
   is never itself frozen): every operation but [lookup_value] descends
   into the trie it keeps, so [add] and [remove] return an unfrozen
   trie. Its interval layout is [starts.(i)], the first address of
   interval i in increasing order ([starts.(0) = 0]), and [cells.(i)],
   the value cell of the longest bound prefix covering it — the very
   [Some] of the trie node, or [None] where nothing is bound. *)

type 'a t =
  | Leaf
  | Node of { value : 'a option; zero : 'a t; one : 'a t }
  | Frozen of { trie : 'a t; starts : int array; cells : 'a option array }

let empty = Leaf

let node value zero one =
  match (value, zero, one) with
  | None, Leaf, Leaf -> Leaf
  | _ -> Node { value; zero; one }

let rec is_empty = function
  | Leaf -> true
  | Node _ -> false
  | Frozen f -> is_empty f.trie

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
  | Frozen f -> add_bits net depth len v f.trie

let add p v t = add_bits (Ipv4.to_int (Prefix.network p)) 0 (Prefix.length p) v t

let rec remove_bits net depth len t =
  match t with
  | Leaf -> Leaf
  | Node n ->
      if depth = len then node None n.zero n.one
      else if bit net depth then node n.value n.zero (remove_bits net (depth + 1) len n.one)
      else node n.value (remove_bits net (depth + 1) len n.zero) n.one
  | Frozen f -> remove_bits net depth len f.trie

let remove p t = remove_bits (Ipv4.to_int (Prefix.network p)) 0 (Prefix.length p) t

let rec find_exact_bits net depth len t =
  match t with
  | Leaf -> None
  | Node n ->
      if depth = len then n.value
      else if bit net depth then find_exact_bits net (depth + 1) len n.one
      else find_exact_bits net (depth + 1) len n.zero
  | Frozen f -> find_exact_bits net depth len f.trie

let find_exact p t =
  find_exact_bits (Ipv4.to_int (Prefix.network p)) 0 (Prefix.length p) t

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
    | Frozen f -> go depth f.trie best
  in
  go 0 t None

(* The largest [i] in [\[lo, hi)] with [starts.(i) <= a], given
   [starts.(lo) <= a]. *)
let rec search starts a lo hi =
  if hi - lo <= 1 then lo
  else
    let mid = (lo + hi) lsr 1 in
    if starts.(mid) <= a then search starts a mid hi else search starts a lo mid

(* The per-packet lookup: unlike [lookup] it never builds a prefix, and
   it returns the [Some] stored in the matching node, so a hit allocates
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
  | Frozen f -> f.cells.(search f.starts a 0 (Array.length f.starts))

let lookup_value addr t = lookup_value_bits (Ipv4.to_int addr) 0 t None

(* --- freezing ------------------------------------------------------ *)

(* The interval builder. A walk of the trie in address order emits one
   piece per empty subtree (and per /32 node), each carrying the
   deepest bound node above it; a piece starts a new interval only when
   that node differs from the previous piece's. A node is named by its
   prefix (first address and depth; -1 for "no match"), so consecutive
   pieces under one match merge even when the walk reaches them through
   different subtrees. The walk
   runs twice: counting ([fill = false]), then filling arrays of the
   counted size — no intermediate list. *)
type 'a builder = {
  fill : bool;
  starts : int array;
  cells : 'a option array;
  mutable n : int;
  mutable first : int; (* the previous piece's match: first address *)
  mutable depth : int; (* and prefix length, -1 before any piece *)
}

let emit b start cell first depth =
  if b.n = 0 || first <> b.first || depth <> b.depth then begin
    if b.fill then begin
      b.starts.(b.n) <- start;
      b.cells.(b.n) <- cell
    end;
    b.n <- b.n + 1;
    b.first <- first;
    b.depth <- depth
  end

(* [path]/[depth] is the subtree's prefix; [cell], [first], [fdepth]
   describe its deepest bound ancestor. *)
let rec pieces b t path depth cell first fdepth =
  match t with
  | Leaf -> emit b path cell first fdepth
  | Node { value = Some _ as v; zero; one } -> children b zero one path depth v path depth
  | Node { value = None; zero; one } -> children b zero one path depth cell first fdepth
  | Frozen f -> pieces b f.trie path depth cell first fdepth

and children b zero one path depth cell first fdepth =
  if depth = 32 then emit b path cell first fdepth
  else begin
    pieces b zero path (depth + 1) cell first fdepth;
    pieces b one (path lor (1 lsl (31 - depth))) (depth + 1) cell first fdepth
  end

let build t ~fill ~size =
  let b =
    { fill; starts = Array.make size 0; cells = Array.make size None; n = 0; first = 0; depth = -1 }
  in
  pieces b t 0 0 None 0 (-1);
  b

let freeze = function
  | Frozen _ as t -> t
  | trie ->
      let size = (build trie ~fill:false ~size:0).n in
      let b = build trie ~fill:true ~size in
      Frozen { trie; starts = b.starts; cells = b.cells }

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
    | Frozen fz -> go path depth fz.trie acc
  in
  go 0 0 t acc

let iter f t = fold (fun p v () -> f p v) t ()

let bindings t =
  fold (fun p v acc -> (p, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)

let cardinal t = fold (fun _ _ n -> n + 1) t 0
let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l

let rec map f = function
  | Leaf -> Leaf
  | Node n -> Node { value = Option.map f n.value; zero = map f n.zero; one = map f n.one }
  | Frozen fz -> map f fz.trie

let union f a b =
  fold
    (fun p vb acc ->
      match find_exact p acc with
      | None -> add p vb acc
      | Some va -> add p (f p va vb) acc)
    b a
