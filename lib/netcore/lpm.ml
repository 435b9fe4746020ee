(* A plain (non-compressed) binary trie over address bits. Depth is
   bounded by 32, so the lack of path compression costs little and keeps
   the structure easy to verify. A node is one inline-record block.

   [Frozen] is the other form of a table, built by [freeze] from a
   binding list and holding no trie: [keys]/[vals] are its bindings
   sorted by [Prefix.compare], one per prefix, and [starts]/[cells] its
   interval layout — [starts.(i)] is the first address of interval i in
   increasing order ([starts.(0) = 0]) and [cells.(i)] the value cell
   of the longest bound prefix covering it, or [None] where nothing is
   bound. Adjacent intervals hold values that differ under the [equal]
   given to [freeze]. A [Frozen] only ever stands at the root: [add],
   [remove] and [map] rebuild a trie from its bindings. *)

type 'a t =
  | Leaf
  | Node of { value : 'a option; zero : 'a t; one : 'a t }
  | Frozen of {
      keys : Prefix.t array;
      vals : 'a array;
      starts : int array;
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

(* The largest [i] in [\[lo, hi)] with [starts.(i) <= a], given
   [starts.(lo) <= a]. *)
let rec search starts a lo hi =
  if hi - lo <= 1 then lo
  else
    let mid = (lo + hi) lsr 1 in
    if starts.(mid) <= a then search starts a mid hi else search starts a lo mid

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
  | Frozen f -> f.cells.(search f.starts a 0 (Array.length f.starts))

let lookup_value addr t = lookup_value_bits (Ipv4.to_int addr) 0 t None

(* --- freezing ------------------------------------------------------ *)

(* The bindings sorted by [Prefix.compare] — every prefix before the
   longer ones it covers, so the order of a trie's pre-order walk —
   with the last binding of each prefix kept, as sequential [add]s
   would. *)
let sorted_bindings bindings =
  let rec last_of_each = function
    | (p, _) :: ((q, _) :: _ as rest) when Prefix.equal p q -> last_of_each rest
    | b :: rest -> b :: last_of_each rest
    | [] -> []
  in
  let kept = last_of_each (List.stable_sort (fun (p, _) (q, _) -> Prefix.compare p q) bindings) in
  (Array.of_list (List.map fst kept), Array.of_list (List.map snd kept))

(* One sweep over the sorted keys, collecting the intervals latest
   first. [stack] holds the open prefixes covering the sweep point,
   innermost first, as (last address, cell); a sorted key either lies
   inside the innermost one still open or after it, so the stack is at
   most 33 deep. Each key emits a piece at its first address, and each
   close a piece after its last address carrying the next enclosing
   cell. [emit] drops a piece that a later one at the same address
   replaces, and extends the previous interval over a piece whose value
   is [equal] to it. Only the arrays the table keeps are allocated as
   arrays: a table's intermediates are short-lived lists. *)
let freeze ~equal bindings =
  let keys, vals = sorted_bindings bindings in
  let same a b =
    match (a, b) with
    | Some x, Some y -> equal x y
    | None, None -> true
    | _ -> false
  in
  let emit start cell acc =
    let acc = match acc with (s, _) :: earlier when s = start -> earlier | _ -> acc in
    match acc with (_, c) :: _ when same c cell -> acc | _ -> (start, cell) :: acc
  in
  let enclosing = function (_, cell) :: _ -> cell | [] -> None in
  let rec close stack upto acc =
    match stack with
    | (last, _) :: rest when last < upto -> close rest upto (emit (last + 1) (enclosing rest) acc)
    | _ -> (stack, acc)
  in
  let rec sweep i stack acc =
    if i = Array.length keys then
      (* prefixes that end at the top of the space never close *)
      snd (close stack 0xFFFF_FFFF acc)
    else
      let p = keys.(i) in
      let first = Ipv4.to_int (Prefix.network p) in
      let stack, acc = close stack first acc in
      let cell = Some vals.(i) in
      sweep (i + 1) ((first + Prefix.size p - 1, cell) :: stack) (emit first cell acc)
  in
  let latest_first = sweep 0 [] (emit 0 None []) in
  let n = List.length latest_first in
  let starts = Array.make n 0 and cells = Array.make n None in
  List.iteri
    (fun i (start, cell) ->
      starts.(n - 1 - i) <- start;
      cells.(n - 1 - i) <- cell)
    latest_first;
  Frozen { keys; vals; starts; cells }

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

let bindings t =
  fold (fun p v acc -> (p, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)

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
