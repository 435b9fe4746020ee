type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = create (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* 63-bit rejection-free reduction; bias is negligible for our bounds *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (int64 t) 1) (Int64.of_int bound))

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. x /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (int64 t) 1L = 1L
let bernoulli t p = float t 1.0 < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let pick_array t a =
  if Array.length a = 0 then invalid_arg "Rng.pick_array: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t k xs =
  let a = Array.of_list xs in
  shuffle t a;
  let k = min k (Array.length a) in
  Array.to_list (Array.sub a 0 k)

let exponential t mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  (* inverse-CDF over the precomputed normalizer; n is small in our
     experiments so the linear scan is fine *)
  let total = ref 0.0 in
  for k = 1 to n do
    total := !total +. (1.0 /. Float.pow (float_of_int k) s)
  done;
  let u = float t !total in
  let rec go k acc =
    if k > n then n
    else
      let acc = acc +. (1.0 /. Float.pow (float_of_int k) s) in
      if u < acc then k else go (k + 1) acc
  in
  go 1 0.0
