(* Order statistics for trial series.

   [quantiles] is Python's [statistics.quantiles(data, n)] with its
   default "exclusive" method, digit for digit, so the spreads the
   README quotes are the ones any checker computing them that way
   sees. *)

type better = Higher | Lower

let better_to_string = function Higher -> "higher" | Lower -> "lower"

let better_of_string = function
  | "higher" -> Some Higher
  | "lower" -> Some Lower
  | _ -> None

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no data"
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quantiles ~n xs =
  let a = sorted xs in
  let ld = Array.length a in
  if n < 1 then invalid_arg "Stats.quantiles: n must be positive";
  if ld = 0 then invalid_arg "Stats.quantiles: no data";
  if ld = 1 then List.init (n - 1) (fun _ -> a.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun i ->
        let i = i + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n)

(* The worst-side value with at least ten trials beyond it: for a
   lower-is-better series the rank-(n-10) value from the bottom, for a
   higher-is-better one the rank-11 value. [pct] names its percentile.
   None below eleven trials, where no such value exists. *)
let tail ~better xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 10 then None
  else
    let k = n - 10 in
    let pct = 100 * k / n in
    match better with
    | Lower -> Some (pct, a.(k - 1))
    | Higher -> Some (100 - pct, a.(n - k))

type summary = {
  median : float;
  q1 : float;
  q3 : float;
  tail : (int * float) option;
  n : int;
  values : float list;
}

let summarize ~better values =
  match quantiles ~n:4 values with
  | [ q1; _; q3 ] ->
      {
        median = median values;
        q1;
        q3;
        tail = tail ~better values;
        n = List.length values;
        values;
      }
  | _ -> assert false

(* quartile distance as a share of the median *)
let spread s = if s.median = 0.0 then infinity else (s.q3 -. s.q1) /. Float.abs s.median
