type summary = { n : int; mean : float; stddev : float; ci95 : float }

(* two-sided 95% critical values of Student's t, df = 1..30 *)
let t_table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
    2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
    2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
  |]

let t_critical_95 df =
  if df <= 0 then nan
  else if df <= Array.length t_table then t_table.(df - 1)
  else 1.96

let summarize = function
  | [] -> { n = 0; mean = nan; stddev = nan; ci95 = nan }
  | [ x ] -> { n = 1; mean = x; stddev = 0.0; ci95 = 0.0 }
  | xs ->
      let n = List.length xs in
      let fn = float_of_int n in
      let mean = List.fold_left ( +. ) 0.0 xs /. fn in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
        /. (fn -. 1.0)
      in
      let stddev = sqrt var in
      let ci95 = t_critical_95 (n - 1) *. stddev /. sqrt fn in
      { n; mean; stddev; ci95 }

let to_string s =
  if Float.is_nan s.mean then "-"
  else Printf.sprintf "%.2f +/- %.2f" s.mean s.ci95
