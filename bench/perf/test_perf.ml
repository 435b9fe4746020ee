(* Unit tests for the benchmark's own arithmetic and formats: order
   statistics against Python's statistics module, the typed JSON
   printer's finiteness rule, and --compare on synthetic documents. *)

open Perfkit

let check = Alcotest.check
let floats = Alcotest.(list (float 1e-12))

(* reference values from Python 3's statistics.quantiles(data, n=4) *)
let test_quantiles () =
  check floats "1..10" [ 2.75; 5.5; 8.25 ]
    (Stats.quantiles ~n:4 (List.init 10 (fun i -> float_of_int (i + 1))));
  check floats "two points extrapolate" [ 0.5; 2.0; 3.5 ] (Stats.quantiles ~n:4 [ 3.0; 1.0 ]);
  check floats "three points" [ 1.0; 4.0; 5.0 ] (Stats.quantiles ~n:4 [ 5.0; 1.0; 4.0 ]);
  check floats "unsorted" [ 0.25; 1.0; 4.0 ]
    (Stats.quantiles ~n:4 [ 0.5; 0.25; 0.125; 1.0; 2.0; 8.0; 4.0 ]);
  check floats "one point" [ 7.0; 7.0; 7.0 ] (Stats.quantiles ~n:4 [ 7.0 ]);
  check (Alcotest.float 0.0) "even median" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_tail () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let tail = Alcotest.(option (pair int (float 0.0))) in
  check tail "lower is better: p90" (Some (90, 90.0)) (Stats.tail ~better:Stats.Lower xs);
  check tail "higher is better: p10" (Some (10, 11.0)) (Stats.tail ~better:Stats.Higher xs);
  check tail "ten trials support no tail" None
    (Stats.tail ~better:Stats.Lower (List.init 10 float_of_int))

let test_json_strings () =
  let v = Json.(Obj [ ("name", Str "inference-nan-inf"); ("x", Num 1.5); ("n", Num 3.0) ]) in
  match Json.to_string v with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check Alcotest.string "printed" {|{"name":"inference-nan-inf","x":1.5,"n":3}|} s;
      check Alcotest.bool "reads back" true (Json.parse s = Ok v)

let test_json_nan () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "perfkit_nan_test.json" in
  if Sys.file_exists path then Sys.remove path;
  let doc = Json.(Obj [ ("end_to_end", Obj [ ("ops_per_s", Obj [ ("median", Num Float.nan) ]) ]) ]) in
  (match Json.write ~path doc with
  | Ok () -> Alcotest.fail "a NaN metric was written"
  | Error e ->
      check Alcotest.string "names the field" "non-finite number at end_to_end.ops_per_s.median" e);
  check Alcotest.bool "no file" false (Sys.file_exists path);
  check Alcotest.bool "no temporary file" false (Sys.file_exists (path ^ ".tmp"));
  check Alcotest.bool "infinity refused" true
    (Result.is_error (Json.to_string (Json.Arr [ Json.Num Float.infinity ])))

(* a run document as main.exe writes it, reduced to what --compare reads *)
let doc ?(failed_frac = 0.0) workload values =
  Json.(
    Obj
      [
        ("workload", Str workload);
        ("checks", Obj [ ("failed_frac", Num failed_frac) ]);
        ( "end_to_end",
          Obj [ ("ops_per_s", Obj [ ("values", Arr (List.map (fun v -> Num v) values)) ]) ] );
      ])

let bounds =
  Compare.bounds_of_benchmark
    Json.(
      Obj
        [
          ( "end_to_end",
            Arr
              [ Obj [ ("name", Str "ops_per_s"); ("better", Str "higher"); ("bound", Num 0.1) ] ] );
        ])

let verdict a b =
  match (Compare.compare ~bounds [ doc "w" a ] [ doc "w" b ]).Compare.rows with
  | [ row ] -> Compare.verdict_to_string row.Compare.verdict
  | rows -> Alcotest.failf "%d rows" (List.length rows)

let steady c = [ c *. 0.99; c; c *. 1.01; c; c *. 1.005 ]

let test_compare () =
  check Alcotest.string "small move" "within bound" (verdict (steady 100.0) (steady 95.0));
  check Alcotest.string "throughput fell" "worse" (verdict (steady 100.0) (steady 80.0));
  check Alcotest.string "throughput rose" "better" (verdict (steady 100.0) (steady 130.0));
  let noisy = [ 60.0; 100.0; 140.0; 90.0; 110.0 ] in
  check Alcotest.string "spread beyond bound" "unresolved" (verdict noisy (steady 100.0));
  check Alcotest.string "dominated despite spread" "worse"
    (verdict [ 100.0; 130.0; 160.0; 115.0 ] [ 40.0; 60.0; 80.0; 50.0 ]);
  let r = Compare.compare ~bounds [ doc "w" (steady 1.0) ] [ doc "w" (steady 1.0) ] in
  check Alcotest.bool "same numbers pass" false (Compare.failed r);
  let r =
    Compare.compare ~bounds [ doc "w" (steady 1.0) ] [ doc ~failed_frac:0.01 "w" (steady 1.0) ]
  in
  check Alcotest.bool "more failed checks fail" true (Compare.failed r);
  let r = Compare.compare ~bounds [ doc "w" (steady 1.0) ] [ doc "w" (steady 0.5) ] in
  check Alcotest.bool "a worse metric fails" true (Compare.failed r)

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "quantiles match Python" `Quick test_quantiles;
          Alcotest.test_case "tail percentile" `Quick test_tail;
        ] );
      ( "json",
        [
          Alcotest.test_case "inf and nan inside strings" `Quick test_json_strings;
          Alcotest.test_case "NaN metric leaves no file" `Quick test_json_nan;
        ] );
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_compare ]);
    ]
