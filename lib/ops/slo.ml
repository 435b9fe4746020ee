type metrics = {
  detection_s : float option;
  reconverge_s : float option;
  blackhole_s : float;
  stale_frac : float;
  hijacked_peak : float;
}

type verdict = { metrics : metrics; pass : bool; failures : string list }

let tick_interval = 1.0

let measure r =
  let b = Drill.book r in
  let rows = Drill.rows r in
  let fault_at = b.Drillbook.fault_at in
  let detection_s =
    Option.map (fun t -> t -. fault_at) (Drill.detected_at r)
  in
  (* pre-fault delivery level: the last steady tick *)
  let steady_ok =
    List.fold_left
      (fun acc (row : Drill.tick_row) ->
        if row.Drill.time < fault_at then row.Drill.ok else acc)
      1.0 rows
  in
  (* first post-onset tick after which delivery never again drops
     below the steady level *)
  let reconverge_s =
    let rec scan = function
      | [] -> None
      | (row : Drill.tick_row) :: rest ->
          if
            row.Drill.time >= fault_at
            && row.Drill.ok >= steady_ok -. 1e-9
            && List.for_all
                 (fun (r' : Drill.tick_row) ->
                   r'.Drill.ok >= steady_ok -. 1e-9)
                 rest
          then Some (row.Drill.time -. fault_at)
          else scan rest
    in
    scan rows
  in
  let blackhole_s =
    List.fold_left
      (fun acc (row : Drill.tick_row) ->
        acc +. (row.Drill.lost *. tick_interval))
      0.0 rows
  in
  let stale_frac =
    match rows with
    | [] -> 0.0
    | _ ->
        List.fold_left
          (fun acc (row : Drill.tick_row) -> acc +. row.Drill.stale)
          0.0 rows
        /. float_of_int (List.length rows)
  in
  let hijacked_peak =
    List.fold_left
      (fun acc (row : Drill.tick_row) -> Float.max acc row.Drill.hijacked)
      0.0 rows
  in
  { detection_s; reconverge_s; blackhole_s; stale_frac; hijacked_peak }

(* One graded line per budget. A metric holds only when it was measured
   and [d <= budget] is true, so a NaN on either side misses rather than
   slipping past a [>] test; [evaluate] and [render] both read [ok]
   from here. *)
type line = { label : string; value : string; budget : string; ok : bool }

let lines (s : Drillbook.slo) m =
  let secs = Printf.sprintf "%.2fs" and frac = Printf.sprintf "%.3f" in
  let line label fmt value budget =
    {
      label;
      value = (match value with None -> "n/a" | Some d -> fmt d);
      budget = fmt budget;
      ok = (match value with None -> false | Some d -> d <= budget);
    }
  in
  [
    line "detection" secs m.detection_s s.Drillbook.max_detection;
    line "reconvergence" secs m.reconverge_s s.Drillbook.max_reconverge;
    line "blackhole" secs (Some m.blackhole_s) s.Drillbook.max_blackhole;
    line "stale" frac (Some m.stale_frac) s.Drillbook.max_stale;
    line "hijacked" frac (Some m.hijacked_peak) s.Drillbook.max_hijacked;
  ]

let evaluate r =
  let m = measure r in
  let failures =
    List.filter_map
      (fun l ->
        if l.ok then None
        else Some (Printf.sprintf "%s %s (budget %s)" l.label l.value l.budget))
      (lines (Drill.book r).Drillbook.slo m)
  in
  { metrics = m; pass = (match failures with [] -> true | _ -> false); failures }

let render b v =
  String.concat "\n"
    (Printf.sprintf "SLO verdict for %s: %s" b.Drillbook.name
       (if v.pass then "PASS" else "FAIL")
    :: List.map
         (fun l ->
           Printf.sprintf "  %-13s %-8s (budget %-8s) %s" l.label l.value
             l.budget
             (if l.ok then "ok" else "MISS"))
         (lines b.Drillbook.slo v.metrics))
