(* `--compare A.json B.json`: one verdict per workload and end-to-end
   metric, B (the change) against A (the parent).

   A metric whose quartile spread on either side exceeds its bound is
   unresolved: the runs cannot tell a change from noise, unless every
   trial of one side beats every trial of the other. Otherwise the
   median moved by more than the bound (better or worse) or it did
   not (within bound). Any "worse", or a higher share of failed checks,
   makes the comparison fail. *)

type bound = { better : Stats.better; bound : float }

type verdict = Better | Worse | Within_bound | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Within_bound -> "within bound"
  | Unresolved -> "unresolved"

type row = {
  workload : string;
  metric : string;
  a : Stats.summary;
  b : Stats.summary;
  change : float;  (** (b - a) / a, signed so that positive is worse *)
  verdict : verdict;
}

(* strictly better on every pair of trials *)
let dominates better x y =
  List.for_all
    (fun u ->
      List.for_all
        (fun v -> match better with Stats.Higher -> u > v | Stats.Lower -> u < v)
        y)
    x

let judge { better; bound } (a : Stats.summary) (b : Stats.summary) =
  let raw =
    if Float.equal a.median 0.0 then 0.0 else (b.median -. a.median) /. Float.abs a.median
  in
  let change = match better with Stats.Lower -> raw | Stats.Higher -> -.raw in
  let verdict =
    if Stats.spread a > bound || Stats.spread b > bound then
      if dominates better b.Stats.values a.Stats.values then Better
      else if dominates better a.Stats.values b.Stats.values then Worse
      else Unresolved
    else if change > bound then Worse
    else if change < -.bound then Better
    else Within_bound
  in
  (change, verdict)

(* --- reading documents ---------------------------------------------- *)

let bounds_of_benchmark json =
  List.filter_map
    (fun m ->
      match
        ( Json.to_str (Json.member "name" m),
          Option.bind (Json.to_str (Json.member "better" m)) Stats.better_of_string,
          Json.to_num (Json.member "bound" m) )
      with
      | Some name, Some better, Some bound -> Some (name, { better; bound })
      | _ -> None)
    (Json.to_list (Json.member "end_to_end" json))

(* a file holds one run document or an array of them *)
let documents json = match json with Json.Arr docs -> docs | doc -> [ doc ]

(* the summary is recomputed from the trial values the document
   carries, so both sides are judged by the same arithmetic *)
let side_of doc better metric =
  match Option.bind (Json.member "end_to_end" doc) (Json.member metric) with
  | None -> None
  | Some m -> (
      match List.filter_map (fun v -> Json.to_num (Some v)) (Json.to_list (Json.member "values" m)) with
      | [] -> None
      | values -> Some (Stats.summarize ~better values))

let workload doc = Option.value ~default:"?" (Json.to_str (Json.member "workload" doc))

let failed_frac doc =
  Option.bind (Json.member "checks" doc) (fun c -> Json.to_num (Json.member "failed_frac" c))

type result = {
  rows : row list;
  failed_up : (string * float * float) list;
      (** workloads whose share of failed checks rose: (workload, a, b) *)
  unmatched : string list;  (** workloads present on one side only *)
}

let compare ~bounds a_docs b_docs =
  let rows = ref [] and failed_up = ref [] and unmatched = ref [] in
  List.iter
    (fun a ->
      let w = workload a in
      match List.find_opt (fun b -> String.equal (workload b) w) b_docs with
      | None -> unmatched := w :: !unmatched
      | Some b ->
          (match (failed_frac a, failed_frac b) with
          | Some fa, Some fb when fb > fa -> failed_up := (w, fa, fb) :: !failed_up
          | _ -> ());
          List.iter
            (fun (metric, bound) ->
              match (side_of a bound.better metric, side_of b bound.better metric) with
              | Some sa, Some sb ->
                  let change, verdict = judge bound sa sb in
                  rows := { workload = w; metric; a = sa; b = sb; change; verdict } :: !rows
              | _ -> ())
            bounds)
    a_docs;
  List.iter
    (fun b ->
      let w = workload b in
      if not (List.exists (fun a -> String.equal (workload a) w) a_docs) then
        unmatched := w :: !unmatched)
    b_docs;
  { rows = List.rev !rows; failed_up = List.rev !failed_up; unmatched = List.rev !unmatched }

let failed r =
  r.failed_up <> [] || List.exists (fun row -> match row.verdict with Worse -> true | _ -> false) r.rows

let print r =
  Printf.printf "%-24s %-12s %14s %25s %14s %25s %8s  %s\n" "workload" "metric" "A median"
    "A q1..q3" "B median" "B q1..q3" "change" "verdict";
  List.iter
    (fun row ->
      let q (s : Stats.summary) = Printf.sprintf "%.5g..%.5g" s.q1 s.q3 in
      Printf.printf "%-24s %-12s %14.6g %25s %14.6g %25s %+7.1f%%  %s\n" row.workload row.metric
        row.a.median (q row.a) row.b.median (q row.b) (100.0 *. row.change)
        (verdict_to_string row.verdict))
    r.rows;
  List.iter
    (fun (w, fa, fb) -> Printf.printf "%s: failed_frac rose from %g to %g\n" w fa fb)
    r.failed_up;
  List.iter (fun w -> Printf.printf "%s: present on one side only\n" w) r.unmatched
