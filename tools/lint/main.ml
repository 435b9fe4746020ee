(* evolvelint CLI.

   evolvelint [--root DIR] [--allowlist FILE] [--baseline FILE]
              [--format text|json|sarif]        run all checks
   evolvelint --summaries [--format text|json]  dump effect summaries
                                                and shared-state inventory
   evolvelint --explain RULE|all                print a rule's rationale
   evolvelint --catalog                         print doc/LINT.md *)

module Lint = Lintcore.Lint

let usage =
  "evolvelint [--root DIR] [--allowlist FILE] [--baseline FILE] \
   [--format text|json|sarif] [--summaries] [--explain RULE|all] \
   [--catalog]"

let () =
  let root = ref "." in
  let allowlist = ref "" in
  let baseline = ref "" in
  let format = ref "text" in
  let explain = ref "" in
  let catalog = ref false in
  let summaries = ref false in
  Arg.parse
    [
      ("--root", Arg.Set_string root, "DIR repository root (default .)");
      ( "--allowlist",
        Arg.Set_string allowlist,
        "FILE allowlist of deliberate, justified exceptions (default \
         ROOT/tools/lint/allowlist)" );
      ( "--baseline",
        Arg.Set_string baseline,
        "FILE baseline of grandfathered legacy findings (default \
         ROOT/tools/lint/baseline)" );
      ( "--format",
        Arg.Set_string format,
        "FMT output format: text (default), json, or sarif" );
      ( "--summaries",
        Arg.Set summaries,
        " dump per-binding effect summaries and the shared-state \
         inventory (text or --format json)" );
      ( "--explain",
        Arg.Set_string explain,
        "RULE print the rule's rationale and provenance ('all' for every \
         rule)" );
      ( "--catalog",
        Arg.Set catalog,
        " print the generated rule catalog (doc/LINT.md)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    usage;
  if !catalog then print_string (Lint.catalog_md ())
  else if !explain <> "" then begin
    let print_rule (id, text) = Printf.printf "%-20s %s\n\n" id text in
    if !explain = "all" then List.iter print_rule Lint.rules
    else
      match List.assoc_opt !explain Lint.rules with
      | Some text -> print_rule (!explain, text)
      | None ->
          Printf.eprintf "unknown rule '%s'; known rules: %s\nusage: %s\n"
            !explain
            (String.concat ", " (List.map fst Lint.rules))
            usage;
          exit 2
  end
  else if !summaries then begin
    match !format with
    | "text" -> print_string (Lint.summary_dump ~root:!root ~json:false)
    | "json" -> print_endline (Lint.summary_dump ~root:!root ~json:true)
    | other ->
        Printf.eprintf
          "--summaries supports text and json, not '%s'\nusage: %s\n" other
          usage;
        exit 2
  end
  else begin
    (* reject a bad format before the (expensive) scan *)
    if not (List.mem !format [ "text"; "json"; "sarif" ]) then begin
      Printf.eprintf "unknown format '%s' (text|json|sarif)\nusage: %s\n"
        !format usage;
      exit 2
    end;
    let load ~flag ~default =
      let path =
        if !flag <> "" then !flag else Filename.concat !root default
      in
      if Sys.file_exists path then Lint.Allowlist.load path
      else Lint.Allowlist.empty
    in
    let allow = load ~flag:allowlist ~default:"tools/lint/allowlist" in
    let base = load ~flag:baseline ~default:"tools/lint/baseline" in
    let diags = Lint.run ~root:!root ~allow ~baseline:base in
    (match !format with
    | "json" -> print_endline (Lint.to_json diags)
    | "sarif" -> print_endline (Lint.to_sarif diags)
    | "text" -> (
        List.iter (fun d -> print_endline (Lint.to_string d)) diags;
        match diags with
        | [] ->
            print_endline
              "evolvelint: OK (layering, determinism, interfaces, \
               experiment artifacts, comparison safety, exception \
               hygiene, hot-path allocation, shared state, domain \
               safety, determinism taint, atomics protocol, unsafe \
               ban, unreached exports)"
        | _ -> Printf.printf "evolvelint: %d violation(s)\n" (List.length diags))
    | _ -> assert false (* validated above *));
    if diags <> [] then exit 1
  end
