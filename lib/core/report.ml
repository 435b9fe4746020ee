module E = Experiments

let code buf body =
  Buffer.add_string buf "```\n";
  Buffer.add_string buf body;
  Buffer.add_string buf "```\n\n"

let heading buf level title =
  Buffer.add_string buf (String.make level '#');
  Buffer.add_char buf ' ';
  Buffer.add_string buf title;
  Buffer.add_string buf "\n\n"

let figure_section buf =
  heading buf 2 "Paper figures";
  let render pp v =
    let b = Buffer.create 256 in
    let fmt = Format.formatter_of_buffer b in
    pp fmt v;
    Format.pp_print_flush fmt ();
    Buffer.contents b
  in
  heading buf 3 "Figure 1 — seamless spread of deployment";
  code buf (render Scenario.pp_fig1 (Scenario.fig1 ()));
  heading buf 3 "Figure 2 — Option 2 anycast with default routes";
  code buf (render Scenario.pp_fig2 (Scenario.fig2 ()));
  heading buf 3 "Figure 3 — egress selection with BGPv(N-1) import";
  code buf (render Scenario.pp_fig3 (Scenario.fig3 ()));
  heading buf 3 "Figure 4 — advertising-by-proxy";
  code buf (render Scenario.pp_fig4 (Scenario.fig4 ()))

let experiment_section buf =
  heading buf 2 "Experiments";
  List.iter
    (fun (e : E.entry) ->
      heading buf 3 (E.heading e);
      code buf
        (Table.render ~header:e.E.header
           ~rows:(e.E.run Topology.Internet.default_params)))
    E.registry

let generate () =
  let buf = Buffer.create 16384 in
  heading buf 1 "evolvenet results";
  Buffer.add_string buf
    "Regenerated by `evolvenet report` / `Evolve.Report.generate`. Every\n\
     table is deterministic; see EXPERIMENTS.md for the reading guide.\n\n";
  figure_section buf;
  experiment_section buf;
  Buffer.contents buf

let write ~path =
  (* open the temporary file first, so that a bad path fails before the
     generation; rename it over [path] only once the report is whole,
     so that an interrupted run leaves the old file as it was *)
  let tmp, oc =
    Filename.open_temp_file ~perms:0o666 ~temp_dir:(Filename.dirname path)
      (Filename.basename path) ".tmp"
  in
  match
    output_string oc (generate ());
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
