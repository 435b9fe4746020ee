(** One-shot results report.

    Runs every figure scenario (the paper's §3.2 figures) and
    experiment and renders a single markdown document — the
    "regenerate all the numbers" button behind EXPERIMENTS.md.
    Deterministic: two runs produce identical text. *)

val generate : unit -> string
(** The full report as markdown: the four figures, then one section
    per {!Experiments.registry} entry, run on
    [Topology.Internet.default_params]. Takes a few seconds. *)

val write : path:string -> unit
(** Render {!generate} to a file, atomically: the report goes to a
    temporary file in [path]'s directory, which is then renamed over
    [path]. The temporary file is opened before the generation starts,
    so an unwritable target fails at once; an existing [path] is only
    ever replaced by a whole report.
    @raise Sys_error when the temporary file cannot be created or
    renamed over [path]; [path] is then left untouched. *)
