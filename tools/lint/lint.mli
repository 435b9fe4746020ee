(** evolvelint: repo-invariant static analysis.

    Turns the CLAUDE.md conventions — the structural discipline the
    paper's evolvability argument rests on (\u{00A7}3.2: new generations
    layer on what exists without breaking invariants) — into machine
    checks. Two passes: the untyped pass walks the Parsetree of every
    source file plus the dune library graph (layering, determinism,
    interface hygiene, experiment completeness); the typed pass loads
    the [.cmt]/[.cmti] artifacts dune emits, builds a cross-module call
    graph, and runs the comparison-safety, exception-hygiene and
    hot-path allocation rule packs over the Typedtree. *)

type diag = Diag.t = {
  file : string;
  line : int;
  col : int;  (** 1-based, like the line *)
  rule : string;  (** rule identifier; see {!rules} *)
  msg : string;
  key : string option;
      (** suppression key [FILE:BINDING] for allowlist/baseline-gated
          rules; [None] for diagnostics that cannot be suppressed *)
}

val to_string : diag -> string
(** [file:line:col: [rule] msg] — the diagnostic format. *)

val compare_diag : diag -> diag -> int
(** Total, explicit order: file, line, col, rule, msg. *)

val rules : (string * string) list
(** Every rule id with its rationale and provenance (paper section or
    CLAUDE.md convention); what [--explain] prints. *)

val layer_order : string array
(** The strict bottom-up library order the layering rule enforces. *)

val hot_path_roots : string list
(** Roots of the data-plane hot path for the allocation lint; a
    trailing ['*'] is a prefix wildcard. *)

val domain_safety_roots : string list
(** Roots of the domain-safety gate: the entry points a sharded data
    plane runs concurrently, one pump instance per domain. The typed
    pass adds every callee invoked inside a [Domain.spawn] closure
    automatically. *)

val atomic_roles : (string * Rules_atomic.role) list
(** The declared protocol role of every [Atomic.t] record field in
    lib/multicore, keyed ["Module.type.field"]; what the
    atomics-protocol verifier (rules_atomic) checks the call graph
    against, and what the [atomic-role] coverage check keeps total. *)

val atomic_scope : Typed.modinfo -> bool
(** Modules whose Atomic fields must be covered by {!atomic_roles}:
    lib/multicore plus any module the table itself names. *)

(** Sites exempted from a rule. One entry per line: [RULE FILE:KEY]
    ([#] starts a comment). For [hashtbl-order] and the typed rules the
    key is [file.ml:binding]; for [experiment-artifacts] it is
    [eN.artifact]. The same format serves two files with different
    contracts: [tools/lint/allowlist] (deliberate, justified,
    permanent) and [tools/lint/baseline] (legacy debt, shrinks to
    empty). *)
module Allowlist : sig
  type t

  val empty : t
  val parse : path:string -> string -> t
  val load : string -> t

  val mem : t -> rule:string -> key:string -> bool
  (** Marks the matching entry used. *)

  val stale : ?rule:string -> t -> diag list
  (** Entries that matched nothing — each one is itself a violation,
      so the file cannot silently rot. Call after the checks.
      [rule] defaults to ["stale-allowlist"]; pass ["stale-baseline"]
      when checking the baseline. *)
end

val filter_suppressed :
  allow:Allowlist.t -> baseline:Allowlist.t -> diag list -> diag list
(** Drop keyed diagnostics matched by the allowlist or, failing that,
    the baseline; unkeyed diagnostics always pass through. *)

val check_layering : dune_files:(string * string) list -> diag list
(** [(path, contents)] pairs of dune files. Library stanzas must only
    depend on strictly lower layers of {!layer_order}. *)

val check_determinism :
  allow:Allowlist.t -> path:string -> string -> diag list
(** Walk one lib/ implementation: no [Random.*] outside
    lib/topology/rng.ml, no wall-clock calls, no [Hashtbl.randomize],
    and no [Hashtbl.fold]/[iter] escaping unsorted (allowlist-gated). *)

val check_missing_mli : ml:string list -> mli:string list -> diag list

val check_mli_doc : path:string -> string -> diag list
(** The interface must carry a doc comment referencing a paper section
    (a \u{00A7} sign or the word "Section"). *)

type exp_sources = {
  experiments_ml : string * string;
  test_ml : string * string;
  experiments_md : string * string;
}

val check_experiments : allow:Allowlist.t -> exp_sources -> diag list
(** The experiment rule: every [eN] of experiments.ml (an [eN_*]
    binding or an ["eN"] literal in [registry]) has a row record, a
    registry entry, an EXPERIMENTS.md entry and a shape-test suite. *)

val typed_pass : decls:Typed.decls -> Typed.modinfo list -> diag list
(** The typed rule packs over an already-loaded module set: build the
    call graph, compute the effect summaries (Summary), compute
    reachability from {!hot_path_roots} and {!domain_safety_roots},
    then run comparison safety, exception hygiene, hot-path
    allocation and the unsafe ban per module plus the whole-graph
    packs (shared-state inventory, domain-safety race detector,
    determinism taint, atomics protocol).
    Unfiltered — pass the result through {!filter_suppressed}. *)

val dedupe_diags : diag list -> diag list
(** Sort by {!compare_diag}, drop exact duplicates, and collapse
    diagnostics from different passes at the same rule+site (same
    file, line, column and rule) to the first in compare order. *)

val to_json : diag list -> string
(** Machine-readable findings:
    [{"tool": "evolvelint", "findings": N, "diagnostics": [...]}]. *)

val to_sarif : diag list -> string
(** SARIF 2.1.0: one run, the rule registry as reportingDescriptors,
    one result per diagnostic. *)

val catalog_md : unit -> string
(** The generated rule catalog (doc/LINT.md); a test asserts the
    committed file matches, so the catalog cannot drift from
    {!rules}. *)

val stale_roots : Callgraph.t -> diag list
(** One [stale-root] finding per entry of {!hot_path_roots} or
    {!domain_safety_roots} that names no binding of the call graph.
    {!run} applies it to the whole tree; fixture runs of {!typed_pass}
    do not. *)

val program_stanzas : root:string -> (string * string) list
(** The [executable] and [executables] stanzas of the dune files of
    bin/, bench/perf and examples/ — the programs whose top-level items
    root the unreached-export rule — as (dir, first name) pairs: where
    dune keeps their objects. [test] and [tests] stanzas are not
    programs. *)

val run : root:string -> allow:Allowlist.t -> baseline:Allowlist.t -> diag list
(** Both passes over a repo checkout; sorted, deduplicated. The typed
    pass needs [dune build] artifacts (in-tree or under
    [_build/default]), and the unreached-export rule the executables'
    [.cmt] files from [dune build @check]; it reports their absence as
    [typed-engine] diagnostics rather than passing vacuously. *)

val summary_dump : root:string -> json:bool -> string
(** The `--summaries` report over a built checkout: every binding's
    propagated effect summary, the toplevel shared-state inventory
    with escape classes, the mutable-field inventory with writers, the
    accessor aliases and the spawned-closure callees. Deterministic: same tree, byte-identical output. *)
