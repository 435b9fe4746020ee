(* evolvelint: repo-invariant static analysis.

   Two passes. The untyped pass parses every .ml/.mli under lib/,
   bin/, bench/ and test/ into Parsetree (compiler-libs) and walks it,
   plus a tiny dune-file reader for the library graph. The typed pass
   (Typed, Callgraph, the Rules_ modules) loads the .cmt/.cmti artifacts dune emits
   for the nine libraries and runs the comparison-safety, exception
   hygiene and hot-path allocation rule packs over the Typedtree, with
   a cross-module call graph for reachability. See [rules] for the
   rationale of each rule. *)

type diag = Diag.t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
  key : string option;
}

let diag ?(line = 1) ?(col = 1) ?key ~file ~rule msg =
  Diag.make ~line ~col ?key ~file ~rule msg

let to_string = Diag.to_string
let compare_diag = Diag.compare

(* ------------------------------------------------------------------ *)
(* Rule registry (id, rationale) — printed by `--explain`.             *)

let layer_order =
  [| "netcore"; "topology"; "routing"; "interdomain"; "simcore"; "anycast";
     "vnbone"; "dataplane"; "multicore"; "ops"; "evolve" |]

let layer_order_str = String.concat " < " (Array.to_list layer_order)

let rules =
  [
    ( "layering",
      "The (libraries ...) dependency DAG under lib/ must respect the strict \
       bottom-up order " ^ layer_order_str ^ ". No upward or sideways edge is \
       allowed: modules needing the event engine live in simcore, not \
       routing. Provenance: CLAUDE.md conventions; the paper's layering \
       argument (new IPvN generations ride on what exists, \u{00A7}3.2) only \
       holds if the substrate itself stays acyclic." );
    ( "random-direct",
      "No Random.* outside lib/topology/rng.ml. All randomness flows through \
       Topology.Rng with explicit seeds so every experiment is replayable. \
       Provenance: CLAUDE.md conventions; DESIGN.md \u{00A7}7 (determinism: \
       Report.generate is compared for equality in tests)." );
    ( "forbidden-call",
      "Random.self_init, Sys.time, Unix.gettimeofday, Unix.time and \
       Hashtbl.randomize are forbidden everywhere in lib/: they inject \
       wall-clock or process state into results and break replayable \
       experiments. Provenance: CLAUDE.md determinism convention." );
    ( "hashtbl-order",
      "A Hashtbl.fold/Hashtbl.iter whose result escapes without passing \
       through List.sort / List.sort_uniq is flagged: hash-bucket order is \
       an implementation detail, and routing or report output must not \
       depend on it. Verified-safe sites (order-insensitive consumers) are \
       recorded in tools/lint/allowlist as `hashtbl-order file.ml:binding`. \
       Provenance: CLAUDE.md determinism convention; DESIGN.md \u{00A7}7." );
    ( "missing-mli",
      "Every public module under lib/ must have an .mli: the interface is \
       where the paper mapping and the API contract live. Provenance: \
       CLAUDE.md conventions." );
    ( "mli-doc-ref",
      "Every .mli under lib/ must carry at least one doc comment tying it \
       to the paper section it implements (a \u{00A7} reference or the word \
       'Section'). Provenance: CLAUDE.md conventions ('doc comments tying \
       it to the paper section it implements')." );
    ( "experiment-artifacts",
      "Every experiment eN of lib/core/experiments.ml (an eN_* binding or \
       an \"eN\" id in its registry) must ship four artifacts: a typed row \
       record (eN_row), a registry entry (the \"eN\" id literal inside the \
       `registry` binding), an EXPERIMENTS.md entry (\"## EN\") and a \
       shape-asserting suite (\"eN\") in test/test_experiments.ml. The \
       report (and so bench/perf's report workload) and the CLI iterate \
       the registry, so one entry wires them all. Provenance: CLAUDE.md \
       experiment rule." );
    ( "parse-error",
      "Every .ml/.mli in lib/, bin/, bench/ and test/ and every lib/*/dune \
       must parse; the other rules are only as good as the parse." );
    ( "stale-allowlist",
      "An allowlist entry that no longer matches any flagged site must be \
       deleted, so the allowlist stays an accurate record of verified-safe \
       sites rather than a blanket waiver." );
    ( "poly-compare",
      "Polymorphic =/<>/compare/</<=/>/>=/min/max applied at a functional, \
       float-carrying, abstract or opaque type. The structural order on \
       such types is either a runtime error (functions), not total (nan), \
       or silently different from the module's own compare once the \
       representation changes — which breaks the deterministic Map/sort \
       orders Report.generate depends on. Checked on the Typedtree at the \
       instantiated use-site type, so generic 'a helpers stay quiet. One \
       carve-out: < <= > >= at exactly [float] compile to the IEEE \
       comparison, which is deterministic; the nan hazard is specific to \
       =/compare/min/max and to floats inside structures. Provenance: \
       DESIGN.md \u{00A7}7 determinism; CLAUDE.md ('All randomness... \
       experiments must be deterministic')." );
    ( "physical-eq",
      "== and != compare heap addresses, which the language leaves \
       unspecified on immutable values; any use outside an allowlisted \
       site (`physical-eq file.ml:binding`) is an error. Use structural \
       equality or the type's own equal. Provenance: CLAUDE.md determinism \
       convention." );
    ( "catch-all",
      "`try ... with _ ->` (or a never-re-raised variable handler) \
       swallows every exception including programming errors, turning \
       invariant violations into silent wrong results — the opposite of \
       what a reproduction harness wants. Match the constructors you mean, \
       or re-raise. Provenance: CLAUDE.md determinism convention; the \
       paper's \u{00A7}3.2 layering argument assumes invariant violations \
       surface." );
    ( "undoc-raise",
      "A lib/ function raises an exception that escapes the module (no \
       in-module handler) while its .mli never mentions the exception: \
       the interface contract is incomplete. Document it (e.g. `@raise \
       Invalid_argument`) in the .mli. Assert_failure/Match_failure are \
       exempt. Provenance: CLAUDE.md ('Every public module has an .mli \
       with doc comments')." );
    ( "hot-path-alloc",
      "Functions transitively reachable from the data-plane roots \
       (Pump.inject, Flowcache.lookup, Wire.peek_*, and the sharded \
       pool's Shard.run worker loop with its Ring.push/Ring.pop \
       handoffs; both reach the Hop forwarding kernel) must not \
       allocate per call: capturing closures, tuple/option/list cells and \
       partial applications are flagged, one aggregated diagnostic per \
       function. Deliberate allocations (the trace a function exists to \
       build) go in tools/lint/allowlist; legacy ones burn down in \
       tools/lint/baseline. Provenance: DESIGN.md data-plane section \
       (\u{00A7}3.3.2 forwarding treats payloads as opaque bytes — the \
       per-hop budget is header reads, not allocation)." );
    ( "shared-state",
      "Every toplevel mutable container in lib/ (ref, array, bytes, \
       Hashtbl, Buffer/Queue/Stack/Atomic, record with mutable fields) is \
       catalogued with its escape class — module-private < crosses-module \
       < crosses-library < pump-reachable — and flagged: module-level \
       state is process-global, so it cannot be owned by one pump instance \
       once the data plane shards across OCaml 5 domains (ROADMAP 1), and \
       it couples experiments the determinism conventions assume \
       independent. Thread it through a constructor; deliberate exceptions \
       go in tools/lint/allowlist with an ownership argument. Mutable \
       record fields on instance types are the sanctioned idiom and are \
       inventory-only (`--summaries`). Provenance: DESIGN.md \u{00A7}9.4; \
       ROADMAP item 1." );
    ( "domain-unsafe-write",
      "Functions reachable from the pump entry points (Pump.inject, \
       Flowcache.lookup) and the multicore worker roots \
       (Shard.run, Ring.push, Ring.pop — the code one domain per shard \
       executes concurrently) must not write state that is not \
       provably owned by a single pump instance. The summary engine traces \
       every mutation to the root of the written lvalue — through record \
       fields, `!` and array reads — and classifies it: rooted in a \
       parameter, local or fresh value is instance-owned (today's \
       telemetry bumps and cache counters pass this way, not via \
       allowlist); rooted in module-level state is a finding, because it \
       becomes a cross-domain data race when the data plane shards \
       (ROADMAP 1). This gate must read zero before and after that \
       refactor. Provenance: DESIGN.md \u{00A7}9.4; the paper's \u{00A7}3-4 \
       argument that the cost of change be explicit before deploying it." );
    ( "determinism-taint",
      "Flow-based complement to random-direct/forbidden-call: the effect \
       summaries propagate a nondeterminism witness (unseeded Random.*, \
       wall clock, Hashtbl.randomize) through the call graph, and any \
       witness reaching a determinism surface — an Experiments.eN entry \
       point or Report.generate, whose outputs tests compare for byte \
       equality — is flagged at the surface with the originating source \
       named. A seeded Topology.Rng draw laundered through helpers stays \
       clean; an unseeded source two hops away does not. Provenance: \
       DESIGN.md \u{00A7}7 determinism; CLAUDE.md ('experiments must be \
       deterministic')." );
    ( "atomic-role",
      "Coverage gate for the atomics-protocol verifier: every `Atomic.t` \
       record field in lib/multicore must carry a declared role in the \
       atomic_roles table (single-writer, publish-flag, counter or \
       read-only-view), and every table entry must still name a real \
       field. A new atomic that lands without a role would silently \
       bypass the protocol checks, and a stale entry means the table \
       drifted from the code — both are findings, so the role table and \
       the data structures cannot diverge. Provenance: DESIGN.md \
       \u{00A7}9.5; the SPSC ring and doorbell protocols of the \
       multicore plane." );
    ( "atomic-protocol",
      "Checks every Atomic operation in the whole call graph against the \
       touched field's declared role. Single-writer fields accept writes \
       only from their declared writer functions, and inside those \
       writers every write to the published slot must precede the \
       Atomic.set that publishes it — the seq_cst store is the \
       happens-before edge the consuming domain relies on. Publish \
       flags flip only from their writers; counters are \
       fetch_and_add/incr/decr-only except from declared setters, and a \
       setter that spawns domains must store before any spawn, because \
       the spawned domains read the counter. Read-only views are never \
       written; the Summary accessor map lets the checker see a view \
       through `Array.map Shard.asleep_flag` — the returned-alias blind \
       spot of \u{00A7}9.4, closed here. Two checks need no \
       declaration: an Atomic write the verifier cannot resolve to a \
       field defeats the scheme and is flagged, and a binding that \
       combines separate loads of two single-writer fields from outside \
       either writer observes a non-snapshot that can mix states from \
       different instants (the Ring.length clamp exists because this \
       pack was dogfooded on it). Provenance: DESIGN.md \u{00A7}9.5; \
       the publication-order argument in lib/multicore/ring.ml." );
    ( "unsafe-unproven",
      "A flat ban: no `unsafe_get`/`unsafe_set` of any module anywhere \
       in lib/. Every string, bytes, bigarray and array access there \
       keeps its runtime bounds check, so a wrong index fails loudly \
       instead of corrupting memory, and no access needs a proof or a \
       judgment call. References are resolved on the typed tree, so an \
       alias or an `open` does not hide one; CI repeats the check \
       textually, outside the lint binary. The one escape is an \
       allowlist entry `unsafe-unproven file.ml:binding` with a written \
       justification. Provenance: DESIGN.md \u{00A7}9.5." );
    ( "stale-root",
      "Every entry of the hot-path and domain-safety root lists must \
       name at least one binding of the call graph. A root \
       that names nothing — its function deleted or renamed — silently \
       narrows the gate it seeds, so the whole-tree run reports it; \
       rename or delete the entry in tools/lint/lint.ml." );
    ( "stale-baseline",
      "A baseline entry that no longer matches any finding means the debt \
       it recorded was paid; delete the line so the baseline only shrinks. \
       tools/lint/baseline grandfathers findings that predate a rule, \
       letting new rules land strict on new code without a big-bang \
       cleanup." );
    ( "typed-engine",
      "The typed rule packs need the .cmt/.cmti artifacts dune emits \
       (-bin-annot is on by default); a library with no artifacts, or an \
       unreadable cmt, is an error rather than a silent skip — otherwise \
       the typed rules would pass vacuously." );
  ]

(* Roots of the data-plane hot path for the allocation lint; a
   trailing '*' is a prefix wildcard. Pump.inject and Shard.run (the
   multicore worker loop, one per domain) both reach the Hop
   forwarding kernel; Ring.push/Ring.pop are the SPSC handoff the
   worker drives — per-packet code, so alloc-free. *)
let hot_path_roots =
  [
    "Pump.inject";
    "Flowcache.lookup";
    "Wire.peek_*";
    "Shard.run";
    "Ring.push";
    "Ring.pop";
  ]

(* Roots of the domain-safety gate: the entry points a sharded data
   plane runs concurrently — the serial pump's (one pump instance per
   domain) plus the multicore pool's worker loop and ring operations,
   which execute on every domain at once. Narrower than the hot
   path — Wire.peek_* are pure header reads and are covered
   transitively anyway. *)
let domain_safety_roots =
  [
    "Pump.inject";
    "Flowcache.lookup";
    "Shard.run";
    "Ring.push";
    "Ring.pop";
  ]

(* ------------------------------------------------------------------ *)
(* evolvelint v4: atomic roles (DESIGN.md §9.5)                       *)

(* The declared per-field protocol for every Atomic.t in lib/multicore.
   rules_atomic checks the whole call graph against this table, and the
   atomic-role coverage check keeps the table total: an Atomic field
   without an entry, or an entry without a field, is a finding. *)
let atomic_roles : (string * Rules_atomic.role) list =
  [
    (* SPSC ring: the consumer owns head, the producer owns tail, and
       each side's slot write must precede its index publish — the
       Atomic.set is the happens-before edge to the other domain. *)
    ( "Ring.t.head",
      Rules_atomic.Single_writer
        { writers = [ "Ring.pop" ]; publishes = Some "Ring.t.buf" } );
    ( "Ring.t.tail",
      Rules_atomic.Single_writer
        { writers = [ "Ring.push" ]; publishes = Some "Ring.t.buf" } );
    (* Pool-wide in-flight count, one atomic shared by the pool and
       every shard (Shard.create receives Domainpool's). Workers only
       fetch_and_add; the single store happens in Domainpool.run,
       before any domain is spawned. *)
    ("Shard.t.live", Rules_atomic.Counter { setters = [] });
    ( "Domainpool.t.live",
      Rules_atomic.Counter
        { setters = [ "Domainpool.run"; "Domainpool.run_cooperative" ] } );
    (* Doorbell protocol: each worker publishes its own asleep flag
       around the blocking select; peers observe it only through the
       read-only peer_asleep array Domainpool wires up. *)
    ( "Shard.t.asleep",
      Rules_atomic.Publish_flag { writers = [ "Shard.nap" ] } );
    ( "Shard.t.peer_asleep",
      Rules_atomic.Read_only_view { of_field = "Shard.t.asleep" } );
    (* Supervision (DESIGN.md §13): a crashing worker publishes its own
       death as it exits the run loop; only the supervisor — which has
       joined the domain first — clears it in Shard.revive. *)
    ( "Shard.t.dead",
      Rules_atomic.Publish_flag
        { writers = [ "Shard.crash_exit"; "Shard.revive" ] } );
  ]

(* Modules whose Atomic fields the coverage check applies to: all of
   lib/multicore, plus any module the role table itself names — so a
   test fixture module called Ring exercises the coverage and
   staleness checks with a custom table. *)
let atomic_scope (m : Typed.modinfo) =
  m.Typed.ti_lib = "multicore"
  || List.exists
       (fun (f, _) ->
         match String.index_opt f '.' with
         | Some i -> String.sub f 0 i = m.Typed.ti_module
         | None -> false)
       atomic_roles

(* ------------------------------------------------------------------ *)
(* Small string helpers                                                *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

(* [has_word s w]: [w] occurs in [s] with a non-alphanumeric character
   before it and no digit directly after ("E4" matches "E4 —" but
   neither "E40" nor "PE4"). *)
let has_word s w =
  let n = String.length s and m = String.length w in
  let rec go i =
    if i + m > n then false
    else if
      String.sub s i m = w
      && (i = 0 || not (is_alnum s.[i - 1]))
      && (i + m = n || not (is_digit s.[i + m]))
    then true
    else go (i + 1)
  in
  m > 0 && go 0

let split_lines s = String.split_on_char '\n' s

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Allowlist                                                           *)

module Allowlist = struct
  type entry = { e_rule : string; e_key : string; e_line : int; mutable used : bool }
  type t = { path : string; entries : entry list }

  let empty = { path = "<builtin-empty>"; entries = [] }

  (* One entry per line: `RULE FILE:KEY`; `#` starts a comment. *)
  let parse ~path contents =
    let entries =
      List.concat
        (List.mapi
           (fun i line ->
             let line =
               match String.index_opt line '#' with
               | Some j -> String.sub line 0 j
               | None -> line
             in
             let line = String.trim line in
             if line = "" then []
             else
               match String.index_opt line ' ' with
               | None -> []
               | Some j ->
                   let rule = String.sub line 0 j in
                   let key =
                     String.trim
                       (String.sub line (j + 1) (String.length line - j - 1))
                   in
                   [ { e_rule = rule; e_key = key; e_line = i + 1; used = false } ])
           (split_lines contents))
    in
    { path; entries }

  let load path = parse ~path (read_file path)

  let mem t ~rule ~key =
    match
      List.find_opt (fun e -> e.e_rule = rule && e.e_key = key) t.entries
    with
    | Some e ->
        e.used <- true;
        true
    | None -> false

  let stale ?(rule = "stale-allowlist") t =
    List.filter_map
      (fun e ->
        if e.used then None
        else
          Some
            (diag ~file:t.path ~line:e.e_line ~rule
               (Printf.sprintf
                  "entry `%s %s` matched no flagged site; delete it" e.e_rule
                  e.e_key)))
      t.entries
end

(* Keyed diagnostics (the typed rule packs) are suppressed by either
   file: the allowlist records deliberate, justified exceptions; the
   baseline grandfathers legacy findings that predate a rule so it can
   land strict on new code. Allowlist wins, so one site never marks
   both files used. *)
let filter_suppressed ~allow ~baseline diags =
  List.filter
    (fun (d : diag) ->
      match d.key with
      | None -> true
      | Some key ->
          (not (Allowlist.mem allow ~rule:d.rule ~key))
          && not (Allowlist.mem baseline ~rule:d.rule ~key))
    diags

(* ------------------------------------------------------------------ *)
(* Parsing helpers (compiler-libs)                                     *)

let parse_lexbuf ~filename src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf filename;
  lexbuf

let parse_error_diag ~file exn =
  diag ~file ~rule:"parse-error"
    (Printf.sprintf "does not parse: %s" (Printexc.to_string exn))

let parse_impl ~filename src =
  try Ok (Parse.implementation (parse_lexbuf ~filename src))
  with exn -> Error (parse_error_diag ~file:filename exn)

let parse_intf ~filename src =
  try Ok (Parse.interface (parse_lexbuf ~filename src))
  with exn -> Error (parse_error_diag ~file:filename exn)

let flatten_lident l = try Longident.flatten l with _ -> []

let strip_stdlib = function "Stdlib" :: rest -> rest | p -> p

let expr_ident (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match strip_stdlib (flatten_lident txt) with [] -> None | p -> Some p)
  | _ -> None

let loc_pos = Diag.loc_pos

(* ------------------------------------------------------------------ *)
(* Rule family 2: determinism                                          *)

let sort_fns = [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort" ]

(* head identifier of an expression, looking through application *)
let head_ident (e : Parsetree.expression) =
  match e.pexp_desc with Pexp_apply (f, _) -> expr_ident f | _ -> expr_ident e

let is_sort_expr e =
  match head_ident e with
  | Some [ "List"; f ] -> List.mem f sort_fns
  | _ -> false

let forbidden_idents =
  [
    ([ "Random"; "self_init" ], "seeds from process state");
    ([ "Sys"; "time" ], "wall-clock/CPU time");
    ([ "Unix"; "gettimeofday" ], "wall-clock time");
    ([ "Unix"; "time" ], "wall-clock time");
    ([ "Hashtbl"; "randomize" ], "randomizes bucket order");
  ]

(* Determinism walk over one lib/ source file. [path] is the
   repo-relative path, used both in diagnostics and for the
   lib/topology/rng.ml exemption. *)
let check_determinism ~allow ~path src =
  match parse_impl ~filename:path src with
  | Error d -> [ d ]
  | Ok structure ->
      let diags = ref [] in
      let add ~loc ~rule msg =
        let line, col = loc_pos loc in
        diags := diag ~file:path ~line ~col ~rule msg :: !diags
      in
      let is_rng_module =
        path = "lib/topology/rng.ml"
        || Filename.basename path = "rng.ml"
           && contains_sub path "topology"
      in
      (* Locations of fold/iter applications already piped through a
         List.sort — marked top-down before the child is visited. *)
      let sorted : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
      let mark (e : Parsetree.expression) =
        Hashtbl.replace sorted (loc_pos e.pexp_loc) ()
      in
      let current_binding = ref None in
      let open Ast_iterator in
      let iter =
        {
          default_iterator with
          value_binding =
            (fun it vb ->
              match (!current_binding, vb.pvb_pat.ppat_desc) with
              | None, Ppat_var { txt; _ } ->
                  current_binding := Some txt;
                  default_iterator.value_binding it vb;
                  current_binding := None
              | _ -> default_iterator.value_binding it vb);
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_apply (f, args) -> (
                  (* establish sorted contexts for children *)
                  (if is_sort_expr e then
                     List.iter (fun (_, a) -> mark a) args);
                  (match (expr_ident f, args) with
                  | Some [ "|>" ], [ (_, l); (_, r) ] when is_sort_expr r ->
                      mark l
                  | Some [ "@@" ], [ (_, l); (_, r) ] when is_sort_expr l ->
                      mark r
                  | _ -> ());
                  match expr_ident f with
                  | Some [ "Hashtbl"; ("fold" | "iter") as fn ] ->
                      if not (Hashtbl.mem sorted (loc_pos e.pexp_loc)) then begin
                        let binding =
                          Option.value !current_binding ~default:"<toplevel>"
                        in
                        let key = path ^ ":" ^ binding in
                        if not (Allowlist.mem allow ~rule:"hashtbl-order" ~key)
                        then
                          add ~loc:f.pexp_loc ~rule:"hashtbl-order"
                            (Printf.sprintf
                               "Hashtbl.%s result escapes `%s` without a \
                                List.sort/List.sort_uniq; sort it or add \
                                `hashtbl-order %s` to tools/lint/allowlist \
                                with a justification"
                               fn binding key)
                      end
                  | _ -> ())
              | Pexp_ident { txt; loc } -> (
                  let p = strip_stdlib (flatten_lident txt) in
                  (match List.assoc_opt p forbidden_idents with
                  | Some why ->
                      add ~loc ~rule:"forbidden-call"
                        (Printf.sprintf "%s is forbidden in lib/ (%s)"
                           (String.concat "." p) why)
                  | None -> ());
                  match p with
                  | "Random" :: rest
                    when (not is_rng_module) && rest <> [ "self_init" ] ->
                      add ~loc ~rule:"random-direct"
                        (Printf.sprintf
                           "direct %s use; all randomness must flow through \
                            Topology.Rng with an explicit seed"
                           (String.concat "." p))
                  | _ -> ())
              | _ -> ());
              default_iterator.expr it e);
        }
      in
      iter.structure iter structure;
      List.rev !diags

(* ------------------------------------------------------------------ *)
(* Rule family 1: layering (dune-file reader)                          *)

type sexp = Atom of string * int | SList of sexp list * int

let parse_sexps ~path src =
  let n = String.length src in
  let line = ref 1 in
  let pos = ref 0 in
  let peek () = src.[!pos] in
  let advance () =
    if peek () = '\n' then incr line;
    incr pos
  in
  let rec skip_ws () =
    if !pos < n then
      match peek () with
      | ' ' | '\t' | '\r' | '\n' ->
          advance ();
          skip_ws ()
      | ';' ->
          while !pos < n && peek () <> '\n' do
            advance ()
          done;
          skip_ws ()
      | _ -> ()
  in
  let rec parse_one () =
    let l0 = !line in
    match peek () with
    | '(' ->
        advance ();
        let items = ref [] in
        let rec loop () =
          skip_ws ();
          if !pos >= n then failwith (path ^ ": unbalanced parenthesis")
          else if peek () = ')' then advance ()
          else begin
            items := parse_one () :: !items;
            loop ()
          end
        in
        loop ();
        SList (List.rev !items, l0)
    | '"' ->
        advance ();
        let b = Buffer.create 16 in
        let rec str () =
          if !pos >= n then failwith (path ^ ": unterminated string")
          else
            match peek () with
            | '"' -> advance ()
            | '\\' ->
                advance ();
                if !pos < n then begin
                  Buffer.add_char b (peek ());
                  advance ()
                end;
                str ()
            | c ->
                Buffer.add_char b c;
                advance ();
                str ()
        in
        str ();
        Atom (Buffer.contents b, l0)
    | _ ->
        let b = Buffer.create 16 in
        let rec atom () =
          if !pos < n then
            match peek () with
            | ' ' | '\t' | '\r' | '\n' | '(' | ')' | ';' -> ()
            | c ->
                Buffer.add_char b c;
                advance ();
                atom ()
        in
        atom ();
        Atom (Buffer.contents b, l0)
  in
  let rec top acc =
    skip_ws ();
    if !pos >= n then List.rev acc else top (parse_one () :: acc)
  in
  top []

let rank name =
  let r = ref None in
  Array.iteri (fun i x -> if x = name then r := Some i) layer_order;
  !r

let stanza_field fields key =
  List.find_map
    (function
      | SList (Atom (k, _) :: rest, _) when k = key -> Some rest | _ -> None)
    fields

(* [dune_files] is a list of (repo-relative path, contents). Only
   library stanzas are inspected; stanzas outside lib/ may depend on
   anything. *)
let check_layering ~dune_files =
  List.concat_map
    (fun (path, src) ->
      match parse_sexps ~path src with
      | exception Failure msg -> [ diag ~file:path ~rule:"parse-error" msg ]
      | sexps ->
          List.concat_map
            (function
              | SList (Atom ("library", _) :: fields, stanza_line) -> (
                  let name =
                    match stanza_field fields "name" with
                    | Some (Atom (n, l) :: _) -> Some (n, l)
                    | _ -> None
                  in
                  let deps =
                    match stanza_field fields "libraries" with
                    | Some atoms ->
                        List.filter_map
                          (function Atom (a, l) -> Some (a, l) | _ -> None)
                          atoms
                    | None -> []
                  in
                  match name with
                  | None ->
                      [
                        diag ~file:path ~line:stanza_line ~rule:"layering"
                          "library stanza without a (name ...)";
                      ]
                  | Some (n, nl) -> (
                      match rank n with
                      | None ->
                          if
                            String.length path >= 4
                            && String.sub path 0 4 = "lib/"
                          then
                            [
                              diag ~file:path ~line:nl ~rule:"layering"
                                (Printf.sprintf
                                   "library '%s' is not in the layering \
                                    order (%s); add it at the right level \
                                    in tools/lint/lint.ml"
                                   n layer_order_str);
                            ]
                          else []
                      | Some r ->
                          List.filter_map
                            (fun (d, dl) ->
                              match rank d with
                              | Some rd when rd >= r ->
                                  Some
                                    (diag ~file:path ~line:dl ~rule:"layering"
                                       (Printf.sprintf
                                          "'%s' must not depend on '%s': the \
                                           order is %s"
                                          n d layer_order_str))
                              | _ -> None)
                            deps))
              | _ -> [])
            sexps)
    dune_files

(* ------------------------------------------------------------------ *)
(* Rule family 3: interface hygiene                                    *)

let check_missing_mli ~ml ~mli =
  List.filter_map
    (fun f ->
      if Filename.check_suffix f ".ml" then
        let want = f ^ "i" in
        if List.mem want mli then None
        else
          Some
            (diag ~file:f ~rule:"missing-mli"
               (Printf.sprintf "public module without an interface: add %s"
                  want))
      else None)
    ml

let check_mli_doc ~path src =
  match parse_intf ~filename:path src with
  | Error d -> [ d ]
  | Ok signature ->
      let found = ref false in
      let open Ast_iterator in
      let iter =
        {
          default_iterator with
          attribute =
            (fun it a ->
              (match a.attr_name.txt with
              | "ocaml.doc" | "ocaml.text" -> (
                  match a.attr_payload with
                  | PStr
                      [
                        {
                          pstr_desc =
                            Pstr_eval
                              ( {
                                  pexp_desc =
                                    Pexp_constant (Pconst_string (s, _, _));
                                  _;
                                },
                                _ );
                          _;
                        };
                      ] ->
                      if contains_sub s "\xC2\xA7" || contains_sub s "Section"
                      then found := true
                  | _ -> ())
              | _ -> ());
              default_iterator.attribute it a);
        }
      in
      iter.signature iter signature;
      if !found then []
      else
        [
          diag ~file:path ~rule:"mli-doc-ref"
            "no doc comment ties this interface to a paper section (add a \
             \u{00A7}N.N or 'Section N' reference)";
        ]

(* ------------------------------------------------------------------ *)
(* Rule family 4: experiment completeness                              *)

type exp_sources = {
  experiments_ml : string * string;
  test_ml : string * string;
  experiments_md : string * string;
}

(* "e<digits>_<rest>" -> Some digits *)
let exp_num_of_name name =
  let n = String.length name in
  if n < 2 || name.[0] <> 'e' then None
  else
    let rec digits i = if i < n && is_digit name.[i] then digits (i + 1) else i in
    let stop = digits 1 in
    if stop = 1 || stop >= n || name.[stop] <> '_' then None
    else int_of_string_opt (String.sub name 1 (stop - 1))

let prefixed_num ~prefix name =
  let pl = String.length prefix in
  if
    String.length name > pl
    && String.sub name 0 pl = prefix
    && String.for_all is_digit
         (String.sub name pl (String.length name - pl))
  then int_of_string_opt (String.sub name pl (String.length name - pl))
  else None

(* All string constants in expressions and patterns. *)
let string_constants structure =
  let strings = Hashtbl.create 64 in
  let open Ast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_constant (Pconst_string (s, _, _)) ->
              Hashtbl.replace strings s ()
          | _ -> ());
          default_iterator.expr it e);
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_constant (Pconst_string (s, _, _)) ->
              Hashtbl.replace strings s ()
          | _ -> ());
          default_iterator.pat it p);
    }
  in
  iter.structure iter structure;
  strings

let check_experiments ~allow sources =
  let exp_path, exp_src = sources.experiments_ml in
  match parse_impl ~filename:exp_path exp_src with
  | Error d -> [ d ]
  | Ok structure ->
      (* inventory of experiments.ml: row types, the eN_* bindings, and
         the "eN" id literals inside the [registry] binding *)
      let row_types = Hashtbl.create 32 in
      let registered = Hashtbl.create 64 in
      let exp_line : (int, int) Hashtbl.t = Hashtbl.create 32 in
      let note_line n line =
        if not (Hashtbl.mem exp_line n) then Hashtbl.replace exp_line n line
      in
      List.iter
        (fun (item : Parsetree.structure_item) ->
          match item.pstr_desc with
          | Pstr_type (_, decls) ->
              List.iter
                (fun (d : Parsetree.type_declaration) ->
                  Hashtbl.replace row_types d.ptype_name.txt ())
                decls
          | Pstr_value (_, vbs) ->
              List.iter
                (fun (vb : Parsetree.value_binding) ->
                  let line = fst (loc_pos vb.pvb_loc) in
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt = "registry"; _ } ->
                      Hashtbl.iter
                        (fun s () ->
                          match prefixed_num ~prefix:"e" s with
                          | Some n ->
                              Hashtbl.replace registered n ();
                              note_line n line
                          | None -> ())
                        (string_constants [ item ])
                  | Ppat_var { txt; _ } -> (
                      match exp_num_of_name txt with
                      | Some n -> note_line n line
                      | None -> ())
                  | _ -> ())
                vbs
          | _ -> ())
        structure;
      let ids =
        List.sort_uniq compare
          (Hashtbl.fold (fun n _ acc -> n :: acc) exp_line [])
      in
      let test_path, test_src = sources.test_ml in
      let test_strings, parse_diags =
        match parse_impl ~filename:test_path test_src with
        | Error d -> (None, [ d ])
        | Ok s -> (Some (string_constants s), [])
      in
      let md_lines = split_lines (snd sources.experiments_md) in
      let md_has_entry n =
        List.exists
          (fun line ->
            String.length line >= 3
            && String.sub line 0 3 = "## "
            && has_word line (Printf.sprintf "E%d" n))
          md_lines
      in
      let missing =
        List.concat_map
          (fun n ->
            let checks =
              [
                ( "row",
                  Hashtbl.mem row_types (Printf.sprintf "e%d_row" n),
                  Printf.sprintf "no `e%d_row` record type in %s" n exp_path );
                ( "registered",
                  Hashtbl.mem registered n,
                  Printf.sprintf "no \"e%d\" entry in the `registry` of %s" n
                    exp_path );
                ( "docs",
                  md_has_entry n,
                  Printf.sprintf "no \"## E%d\" entry in %s" n
                    (fst sources.experiments_md) );
                ( "test",
                  (match test_strings with
                  | None -> true (* parse error already reported *)
                  | Some strings -> Hashtbl.mem strings (Printf.sprintf "e%d" n)),
                  Printf.sprintf "no \"e%d\" shape-test suite in %s" n test_path
                );
              ]
            in
            List.filter_map
              (fun (artifact, ok, msg) ->
                if ok then None
                else
                  let key =
                    Printf.sprintf "%s:e%d.%s" exp_path n artifact
                  in
                  if Allowlist.mem allow ~rule:"experiment-artifacts" ~key
                  then None
                  else
                    Some
                      (diag ~file:exp_path
                         ~line:(Option.value (Hashtbl.find_opt exp_line n)
                                  ~default:1)
                         ~rule:"experiment-artifacts"
                         (Printf.sprintf
                            "e%d is missing its %s artifact: %s (allowlist \
                             key `experiment-artifacts %s`)"
                            n artifact msg key)))
              checks)
          ids
      in
      parse_diags @ missing

(* ------------------------------------------------------------------ *)
(* Output formats                                                      *)

(* Hand-rolled JSON (the toolchain ships no JSON library and the repo
   adds no dependencies): escape per RFC 8259. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr s = "\"" ^ json_escape s ^ "\""

let jobj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields)
  ^ "}"

let jarr items = "[" ^ String.concat ", " items ^ "]"

let diag_json (d : diag) =
  jobj
    ([
       ("file", jstr d.file);
       ("line", string_of_int d.line);
       ("col", string_of_int d.col);
       ("rule", jstr d.rule);
       ("message", jstr d.msg);
     ]
    @ match d.key with None -> [] | Some k -> [ ("key", jstr k) ])

let to_json diags =
  jobj
    [
      ("tool", jstr "evolvelint");
      ("findings", string_of_int (List.length diags));
      ("diagnostics", jarr (List.map diag_json diags));
    ]

(* SARIF 2.1.0, the minimal subset GitHub code scanning ingests: one
   run, one driver, the rule registry as reportingDescriptors, one
   result per diagnostic. *)
let to_sarif diags =
  let rule_descriptor (id, why) =
    jobj
      [
        ("id", jstr id);
        ("shortDescription", jobj [ ("text", jstr id) ]);
        ("fullDescription", jobj [ ("text", jstr why) ]);
      ]
  in
  let result (d : diag) =
    jobj
      [
        ("ruleId", jstr d.rule);
        ("level", jstr "error");
        ("message", jobj [ ("text", jstr d.msg) ]);
        ( "locations",
          jarr
            [
              jobj
                [
                  ( "physicalLocation",
                    jobj
                      [
                        ( "artifactLocation",
                          jobj [ ("uri", jstr d.file) ] );
                        ( "region",
                          jobj
                            [
                              ("startLine", string_of_int d.line);
                              ("startColumn", string_of_int d.col);
                            ] );
                      ] );
                ];
            ] );
      ]
  in
  jobj
    [
      ( "$schema",
        jstr "https://json.schemastore.org/sarif-2.1.0.json" );
      ("version", jstr "2.1.0");
      ( "runs",
        jarr
          [
            jobj
              [
                ( "tool",
                  jobj
                    [
                      ( "driver",
                        jobj
                          [
                            ("name", jstr "evolvelint");
                            ("informationUri", jstr "tools/lint");
                            ("rules", jarr (List.map rule_descriptor rules));
                          ] );
                    ] );
                ("results", jarr (List.map result diags));
              ];
          ] );
    ]

(* doc/LINT.md is generated from this function (`--catalog`) and a
   test asserts the committed file matches, so the catalog can never
   drift from the registry. *)
let catalog_md () =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "# evolvelint rule catalog\n\n\
     <!-- Generated by `dune exec tools/lint/main.exe -- --catalog`. Do \
     not edit by hand; test/test_lint.ml asserts this file matches the \
     registry in tools/lint/lint.ml. -->\n\n\
     evolvelint runs two passes. The untyped pass parses every source \
     file into the Parsetree and checks repo-shape invariants; the typed \
     pass loads the `.cmt`/`.cmti` artifacts dune emits, builds a \
     cross-module call graph over the nine libraries (nested modules and \
     functor applications included), infers an interprocedural effect \
     summary per binding — pure / reads-mutable / writes-own / \
     reads-shared / writes-shared / io / raises / nondet — propagated \
     bottom-up to a fixpoint with recursive SCCs collapsed, and runs the \
     comparison-safety, exception-hygiene, hot-path allocation, \
     shared-state, domain-safety, determinism-taint, atomics-protocol \
     and unsafe-ban rule packs over the Typedtree. `--summaries` \
     dumps the summaries, the shared-state inventory, the accessor \
     aliases and the spawned-closure callees (text or `--format \
     json`). DESIGN.md \u{00A7}9.4 documents the effect lattice and the \
     ownership rule, \u{00A7}9.5 the role lattice behind the atomics \
     pack and the unsafe ban.\n\n\
     Suppression: diagnostics carrying a `RULE FILE:BINDING` key honor \
     two files. `tools/lint/allowlist` records deliberate, justified \
     exceptions and is meant to be permanent; `tools/lint/baseline` \
     grandfathers legacy findings so a new rule lands strict on new code, \
     and is meant to shrink to empty. Stale entries in either file are \
     errors (`stale-allowlist`, `stale-baseline`).\n\n\
     Hot-path roots: "
    ;
  Buffer.add_string b (String.concat ", " (List.map (fun r -> "`" ^ r ^ "`") hot_path_roots));
  Buffer.add_string b ".\n\nDomain-safety roots: ";
  Buffer.add_string b
    (String.concat ", " (List.map (fun r -> "`" ^ r ^ "`") domain_safety_roots));
  Buffer.add_string b
    " — plus, automatically, every callee invoked inside a \
     `Domain.spawn` closure.\n";
  List.iter
    (fun (id, why) ->
      Buffer.add_string b (Printf.sprintf "\n## %s\n\n%s\n" id why))
    rules;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Driver: walk the tree                                               *)

let is_dir p = try Sys.is_directory p with Sys_error _ -> false

(* repo-relative recursive file listing, sorted for determinism *)
let rec walk root rel =
  let abs = Filename.concat root rel in
  if not (is_dir abs) then if Sys.file_exists abs then [ rel ] else []
  else
    Sys.readdir abs |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           if name = "_build" || name = ".git" then []
           else walk root (rel ^ "/" ^ name))

let files_with_suffix root dir suffix =
  List.filter (fun f -> Filename.check_suffix f suffix) (walk root dir)

(* The typed pass over a loaded tree: call graph, effect summaries,
   reachability from the hot-path and domain-safety roots, then the
   per-module packs (comparison safety, exception hygiene, hot-path
   allocation, the unsafe ban) and the whole-graph packs (shared-state
   inventory, domain-safety, determinism taint, atomics protocol).
   Shared by [run] and the fixture tests (which build one-module
   trees). *)
let typed_pass_on ~decls cg mods =
  let sums = Summary.compute cg in
  let hot = Callgraph.reachable cg ~roots:hot_path_roots in
  (* closures handed to Domain.spawn execute on a child domain, so
     their callees join the domain-safety roots — the stored-closure
     blind spot of DESIGN.md §9.4, closed in v4 *)
  let dom =
    Callgraph.reachable cg
      ~roots:
        (domain_safety_roots
        @ Callgraph.SS.elements (Callgraph.spawn_callees cg))
  in
  List.concat_map
    (fun (m : Typed.modinfo) ->
      Rules_compare.check ~decls m
      @ Rules_exn.check m
      @ Rules_alloc.check ~hot ~roots:hot_path_roots m
      @ Rules_unsafe.check m)
    mods
  @ Rules_state.check ~decls ~sums ~dom cg mods
  @ Rules_domain.check ~sums ~dom ~roots:domain_safety_roots cg
  @ Rules_taint.check ~sums cg
  @ Rules_atomic.check ~roles:atomic_roles ~scope:atomic_scope sums cg mods

let typed_pass ~decls mods = typed_pass_on ~decls (Callgraph.build mods) mods

(* Root-list entries that name no binding of [cg]. Whole-tree only:
   the fixture runs of [typed_pass] hold a module or two, so most
   roots are legitimately absent there. *)
let stale_roots cg =
  List.concat_map
    (fun (list, roots) ->
      List.filter_map
        (fun r ->
          if Callgraph.expand_roots cg [ r ] <> [] then None
          else
            Some
              (diag ~file:"tools/lint/lint.ml" ~rule:"stale-root"
                 (Printf.sprintf
                    "%s entry `%s` names no binding; rename or delete it"
                    list r)))
        roots)
    [
      ("hot_path_roots", hot_path_roots);
      ("domain_safety_roots", domain_safety_roots);
    ]

(* Two diagnostics at the same rule+site — one from the untyped pass,
   one from the typed pass — are the same finding worded twice; keep
   the compare_diag-first one. Input need not be sorted. *)
let dedupe_diags diags =
  let sorted = List.sort_uniq compare_diag diags in
  let same (a : diag) (b : diag) =
    a.file = b.file && a.line = b.line && a.col = b.col && a.rule = b.rule
  in
  List.rev
    (List.fold_left
       (fun acc d ->
         match acc with p :: _ when same p d -> acc | _ -> d :: acc)
       [] sorted)

(* The untyped pass alone — sections 1-4 of [run]. Marks [allow]
   entries used, so the staleness check belongs to the caller once
   every pass has run. *)
let run_untyped ~root ~allow =
  let read rel = read_file (Filename.concat root rel) in
  let diags = ref [] in
  let add ds = diags := ds @ !diags in
  (* 1. layering over lib/*/dune *)
  let lib_dunes =
    if is_dir (Filename.concat root "lib") then
      Sys.readdir (Filename.concat root "lib")
      |> Array.to_list |> List.sort compare
      |> List.filter_map (fun d ->
             let rel = "lib/" ^ d ^ "/dune" in
             if Sys.file_exists (Filename.concat root rel) then
               Some (rel, read rel)
             else None)
    else []
  in
  add (check_layering ~dune_files:lib_dunes);
  (* 2. determinism over lib/ implementations *)
  let lib_ml = files_with_suffix root "lib" ".ml" in
  let lib_mli = files_with_suffix root "lib" ".mli" in
  List.iter (fun f -> add (check_determinism ~allow ~path:f (read f))) lib_ml;
  (* 3. interface hygiene *)
  add (check_missing_mli ~ml:lib_ml ~mli:lib_mli);
  List.iter (fun f -> add (check_mli_doc ~path:f (read f))) lib_mli;
  (* parse-check everything else we claim to cover *)
  List.iter
    (fun dir ->
      List.iter
        (fun f ->
          if Filename.check_suffix f ".ml" then
            match parse_impl ~filename:f (read f) with
            | Error d -> add [ d ]
            | Ok _ -> ()
          else if Filename.check_suffix f ".mli" then
            match parse_intf ~filename:f (read f) with
            | Error d -> add [ d ]
            | Ok _ -> ())
        (walk root dir))
    [ "bin"; "bench"; "test" ];
  (* 4. experiment completeness *)
  let source rel =
    if Sys.file_exists (Filename.concat root rel) then Some (rel, read rel)
    else begin
      add
        [
          diag ~file:rel ~rule:"experiment-artifacts"
            "required file is missing";
        ];
      None
    end
  in
  (match
     ( source "lib/core/experiments.ml",
       source "test/test_experiments.ml",
       source "EXPERIMENTS.md" )
   with
  | Some experiments_ml, Some test_ml, Some experiments_md ->
      add (check_experiments ~allow { experiments_ml; test_ml; experiments_md })
  | _ -> ());
  List.sort compare_diag !diags

let run ~root ~allow ~baseline =
  let diags = ref (run_untyped ~root ~allow) in
  let add ds = diags := ds @ !diags in
  (* 5. typed pass: comparison safety, exception hygiene, hot-path
     allocation, effect summaries and the v3 packs over the .cmt tree *)
  let tree = Typed.load_tree ~root in
  add tree.Typed.tdiags;
  let cg = Callgraph.build tree.Typed.tmods in
  add (stale_roots cg);
  add
    (filter_suppressed ~allow ~baseline
       (typed_pass_on ~decls:tree.Typed.tdecls cg tree.Typed.tmods));
  add (Allowlist.stale allow);
  add (Allowlist.stale ~rule:"stale-baseline" baseline);
  dedupe_diags !diags

(* ------------------------------------------------------------------ *)
(* `--summaries`: dump the effect summaries and shared-state inventory *)

let summary_dump ~root ~json =
  let tree = Typed.load_tree ~root in
  let cg = Callgraph.build tree.Typed.tmods in
  let sums = Summary.compute cg in
  let spawned = Callgraph.SS.elements (Callgraph.spawn_callees cg) in
  let dom =
    Callgraph.reachable cg ~roots:(domain_safety_roots @ spawned)
  in
  let items, fields =
    Rules_state.inventory ~decls:tree.Typed.tdecls ~sums ~dom cg
      tree.Typed.tmods
  in
  let nodes =
    List.sort_uniq String.compare
      (List.map (fun (b : Callgraph.bind) -> b.Callgraph.b_node)
         cg.Callgraph.binds)
  in
  let accessors =
    List.sort compare
      (Hashtbl.fold
         (fun k v acc -> (k, v) :: acc)
         sums.Summary.accessors [])
  in
  let effects n = Summary.describe (Summary.get sums.Summary.full n) in
  if json then
    jobj
      [
        ("tool", jstr "evolvelint");
        ("roots", jarr (List.map jstr domain_safety_roots));
        ( "summaries",
          jarr
            (List.map
               (fun n ->
                 jobj
                   [
                     ("node", jstr n);
                     ("effects", jarr (List.map jstr (effects n)));
                     ( "pump_reachable",
                       if Callgraph.mem dom n then "true" else "false" );
                   ])
               nodes) );
        ( "shared_state",
          jarr
            (List.map
               (fun (it : Rules_state.item) ->
                 jobj
                   [
                     ("node", jstr it.Rules_state.it_node);
                     ("kind", jstr it.Rules_state.it_kind);
                     ("file", jstr it.Rules_state.it_file);
                     ("line", string_of_int it.Rules_state.it_line);
                     ("escape", jstr it.Rules_state.it_class);
                     ( "writers",
                       jarr (List.map jstr it.Rules_state.it_writers) );
                   ])
               items) );
        ( "mutable_fields",
          jarr
            (List.map
               (fun (f : Rules_state.field_item) ->
                 jobj
                   [
                     ("field", jstr f.Rules_state.fi_id);
                     ("file", jstr f.Rules_state.fi_file);
                     ("line", string_of_int f.Rules_state.fi_line);
                     ( "writers",
                       jarr (List.map jstr f.Rules_state.fi_writers) );
                     ( "pump_reachable",
                       if f.Rules_state.fi_pump then "true" else "false" );
                   ])
               fields) );
        ( "accessors",
          jarr
            (List.map
               (fun (n, f) ->
                 jobj [ ("node", jstr n); ("field", jstr f) ])
               accessors) );
        ("spawn_callees", jarr (List.map jstr spawned));
      ]
  else begin
    let b = Buffer.create 4096 in
    Buffer.add_string b
      (Printf.sprintf "# effect summaries (%d bindings; roots: %s)\n"
         (List.length nodes)
         (String.concat ", " domain_safety_roots));
    List.iter
      (fun n ->
        Buffer.add_string b
          (Printf.sprintf "%s%s  %s\n" n
             (if Callgraph.mem dom n then "  [pump]" else "")
             (String.concat ", " (effects n))))
      nodes;
    Buffer.add_string b
      (Printf.sprintf "\n# shared state (%d toplevel items)\n"
         (List.length items));
    List.iter
      (fun (it : Rules_state.item) ->
        Buffer.add_string b
          (Printf.sprintf "%s  %s  escape:%s  (%s:%d)%s\n"
             it.Rules_state.it_node it.Rules_state.it_kind
             it.Rules_state.it_class it.Rules_state.it_file
             it.Rules_state.it_line
             (match it.Rules_state.it_writers with
             | [] -> ""
             | ws -> "  written-by: " ^ String.concat ", " ws)))
      items;
    Buffer.add_string b
      (Printf.sprintf "\n# mutable record fields (%d)\n"
         (List.length fields));
    List.iter
      (fun (f : Rules_state.field_item) ->
        Buffer.add_string b
          (Printf.sprintf "%s%s  (%s:%d)%s\n" f.Rules_state.fi_id
             (if f.Rules_state.fi_pump then "  [pump]" else "")
             f.Rules_state.fi_file f.Rules_state.fi_line
             (match f.Rules_state.fi_writers with
             | [] -> ""
             | ws -> "  written-by: " ^ String.concat ", " ws)))
      fields;
    Buffer.add_string b
      (Printf.sprintf "\n# accessor aliases (%d)\n" (List.length accessors));
    List.iter
      (fun (n, f) -> Buffer.add_string b (Printf.sprintf "%s -> %s\n" n f))
      accessors;
    Buffer.add_string b
      (Printf.sprintf "\n# spawned-closure callees (%d)\n"
         (List.length spawned));
    List.iter (fun n -> Buffer.add_string b (n ^ "\n")) spawned;
    Buffer.contents b
  end
