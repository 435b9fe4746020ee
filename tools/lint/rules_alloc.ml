(* Hot-path allocation lint.

   For every top-level function transitively reachable (per
   Callgraph) from the data-plane roots — Pump.inject, Shard.run,
   Flowcache.lookup, Wire.peek_* — flag per-call allocation in its
   body:

   - closure captures: a nested function that captures variables from
     its environment is heap-allocated on every execution of the
     enclosing code. Capture-free local functions compile to static
     closures and stay quiet, so `let rec go ...` loops that thread
     all state through arguments are the recommended fix.
   - tuple/option/list cells: Texp_tuple, Some, and (::) construction.
   - partial applications: an application whose result is still a
     function allocates an intermediate closure.

   One aggregated diagnostic per function (key FILE:BINDING), so a
   deliberate allocation — e.g. the per-delivery trace a function
   exists to build — is one allowlist/baseline line, not a line per
   site. The outermost curried parameter chain of a binding is the
   function itself, not a per-call allocation, and is skipped. *)

module IdSet = Set.Make (struct
  type t = Ident.t

  let compare = Ident.compare
end)

(* Bodies of a binding: descend through the leading curried chain.
   A multi-case `function` keyword contributes each case body. *)
let rec leading_bodies (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } -> leading_bodies c.c_rhs
  | Texp_function { cases; _ } ->
      List.map (fun (c : Typedtree.value Typedtree.case) -> c.c_rhs) cases
  | _ -> [ e ]

(* Every expression in a function's own leading chain, so a counted
   closure marks its merged curried layers as already handled. *)
let rec leading_chain (e : Typedtree.expression) acc =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } -> leading_chain c.c_rhs (e :: acc)
  | Texp_function _ -> e :: acc
  | _ -> acc

let idents_bound_in (e : Typedtree.expression) =
  let acc = ref IdSet.empty in
  let open Tast_iterator in
  let iter =
    {
      default_iterator with
      pat =
        (fun (type k) it (p : k Typedtree.general_pattern) ->
          (match p.pat_desc with
          | Typedtree.Tpat_var (id, _) -> acc := IdSet.add id !acc
          | Typedtree.Tpat_alias (_, id, _) -> acc := IdSet.add id !acc
          | _ -> ());
          default_iterator.pat it p);
      expr =
        (fun it (e : Typedtree.expression) ->
          (match e.exp_desc with
          | Texp_for (id, _, _, _, _, _) -> acc := IdSet.add id !acc
          | _ -> ());
          default_iterator.expr it e);
    }
  in
  iter.expr iter e;
  !acc

(* Free value variables of [e]: Pident references not bound inside
   [e] and not in [statics] (top-level bindings resolve statically,
   they are not captured). *)
let captures ~statics ?(self = IdSet.empty) (e : Typedtree.expression) =
  let bound = idents_bound_in e in
  let free = ref [] in
  let open Tast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun it (ex : Typedtree.expression) ->
          (match ex.exp_desc with
          | Texp_ident (Path.Pident id, _, _) ->
              if
                (not (IdSet.mem id bound))
                && (not (IdSet.mem id statics))
                && (not (IdSet.mem id self))
                && not (List.exists (Ident.same id) !free)
              then free := id :: !free
          | _ -> ());
          default_iterator.expr it ex);
    }
  in
  iter.expr iter e;
  List.rev !free

type counts = {
  mutable closures : int;
  mutable cells : int;
  mutable partials : int;
  mutable first : Location.t option;
  mutable captured : string list; (* sample from the first capture *)
}

let check ~hot ~roots (m : Typed.modinfo) =
  let diags = ref [] in
  let statics =
    IdSet.union
      (IdSet.of_list
         (List.map fst (Typed.top_value_idents m.Typed.ti_str)))
      (IdSet.of_list (Typed.top_module_idents m.Typed.ti_str))
  in
  Typed.iter_top_bindings m.Typed.ti_str ~f:(fun ~id:_ ~name vb ->
      let node = Callgraph.node m.Typed.ti_module name in
      if Callgraph.mem hot node then begin
        let c =
          { closures = 0; cells = 0; partials = 0; first = None; captured = [] }
        in
        let note loc = if c.first = None then c.first <- Some loc in
        let handled_funs : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
        let applied : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
        let locid (l : Location.t) =
          (l.loc_start.pos_lnum, l.loc_start.pos_cnum)
        in
        let count_closure ?(self = IdSet.empty) (f : Typedtree.expression) =
          if not (Hashtbl.mem handled_funs (locid f.exp_loc)) then begin
            List.iter
              (fun (l : Typedtree.expression) ->
                Hashtbl.replace handled_funs (locid l.exp_loc) ())
              (leading_chain f []);
            match captures ~statics ~self f with
            | [] -> () (* capture-free: compiles to a static closure *)
            | caps ->
                c.closures <- c.closures + 1;
                note f.exp_loc;
                if c.captured = [] then
                  c.captured <-
                    List.filteri (fun i _ -> i < 3)
                      (List.map Ident.name caps)
          end
        in
        let open Tast_iterator in
        let iter =
          {
            default_iterator with
            expr =
              (fun it (e : Typedtree.expression) ->
                (match e.exp_desc with
                | Texp_let (rf, vbs, _) ->
                    let self =
                      match rf with
                      | Recursive ->
                          IdSet.of_list
                            (List.filter_map
                               (fun (vb : Typedtree.value_binding) ->
                                 match vb.vb_pat.pat_desc with
                                 | Tpat_var (id, _) -> Some id
                                 | _ -> None)
                               vbs)
                      | Nonrecursive -> IdSet.empty
                    in
                    List.iter
                      (fun (vb : Typedtree.value_binding) ->
                        match vb.vb_expr.exp_desc with
                        | Texp_function _ -> count_closure ~self vb.vb_expr
                        | _ -> ())
                      vbs
                | Texp_function _ -> count_closure e
                | Texp_tuple _ ->
                    c.cells <- c.cells + 1;
                    note e.exp_loc
                | Texp_construct (_, cd, _ :: _)
                  when cd.Types.cstr_name = "Some"
                       || cd.Types.cstr_name = "::" ->
                    c.cells <- c.cells + 1;
                    note e.exp_loc
                | Texp_apply (f, _) -> (
                    Hashtbl.replace applied (locid f.exp_loc) ();
                    if not (Hashtbl.mem applied (locid e.exp_loc)) then
                      match Types.get_desc e.exp_type with
                      | Types.Tarrow _ ->
                          c.partials <- c.partials + 1;
                          note e.exp_loc
                      | _ -> ())
                | _ -> ());
                default_iterator.expr it e);
          }
        in
        List.iter (fun b -> iter.expr iter b) (leading_bodies vb.vb_expr);
        if c.closures + c.cells + c.partials > 0 then begin
          let key = m.Typed.ti_file ^ ":" ^ name in
          let line, col =
            match c.first with
            | Some l -> Diag.loc_pos l
            | None -> (1, 1)
          in
          let cap =
            match c.captured with
            | [] -> ""
            | caps -> Printf.sprintf " capturing %s" (String.concat ", " caps)
          in
          diags :=
            Diag.make ~line ~col ~key ~file:m.Typed.ti_file
              ~rule:"hot-path-alloc"
              (Printf.sprintf
                 "`%s` is on the per-packet hot path (reachable from %s) \
                  and allocates per call: %d capturing closure(s)%s, %d \
                  tuple/option/list cell(s), %d partial application(s); \
                  hoist them or add `hot-path-alloc %s` to \
                  tools/lint/allowlist (deliberate) or baseline (legacy)"
                 name
                 (String.concat ", " roots)
                 c.closures cap c.cells c.partials key)
            :: !diags
        end
      end);
  List.rev !diags
