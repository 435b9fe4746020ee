(* The unreached-export rule: every value a lib/ .mli exports must be
   reached from a program. Every top-level item of an executable is a
   root, and so is every item of a lib/ module that runs when it is
   linked. From them the rule follows the call graph, plus the edge it
   does not draw: a module passed to a functor reaches the values the
   parameter asks for (`Map.Make (Prefix)` reaches `Prefix.compare`),
   read off the application's coercion. Graph nodes name plain modules,
   unique inside lib/, but a program links other libraries too
   (perfkit has a Stats, as lib/core does), so paths resolve by
   library: the head of [Evolve.Stats.mean] is library evolve's
   wrapper, and a local alias records the library it names. *)

module SS = Callgraph.SS

type scope = {
  lib : Typed.modinfo list;
  wrappers : (string * string) list;  (* "Evolve" -> "evolve" *)
  mutable aliases : (Ident.t * (string option * string)) list;
  statics : (Ident.t * string) list;
      (* a lib module's top-level values, keyed to their nodes *)
}

let rec split p acc =
  match p with
  | Path.Pident id -> (id, acc)
  | Path.Pdot (p, s) -> split p (s :: acc)
  | Path.Papply (p, _) | Path.Pextra_ty (p, _) -> split p acc

(* A lib module [m], named with its library when the path says which:
   [None] matches a module of that name in any library (unwrapped
   fixtures). *)
let is_lib sc (lib, m) =
  List.exists
    (fun (md : Typed.modinfo) ->
      md.Typed.ti_module = m
      && match lib with None -> true | Some l -> l = md.Typed.ti_lib)
    sc.lib

(* (library, module, components after the module) of a path. *)
let target sc p =
  let id, rest = split p [] in
  match List.find_opt (fun (i, _) -> Ident.same i id) sc.aliases with
  | Some (_, (lib, m)) -> Some (lib, m, rest)
  | None when not (Ident.global id) -> None
  | None -> (
      let name = Ident.name id in
      match Typed.unit_library name with
      | Some lib -> Some (Some lib, Typed.plain_module name, rest)
      | None -> (
          match (List.assoc_opt name sc.wrappers, rest) with
          | Some lib, m :: rest -> Some (Some lib, m, rest)
          | Some _, [] -> None
          | None, _ -> Some (None, name, rest)))

let rec module_target sc (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> (
      match target sc p with
      | Some (lib, m, []) when is_lib sc (lib, m) -> Some (lib, m)
      | _ -> None)
  | Tmod_constraint (me, _, _, _) -> module_target sc me
  | _ -> None

(* The values of [sg] a coercion keeps, by runtime position: the
   positions count what a structure block stores (OCaml's
   Includemod.is_runtime_component). [None] when the argument's type
   is not a plain signature; the caller then keeps every value. *)
let coerced_values (mty : Types.module_type) (c : Typedtree.module_coercion) =
  match mty with
  | Types.Mty_signature sg -> (
      let slots =
        List.filter_map
          (fun (item : Types.signature_item) ->
            match item with
            | Sig_value (_, { val_kind = Val_prim _; _ }, _) -> None
            | Sig_value (id, _, _) -> Some (Some (Ident.name id))
            | Sig_typext _ | Sig_module (_, Mp_present, _, _, _) | Sig_class _
              ->
                Some None
            | _ -> None)
          sg
      in
      match c with
      | Tcoerce_none -> Some (List.filter_map Fun.id slots)
      | Tcoerce_structure (kept, _) ->
          Some
            (List.filter_map
               (fun (pos, _) -> Option.join (List.nth_opt slots pos))
               kept)
      | _ -> None)
  | _ -> None

(* Walk [f]'s part of a tree, calling [hit] with every lib node it
   reaches and [whole] with every lib module it hands a functor whose
   demands cannot be read off. Module aliases met on the way are
   recorded in [sc], so later items of the same structure see them. *)
let scan sc ~hit ~whole f =
  let note_alias id me =
    Option.iter
      (fun t -> sc.aliases <- (id, t) :: sc.aliases)
      (module_target sc me)
  in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it (e : Typedtree.expression) ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when List.exists (fun (i, _) -> Ident.same i id) sc.statics ->
              hit (snd (List.find (fun (i, _) -> Ident.same i id) sc.statics))
          | Texp_ident (p, _, _) -> (
              match target sc p with
              | Some (lib, m, (_ :: _ as rest)) when is_lib sc (lib, m) ->
                  hit (String.concat "." (m :: rest))
              | _ -> ())
          | Texp_letmodule (Some id, _, _, me, _) -> note_alias id me
          | _ -> ());
          default_iterator.expr it e);
      module_binding =
        (fun it (mb : Typedtree.module_binding) ->
          Option.iter (fun id -> note_alias id mb.mb_expr) mb.mb_id;
          default_iterator.module_binding it mb);
      module_expr =
        (fun it (me : Typedtree.module_expr) ->
          (match me.mod_desc with
          | Tmod_apply (_, arg, c) -> (
              match module_target sc arg with
              | Some (_, m) -> (
                  match coerced_values arg.mod_type c with
                  | Some vs -> List.iter (fun v -> hit (m ^ "." ^ v)) vs
                  | None -> whole m)
              | None -> ())
          | _ -> ());
          default_iterator.module_expr it me);
    }
  in
  f it

(* The top-level values of an interface, with their lines. *)
let exports (m : Typed.modinfo) =
  match m.Typed.ti_intf with
  | None -> []
  | Some src -> (
      let lexbuf = Lexing.from_string src in
      match Parse.interface lexbuf with
      | exception (Syntaxerr.Error _ | Lexer.Error _) ->
          [] (* the untyped pass reports the parse error *)
      | sg ->
          List.filter_map
            (fun (item : Parsetree.signature_item) ->
              match item.psig_desc with
              | Psig_value vd ->
                  Some (vd.pval_name.txt, item.psig_loc.loc_start.pos_lnum)
              | _ -> None)
            sg)

let check cg ~(lib : Typed.modinfo list) ~(roots : Typed.modinfo list) =
  let wrappers =
    List.sort_uniq compare
      (List.map
         (fun (m : Typed.modinfo) ->
           (String.capitalize_ascii m.Typed.ti_lib, m.Typed.ti_lib))
         lib)
  in
  let seeds = ref [] in
  let extra : (string, string list) Hashtbl.t = Hashtbl.create 256 in
  let seed n = seeds := n :: !seeds in
  let whole m = seeds := Callgraph.expand_roots cg [ m ^ ".*" ] @ !seeds in
  List.iter
    (fun (r : Typed.modinfo) ->
      let sc = { lib; wrappers; aliases = []; statics = [] } in
      scan sc ~hit:seed ~whole (fun it -> it.structure it r.Typed.ti_str))
    roots;
  let edge src dst =
    Hashtbl.replace extra src
      (dst :: Option.value (Hashtbl.find_opt extra src) ~default:[])
  in
  (* A named value is a node: what it reaches hangs off it, as the call
     graph's own edges do. A nested structure's values are nodes under
     its name. Anything else runs when the module is linked. *)
  let rec scan_items sc prefix items =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (_, name) | Tpat_alias (_, _, name) ->
                    let src = Callgraph.node prefix name.txt in
                    scan sc ~hit:(edge src)
                      ~whole:(fun m ->
                        List.iter (edge src)
                          (Callgraph.expand_roots cg [ m ^ ".*" ]))
                      (fun it -> it.value_binding it vb)
                | _ -> scan sc ~hit:seed ~whole (fun it -> it.value_binding it vb))
              vbs
        | Tstr_module
            { mb_id = Some id; mb_expr = { mod_desc = Tmod_structure s; _ }; _ }
          ->
            scan_items sc (Callgraph.node prefix (Ident.name id)) s.str_items
        | _ -> scan sc ~hit:seed ~whole (fun it -> it.structure_item it item))
      items
  in
  List.iter
    (fun (m : Typed.modinfo) ->
      let statics =
        List.map
          (fun (id, name) -> (id, Callgraph.node m.Typed.ti_module name))
          (Typed.top_value_idents m.Typed.ti_str)
      in
      scan_items
        { lib; wrappers; aliases = []; statics }
        m.Typed.ti_module m.Typed.ti_str.str_items)
    lib;
  let seen = Hashtbl.create 256 in
  let rec go n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      SS.iter go (Callgraph.succs cg n);
      List.iter go (Option.value (Hashtbl.find_opt extra n) ~default:[])
    end
  in
  List.iter go !seeds;
  List.concat_map
    (fun (m : Typed.modinfo) ->
      let file = m.Typed.ti_file ^ "i" in
      List.filter_map
        (fun (v, line) ->
          let n = Callgraph.node m.Typed.ti_module v in
          if Hashtbl.mem seen n then None
          else
            let key = file ^ ":" ^ v in
            Some
              (Diag.make ~line ~key ~file ~rule:"unreached-export"
                 (Printf.sprintf
                    "`%s` is exported but no program reaches it: delete it, \
                     or add `unreached-export %s` to tools/lint/allowlist \
                     (a test oracle, naming the test) or tools/lint/baseline \
                     (legacy debt)"
                    n key)))
        (exports m))
    lib
