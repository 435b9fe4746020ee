(* Typed-tree front end for evolvelint.

   Two ways in:
   - [load_tree] reads the `.cmt`/`.cmti`/`.cmi` artifacts dune emits
     (dune always compiles with -bin-annot) for every library under
     lib/, giving the rule packs a fully typed, cross-module view.
   - [of_string] typechecks a self-contained fixture in-process
     against the stdlib, so the rule packs are unit-testable without a
     build tree.

   Also owns the type-declaration tables ([decls]) the
   comparison-safety rule uses to decide whether a type is abstract,
   float-carrying, or safely structural. *)

type modinfo = {
  ti_module : string;  (* plain module name, e.g. "Pump" *)
  ti_lib : string;  (* dune library name, e.g. "dataplane" *)
  ti_file : string;  (* repo-relative source path *)
  ti_str : Typedtree.structure;
  ti_intf : string option;  (* .mli source text, when the module has one *)
}

(* ------------------------------------------------------------------ *)
(* Names and paths                                                     *)

(* "Dataplane__Pump" -> "Pump"; names without a "__" pass through. *)
let plain_module s =
  let n = String.length s in
  let rec last i found =
    if i + 2 > n then found
    else if s.[i] = '_' && s.[i + 1] = '_' then last (i + 1) (Some (i + 2))
    else last (i + 1) found
  in
  match last 0 None with
  | Some j when j < n -> String.sub s j (n - j)
  | _ -> s

let rec path_components p acc =
  match p with
  | Path.Pident id -> Ident.name id :: acc
  | Path.Pdot (p, s) -> path_components p (s :: acc)
  | Path.Papply (p, _) -> path_components p acc
  | Path.Pextra_ty (p, _) -> path_components p acc

(* Last two components of a path, as a (module, value) pair with any
   wrapped-library prefix stripped: [Dataplane.Telemetry.record_hop_n]
   and [Netcore__Ipv4.to_int] both normalize to their plain module.
   Single-component (local) paths return [None]. *)
let norm_target p =
  match List.rev (path_components p []) with
  | v :: m :: _ -> Some (plain_module m, v)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Structure helpers                                                   *)

let iter_top_bindings (str : Typedtree.structure) ~f =
  List.iter
    (fun (it : Typedtree.structure_item) ->
      match it.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, name) -> f ~id ~name:name.txt vb
              | _ -> ())
            vbs
      | _ -> ())
    str.str_items

let top_value_idents str =
  let acc = ref [] in
  iter_top_bindings str ~f:(fun ~id ~name _ -> acc := (id, name) :: !acc);
  List.rev !acc

let top_module_idents (str : Typedtree.structure) =
  List.concat_map
    (fun (it : Typedtree.structure_item) ->
      match it.str_desc with
      | Tstr_module mb -> Option.to_list mb.mb_id
      | Tstr_recmodule mbs -> List.filter_map (fun mb -> mb.Typedtree.mb_id) mbs
      | _ -> [])
    str.str_items

(* ------------------------------------------------------------------ *)
(* Type-declaration tables                                             *)

type decls = {
  impl : (string * string, Types.type_declaration) Hashtbl.t;
      (* as defined in the .ml — the in-module view *)
  intf : (string * string, Types.type_declaration) Hashtbl.t;
      (* as exported by the .cmi — the cross-module view *)
}

let empty_decls () = { impl = Hashtbl.create 64; intf = Hashtbl.create 64 }

let add_impl_decls decls (m : modinfo) =
  List.iter
    (fun (it : Typedtree.structure_item) ->
      match it.str_desc with
      | Tstr_type (_, tds) ->
          List.iter
            (fun (td : Typedtree.type_declaration) ->
              Hashtbl.replace decls.impl (m.ti_module, td.typ_name.txt)
                td.typ_type)
            tds
      | _ -> ())
    m.ti_str.str_items

(* Unmarshaling .cmt/.cmi artifacts dominates typed-pass start-up, and
   one test process loads the same tree many times (lint run,
   summaries, catalog, fixtures interleaved). Both loads are memoized
   by path and validated against the artifact's content digest, so an
   unchanged artifact is a hash lookup and a rebuilt one reloads. A
   .mli edit rebuilds the implementation's .cmt too (dune checks the
   .ml against it), so the digest also covers the cached ti_intf. *)
let cmi_cache :
    (string, Digest.t * (string * (string * Types.type_declaration) list))
    Hashtbl.t =
  Hashtbl.create 64

let read_cmi_decls path =
  let digest = Digest.file path in
  match Hashtbl.find_opt cmi_cache path with
  | Some (d, r) when d = digest -> r
  | _ ->
      let cmi = Cmi_format.read_cmi path in
      let mname = plain_module cmi.Cmi_format.cmi_name in
      let tds =
        List.filter_map
          (fun (item : Types.signature_item) ->
            match item with
            | Types.Sig_type (id, td, _, _) -> Some (Ident.name id, td)
            | _ -> None)
          cmi.Cmi_format.cmi_sign
      in
      Hashtbl.replace cmi_cache path (digest, (mname, tds));
      (mname, tds)

let add_cmi_decls decls path =
  let mname, tds = read_cmi_decls path in
  List.iter (fun (n, td) -> Hashtbl.replace decls.intf (mname, n) td) tds

let decls_of_mods mods =
  let d = empty_decls () in
  List.iter (add_impl_decls d) mods;
  d

(* ------------------------------------------------------------------ *)
(* Loading a built tree                                                *)

let is_dir p = try Sys.is_directory p with Sys_error _ -> false

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* dune keeps a library's compilation artifacts in
   lib/<dir>/.<libname>.objs/byte/. When linting a source checkout
   directly (`dune exec tools/lint/main.exe -- --root .`) the objs
   directories live under _build/default instead, so try both. *)
let byte_dir_of ~root libdir =
  let candidates =
    [
      Filename.concat root (Filename.concat "lib" libdir);
      Filename.concat root
        (Filename.concat "_build/default/lib" libdir);
    ]
  in
  List.find_map
    (fun dir ->
      if not (is_dir dir) then None
      else
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.find_map (fun e ->
               if
                 String.length e > 6
                 && e.[0] = '.'
                 && Filename.check_suffix e ".objs"
               then
                 let byte = Filename.concat (Filename.concat dir e) "byte" in
                 if is_dir byte then
                   Some (String.sub e 1 (String.length e - 6), byte)
                 else None
               else None))
    candidates

type tree = { tmods : modinfo list; tdecls : decls; tdiags : Diag.t list }

(* cmt -> modinfo memo; [None] records a cmt that carries no
   implementation for us (alias module, interface-only), so skipping
   it is also free on the next load. *)
let cmt_cache : (string, Digest.t * modinfo option) Hashtbl.t =
  Hashtbl.create 32

let load_cmt ~root ~libname path =
  let digest = Digest.file path in
  match Hashtbl.find_opt cmt_cache path with
  | Some (d, r) when d = digest -> r
  | _ ->
      let wrapped name =
        let p = plain_module name in
        if p = name || p = "" then None else Some p
      in
      let cmt = Cmt_format.read_cmt path in
      let r =
        match
          (wrapped cmt.Cmt_format.cmt_modname, cmt.Cmt_format.cmt_annots)
        with
        | Some mname, Cmt_format.Implementation str ->
            let file =
              match cmt.Cmt_format.cmt_sourcefile with
              | Some s -> s
              | None -> path
            in
            let intf =
              let mli = Filename.concat root (file ^ "i") in
              if Sys.file_exists mli then Some (read_file mli) else None
            in
            Some
              {
                ti_module = mname;
                ti_lib = libname;
                ti_file = file;
                ti_str = str;
                ti_intf = intf;
              }
        | _ -> None
      in
      Hashtbl.replace cmt_cache path (digest, r);
      r

let load_tree ~root =
  let mods = ref [] and diags = ref [] in
  let decls = empty_decls () in
  let libroot = Filename.concat root "lib" in
  let libdirs =
    if is_dir libroot then
      Sys.readdir libroot |> Array.to_list |> List.sort compare
      |> List.filter (fun d -> is_dir (Filename.concat libroot d))
    else []
  in
  List.iter
    (fun d ->
      match byte_dir_of ~root d with
      | None ->
          diags :=
            Diag.make ~file:("lib/" ^ d) ~rule:"typed-engine"
              "no .cmt artifacts found for this library; the typed rules \
               need a dune build (bin-annot) before linting"
            :: !diags
      | Some (libname, byte) ->
          Sys.readdir byte |> Array.to_list |> List.sort compare
          |> List.iter (fun f ->
                 let path = Filename.concat byte f in
                 (* skip the generated alias module (no "__") *)
                 let wrapped name =
                   let p = plain_module name in
                   if p = name || p = "" then None else Some p
                 in
                 if Filename.check_suffix f ".cmt" then (
                   match load_cmt ~root ~libname path with
                   | exception exn ->
                       diags :=
                         Diag.make ~file:path ~rule:"typed-engine"
                           (Printf.sprintf "cannot read cmt: %s"
                              (Printexc.to_string exn))
                         :: !diags
                   | Some m ->
                       add_impl_decls decls m;
                       mods := m :: !mods
                   | None -> ())
                 else if Filename.check_suffix f ".cmi" then
                   match wrapped (Filename.remove_extension f) with
                   | Some _ -> (
                       try add_cmi_decls decls path
                       with exn ->
                         diags :=
                           Diag.make ~file:path ~rule:"typed-engine"
                             (Printf.sprintf "cannot read cmi: %s"
                                (Printexc.to_string exn))
                           :: !diags)
                   | None -> ()))
    libdirs;
  {
    tmods = List.sort (fun a b -> compare a.ti_file b.ti_file) !mods;
    tdecls = decls;
    tdiags = List.rev !diags;
  }

(* ------------------------------------------------------------------ *)
(* In-process typechecking (fixtures)                                  *)

let tc_initialized = ref false

let init_typecheck () =
  if not !tc_initialized then begin
    (* fixtures are allowed to be sloppy; their warnings are not the
       test's subject *)
    ignore (Warnings.parse_options false "-a");
    Compmisc.init_path ();
    tc_initialized := true
  end

let of_string ~filename ~modname ?intf src =
  init_typecheck ();
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf filename;
  match Parse.implementation lexbuf with
  | exception exn ->
      Error
        (Diag.make ~file:filename ~rule:"typed-engine"
           (Printf.sprintf "fixture does not parse: %s"
              (Printexc.to_string exn)))
  | pt -> (
      match Typemod.type_structure env pt with
      | tstr, _, _, _, _ ->
          Ok
            {
              ti_module = modname;
              ti_lib = "fixture";
              ti_file = filename;
              ti_str = tstr;
              ti_intf = intf;
            }
      | exception exn ->
          Error
            (Diag.make ~file:filename ~rule:"typed-engine"
               (Printf.sprintf "fixture does not typecheck: %s"
                  (Printexc.to_string exn))))
