(* The unsafe ban (DESIGN.md §9.5).

   lib/ reads and writes every string, bytes, bigarray and array
   through the checked accessors, so any reference to an [unsafe_get]
   or [unsafe_set] in a lib/ file is an `unsafe-unproven` finding,
   keyed FILE:BINDING (the enclosing top-level binding) so that a
   justified allowlist entry is the one escape. References are
   resolved on the Typedtree: a module alias or an [open] does not
   hide one. *)

let banned = [ "unsafe_get"; "unsafe_set" ]

let check (m : Typed.modinfo) =
  let file = m.Typed.ti_file in
  if not (String.starts_with ~prefix:"lib/" file) then []
  else begin
    let diags = ref [] in
    let binding = ref None in
    let open Tast_iterator in
    let iter =
      {
        default_iterator with
        value_binding =
          (fun it (vb : Typedtree.value_binding) ->
            match (!binding, vb.vb_pat.pat_desc) with
            | None, Tpat_var (_, name) ->
                binding := Some name.txt;
                default_iterator.value_binding it vb;
                binding := None
            | _ -> default_iterator.value_binding it vb);
        expr =
          (fun it (e : Typedtree.expression) ->
            (match e.exp_desc with
            | Texp_ident (p, _, _) -> (
                match Typed.norm_target p with
                | Some (md, fn) when List.mem fn banned ->
                    let name = Option.value !binding ~default:"<toplevel>" in
                    let key = file ^ ":" ^ name in
                    let line, col = Diag.loc_pos e.exp_loc in
                    diags :=
                      Diag.make ~line ~col ~key ~file ~rule:"unsafe-unproven"
                        (Printf.sprintf
                           "`%s` uses %s.%s: unsafe accesses are banned in \
                            lib/; use the checked accessor, or add \
                            `unsafe-unproven %s` to tools/lint/allowlist \
                            with a justification"
                           name md fn key)
                      :: !diags
                | _ -> ())
            | _ -> ());
            default_iterator.expr it e);
      }
    in
    iter.structure iter m.Typed.ti_str;
    List.rev !diags
  end
