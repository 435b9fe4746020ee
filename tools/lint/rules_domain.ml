(* Domain-safety race detector.

   Any function reachable from the data-plane entry points
   (Pump.inject, Flowcache.lookup, and the multicore worker roots)
   that writes state not provably owned by a single pump instance is a
   finding. The proof is the summary engine's ownership trace
   (Summary.scan): a mutation
   rooted in a function parameter, a local let or a fresh value is
   instance-owned and stays quiet — today's telemetry bumps and cache
   hit counters pass this way, not via allowlist — while a mutation
   rooted in module-level state is flagged at its site.

   Only *direct* writers are flagged (base summaries, not propagated
   ones): a caller of a flagged writer would be the same race reported
   twice. This is the readiness gate for ROADMAP item 1, the sharded
   multicore data plane: it must read zero before Pump is split across
   OCaml 5 domains, and must stay zero after. *)

let check ~(sums : Summary.info) ~dom ~roots (cg : Callgraph.t) =
  List.filter_map
    (fun (b : Callgraph.bind) ->
      let node = b.Callgraph.b_node in
      if not (Callgraph.mem dom node) then None
      else
        match Hashtbl.find_opt sums.Summary.sites node with
        | None | Some [] -> None
        | Some (first :: _ as sites) ->
            let m = b.Callgraph.b_mod in
            let binding = Callgraph.binding_of_node node in
            let key = m.Typed.ti_file ^ ":" ^ binding in
            let targets =
              List.sort_uniq String.compare
                (List.map (fun s -> s.Summary.s_target) sites)
            in
            let line, col = Diag.loc_pos first.Summary.s_loc in
            Some
              (Diag.make ~line ~col ~key ~file:m.Typed.ti_file
                 ~rule:"domain-unsafe-write"
                 (Printf.sprintf
                    "`%s` is reachable from the pump entry points (%s) and \
                     writes shared module-level state (%s) not owned by a \
                     single pump instance — a data race once the data plane \
                     shards across domains (ROADMAP 1); thread the state \
                     through the instance, or add `domain-unsafe-write %s` \
                     to tools/lint/allowlist with an ownership argument"
                    binding
                    (String.concat ", " roots)
                    (String.concat ", " targets)
                    key)))
    cg.Callgraph.binds
