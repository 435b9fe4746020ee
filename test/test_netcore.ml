(* Unit and property tests for the addressing/packet substrate. *)

module Ipv4 = Netcore.Ipv4
module Prefix = Netcore.Prefix
module Lpm = Netcore.Lpm
module Ipvn = Netcore.Ipvn
module Packet = Netcore.Packet
module Addressing = Netcore.Addressing

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Ipv4                                                                *)

let test_ipv4_string_roundtrip () =
  List.iter
    (fun s -> check Alcotest.string "roundtrip" s (Ipv4.to_string (Ipv4.of_string s)))
    [ "0.0.0.0"; "10.0.3.1"; "255.255.255.255"; "192.168.1.254"; "1.2.3.4" ]

let test_ipv4_of_string_rejects () =
  List.iter
    (fun s ->
      check Alcotest.bool s true (Option.is_none (Ipv4.of_string_opt s)))
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.0.0.1"; "-1.0.0.0"; "a.b.c.d"; "1..2.3" ]

let test_ipv4_octets () =
  check Alcotest.string "octets" "10.20.30.40"
    (Ipv4.to_string (Ipv4.of_octets 10 20 30 40));
  Alcotest.check_raises "octet range" (Invalid_argument "Ipv4.of_octets: octet out of range")
    (fun () -> ignore (Ipv4.of_octets 256 0 0 0))

let test_ipv4_bits () =
  let a = Ipv4.of_string "128.0.0.1" in
  check Alcotest.bool "msb" true (Ipv4.bit a 0);
  check Alcotest.bool "lsb" true (Ipv4.bit a 31);
  check Alcotest.bool "middle" false (Ipv4.bit a 15)

let test_ipv4_arith () =
  check Alcotest.string "succ" "0.0.1.0"
    (Ipv4.to_string (Ipv4.succ (Ipv4.of_string "0.0.0.255")));
  check Alcotest.string "wrap" "0.0.0.0" (Ipv4.to_string (Ipv4.succ Ipv4.broadcast));
  check Alcotest.string "add" "0.0.4.0"
    (Ipv4.to_string (Ipv4.add (Ipv4.of_string "0.0.0.0") 1024))

let prop_ipv4_int_roundtrip =
  QCheck.Test.make ~name:"ipv4 int roundtrip" ~count:500
    QCheck.(int_bound 0xFFFFFFF)
    (fun i -> Ipv4.to_int (Ipv4.of_int i) = i)

(* ------------------------------------------------------------------ *)
(* Prefix                                                              *)

let test_prefix_canonical () =
  let p = Prefix.make (Ipv4.of_string "10.1.2.3") 16 in
  check Alcotest.string "canonical" "10.1.0.0/16" (Prefix.to_string p)

let test_prefix_mem () =
  let p = Prefix.of_string "10.1.0.0/16" in
  check Alcotest.bool "inside" true (Prefix.mem (Ipv4.of_string "10.1.255.255") p);
  check Alcotest.bool "outside" false (Prefix.mem (Ipv4.of_string "10.2.0.0") p);
  check Alcotest.bool "zero-length matches all" true
    (Prefix.mem (Ipv4.of_string "200.1.2.3") (Prefix.of_string "0.0.0.0/0"))

let test_prefix_subsumes () =
  let outer = Prefix.of_string "10.0.0.0/8" in
  let inner = Prefix.of_string "10.1.0.0/16" in
  check Alcotest.bool "subsumes" true (Prefix.subsumes outer inner);
  check Alcotest.bool "not reverse" false (Prefix.subsumes inner outer);
  check Alcotest.bool "self" true (Prefix.subsumes outer outer)

let test_prefix_split () =
  let lo, hi = Prefix.split (Prefix.of_string "10.0.0.0/8") in
  check Alcotest.string "lo" "10.0.0.0/9" (Prefix.to_string lo);
  check Alcotest.string "hi" "10.128.0.0/9" (Prefix.to_string hi);
  Alcotest.check_raises "no split /32"
    (Invalid_argument "Prefix.split: /32 cannot be split") (fun () ->
      ignore (Prefix.split (Prefix.of_string "1.2.3.4/32")))

let test_prefix_host () =
  let p = Prefix.of_string "10.1.0.0/24" in
  check Alcotest.string "host 5" "10.1.0.5" (Ipv4.to_string (Prefix.host p 5));
  Alcotest.check_raises "host range"
    (Invalid_argument "Prefix.host: index out of range") (fun () ->
      ignore (Prefix.host p 256))

let test_prefix_routability () =
  check Alcotest.bool "/22 routable" true
    (Prefix.is_globally_routable (Prefix.of_string "10.0.0.0/22"));
  check Alcotest.bool "/24 not" false
    (Prefix.is_globally_routable (Prefix.of_string "10.0.0.0/24"))

let prop_prefix_split_partition =
  QCheck.Test.make ~name:"split partitions membership" ~count:300
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 30))
    (fun (v, len) ->
      let p = Prefix.make (Ipv4.of_int (v * 251)) len in
      let lo, hi = Prefix.split p in
      let probe = Prefix.host p (v mod Prefix.size p) in
      Prefix.mem probe p
      && Bool.not (Prefix.mem probe lo && Prefix.mem probe hi)
      && (Prefix.mem probe lo || Prefix.mem probe hi))

(* ------------------------------------------------------------------ *)
(* Lpm                                                                 *)

let naive_lookup addr table =
  (* reference: linear scan for the longest matching prefix *)
  List.fold_left
    (fun acc (p, v) ->
      if Prefix.mem addr p then
        match acc with
        | Some (bp, _) when Prefix.length bp >= Prefix.length p -> acc
        | _ -> Some (p, v)
      else acc)
    None table

(* Values are distinct in half the tables and drawn from 0-2 in the
   other half, so that a frozen table has equal neighbours to merge. *)
let value_span = QCheck.Gen.oneofl [ 3; max_int ]

let arbitrary_table =
  let gen =
    QCheck.Gen.(
      pair value_span (list_size (int_bound 40) (pair (int_bound 0xFFFF) (int_bound 32)))
      >|= fun (span, l) ->
      List.mapi (fun i (v, len) -> (Prefix.make (Ipv4.of_int (v * 65521)) len, i mod span)) l)
  in
  QCheck.make gen

(* Addresses where an interval edge hides: every binding's first and
   last address and their neighbours, and both ends of the space.
   Random probes rarely land on them. *)
let edge_probes table =
  Ipv4.any :: Ipv4.broadcast
  :: List.concat_map
       (fun (p, _) ->
         let first = Prefix.network p in
         let last = Ipv4.add first (Prefix.size p - 1) in
         [ Ipv4.add first (-1); first; last; Ipv4.add last 1 ])
       table

(* The lookup of [t] agrees with the scan. *)
let lookups_agree t table addr =
  Lpm.lookup_value addr t = Option.map snd (naive_lookup addr table)

(* A frozen table's lookups agree with the scan, its tag lookup too:
   the match's tag (the value itself, under [freeze]'s [Fun.id]), or
   [no_tag] where nothing matches. *)
let frozen_agree t table addr =
  lookups_agree t table addr
  && Lpm.lookup_tag addr t
     = match naive_lookup addr table with Some (_, v) -> v | None -> Lpm.no_tag

(* [freeze] keeps every binding, and folds over them in the trie's
   order *)
let same_bindings a b =
  let folded t = Lpm.fold (fun p v acc -> (p, v) :: acc) t [] in
  Lpm.bindings a = Lpm.bindings b
  && Lpm.cardinal a = Lpm.cardinal b
  && folded a = folded b

let freeze = Lpm.freeze ~tag:Fun.id

(* The kernel's hinted lookup finds the hint-free interval whatever the
   hint: out of range below and above (the interval count), the answer
   and its neighbours, interval 0, a random int and [other], an index
   from another table's layout. The tag there is [lookup_tag]'s. *)
let hints_agree t a ~random ~other =
  let i = Lpm.interval t a ~near:(-1) in
  let count = Lpm.interval t Ipv4.broadcast ~near:(-1) + 1 in
  List.for_all
    (fun near -> Lpm.interval t a ~near = i)
    [ -1; 0; i - 1; i; i + 1; count; random; other ]
  && Lpm.interval_tag t i = Lpm.lookup_tag a t

let prop_lpm_matches_naive =
  QCheck.Test.make ~name:"lpm lookup = naive scan" ~count:300
    QCheck.(triple arbitrary_table (int_bound 0xFFFFFF) int)
    (fun (table, probe, random) ->
      (* de-duplicate prefixes: Lpm.add replaces, the naive scan must
         see the same final binding per prefix *)
      let dedup =
        List.fold_left
          (fun acc (p, v) -> (p, v) :: List.remove_assoc p acc)
          [] table
      in
      let t = Lpm.of_list (List.rev dedup) in
      (* frozen from the trie's bindings, and from the raw list, where
         the last binding of a prefix must win as it does for [add] *)
      let frozen = freeze (Lpm.bindings t) and raw = freeze table in
      (* filled over a layout of more prefixes than it binds, unbound
         ones before and after the bound: their addresses must fall
         through to the enclosing binding *)
      let unbound =
        List.concat_map
          (fun (p, _) ->
            [
              Prefix.make (Prefix.network p) (max 0 (Prefix.length p - 2));
              Prefix.make
                (Ipv4.add (Prefix.network p) (Prefix.size p / 2))
                (min 32 (Prefix.length p + 3));
            ])
          table
      in
      let l = Lpm.layout (Array.of_list (unbound @ List.map fst table @ unbound)) in
      let values = Array.make (Lpm.slots l) None in
      List.iteri (fun i (_, v) -> values.(Lpm.slot l (List.length unbound + i)) <- Some v) table;
      let padded = Lpm.fill ~tag:Fun.id l values in
      (* over the same layout, only the odd values bound, each one up:
         other tags, fewer bindings, the same intervals *)
      let sparse =
        Lpm.fill ~tag:Fun.id l
          (Array.map (function Some v when v mod 2 = 1 -> Some (v + 1) | _ -> None) values)
      and sparse_model =
        List.filter_map (fun (p, v) -> if v mod 2 = 1 then Some (p, v + 1) else None) dedup
      in
      let probes =
        Ipv4.of_int (probe * 12347)
        :: edge_probes (dedup @ List.map (fun p -> (p, 0)) unbound)
      in
      List.for_all
        (fun a ->
          lookups_agree t dedup a && frozen_agree frozen dedup a && frozen_agree raw dedup a
          && frozen_agree padded dedup a
          && frozen_agree sparse sparse_model a
          &&
          let own = Lpm.interval frozen a ~near:(-1) and other = Lpm.interval padded a ~near:(-1) in
          hints_agree frozen a ~random ~other
          && hints_agree raw a ~random ~other
          && hints_agree padded a ~random ~other:own
          && hints_agree sparse a ~random ~other:own
          && Lpm.interval sparse a ~near:(-1) = other)
        probes
      && same_bindings frozen t
      && same_bindings raw t
      && same_bindings padded t
      && List.for_all
           (fun (p, v) -> Lpm.find_exact p frozen = Some v && Lpm.find_exact p raw = Some v)
           dedup)

let prop_lpm_remove =
  QCheck.Test.make ~name:"remove erases exactly one binding" ~count:200
    arbitrary_table (fun table ->
      match table with
      | [] -> true
      | (victim, _) :: _ ->
          let t = Lpm.of_list table in
          let t' = Lpm.remove victim t in
          Lpm.find_exact victim t' = None
          && List.for_all
               (fun (p, _) ->
                 Prefix.equal p victim
                 || Lpm.find_exact p t' = Lpm.find_exact p t)
               table)

(* Random interleaved add/remove/lookup sequences, checked op by op
   against a naive assoc-list model — exercises trie restructuring
   paths (branch collapse on remove, re-split on add) that the
   single-shot of_list properties above never reach. *)

type lpm_op = Op_add of Prefix.t * int | Op_remove of Prefix.t | Op_probe of Ipv4.t

let arbitrary_op_sequence =
  let gen_prefix =
    QCheck.Gen.(
      pair (int_bound 0xFFFF) (int_bound 32)
      >|= fun (v, len) -> Prefix.make (Ipv4.of_int (v * 65521)) len)
  in
  let gen_op span =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun p v -> Op_add (p, v mod span)) gen_prefix (int_bound 1000));
          (1, map (fun p -> Op_remove p) gen_prefix);
          (2, map (fun n -> Op_probe (Ipv4.of_int (n * 12347))) (int_bound 0xFFFFFF));
        ])
  in
  QCheck.make QCheck.Gen.(value_span >>= fun span -> list_size (int_bound 60) (gen_op span))

(* The same ops run on a trie [t]; on [f], which is frozen again from
   its bindings after every op; and on [r], frozen after every op from
   the raw list of adds so far, duplicate prefixes included, less the
   removed ones. An add or remove on a frozen table must give the
   trie's bindings, and all three must look up as the model does. *)
let prop_lpm_sequence =
  QCheck.Test.make ~name:"add/remove/lookup sequence = naive model" ~count:200
    arbitrary_op_sequence (fun ops ->
      let step (t, f, (raw, r), model, ok) op =
        if not ok then (t, f, (raw, r), model, false)
        else
          let write t' f' raw model =
            let f' = freeze (Lpm.bindings f') and r' = freeze (List.rev raw) in
            (t', f', (raw, r'), model, same_bindings t' f' && same_bindings t' r')
          in
          match op with
          | Op_add (p, v) ->
              write (Lpm.add p v t) (Lpm.add p v f) ((p, v) :: raw)
                ((p, v) :: List.remove_assoc p model)
          | Op_remove p ->
              write (Lpm.remove p t) (Lpm.remove p f)
                (List.filter (fun (q, _) -> not (Prefix.equal p q)) raw)
                (List.remove_assoc p model)
          | Op_probe addr ->
              ( t,
                f,
                (raw, r),
                model,
                lookups_agree t model addr
                && frozen_agree f model addr
                && frozen_agree r model addr )
      in
      let t, f, (_, r), model, ok =
        List.fold_left step (Lpm.empty, freeze [], ([], freeze []), [], true) ops
      in
      ok
      && Lpm.cardinal t = List.length model
      && same_bindings f t
      && same_bindings r t
      && List.for_all
           (fun (p, v) ->
             Lpm.find_exact p t = Some v
             && Lpm.find_exact p f = Some v
             && Lpm.find_exact p r = Some v)
           model
      && List.for_all
           (fun a -> lookups_agree t model a && frozen_agree f model a && frozen_agree r model a)
           (edge_probes model))

(* The kernel only ever holds compiled tables, so a tag lookup on a
   trie is refused; and a value may not take the tag that means "no
   route", not even one that every address of its prefix shadows. *)
let test_lpm_tag_refusals () =
  let p = Prefix.of_string "10.0.0.0/8" and addr = Ipv4.of_string "10.1.2.3" in
  let not_frozen = Invalid_argument "Lpm.lookup_tag: the table is not frozen" in
  Alcotest.check_raises "lookup_tag on a trie" not_frozen (fun () ->
      ignore (Lpm.lookup_tag addr (Lpm.of_list [ (p, 1) ])));
  Alcotest.check_raises "lookup_tag on the empty trie" not_frozen (fun () ->
      ignore (Lpm.lookup_tag addr Lpm.empty));
  Alcotest.check_raises "interval on a trie"
    (Invalid_argument "Lpm.interval: the table is not frozen") (fun () ->
      ignore (Lpm.interval (Lpm.of_list [ (p, 1) ]) addr ~near:0));
  Alcotest.check_raises "interval_tag on a trie"
    (Invalid_argument "Lpm.interval_tag: the table is not frozen") (fun () ->
      ignore (Lpm.interval_tag (Lpm.of_list [ (p, 1) ]) 0));
  check Alcotest.int "a frozen empty table has no route" Lpm.no_tag
    (Lpm.lookup_tag addr (freeze []));
  let no_tag = Invalid_argument "Lpm.fill: a value's tag is no_tag" in
  Alcotest.check_raises "freeze refuses a no_tag value" no_tag (fun () ->
      ignore (freeze [ (p, Lpm.no_tag) ]));
  let l =
    Lpm.layout
      [| p; Prefix.of_string "10.0.0.0/9"; Prefix.of_string "10.128.0.0/9" |]
  in
  let values = Array.make (Lpm.slots l) (Some 1) in
  values.(Lpm.slot l 0) <- Some Lpm.no_tag;
  Alcotest.check_raises "fill refuses a shadowed no_tag value" no_tag (fun () ->
      ignore (Lpm.fill ~tag:Fun.id l values))

let test_lpm_longest_wins () =
  let t =
    Lpm.of_list
      [
        (Prefix.of_string "10.0.0.0/8", "short");
        (Prefix.of_string "10.1.0.0/16", "mid");
        (Prefix.of_string "10.1.2.0/24", "long");
      ]
  in
  let lookup s = Lpm.lookup_value (Ipv4.of_string s) t in
  check Alcotest.(option string) "deep" (Some "long") (lookup "10.1.2.9");
  check Alcotest.(option string) "mid" (Some "mid") (lookup "10.1.9.9");
  check Alcotest.(option string) "short" (Some "short") (lookup "10.9.9.9");
  check Alcotest.(option string) "miss" None (lookup "11.0.0.1")

let test_lpm_cardinal_bindings () =
  let t =
    Lpm.of_list
      [
        (Prefix.of_string "10.0.0.0/8", 1);
        (Prefix.of_string "10.0.0.0/8", 2);
        (Prefix.of_string "20.0.0.0/8", 3);
      ]
  in
  check Alcotest.int "replace keeps cardinal" 2 (Lpm.cardinal t);
  check Alcotest.(option int) "replaced" (Some 2)
    (Lpm.find_exact (Prefix.of_string "10.0.0.0/8") t);
  check Alcotest.int "bindings sorted" 2 (List.length (Lpm.bindings t))

let test_lpm_union () =
  let a = Lpm.of_list [ (Prefix.of_string "10.0.0.0/8", 1) ] in
  let b =
    Lpm.of_list
      [ (Prefix.of_string "10.0.0.0/8", 10); (Prefix.of_string "30.0.0.0/8", 3) ]
  in
  let u = Lpm.union (fun _ x y -> x + y) a b in
  check Alcotest.(option int) "merged" (Some 11)
    (Lpm.find_exact (Prefix.of_string "10.0.0.0/8") u);
  check Alcotest.(option int) "kept" (Some 3)
    (Lpm.find_exact (Prefix.of_string "30.0.0.0/8") u)

let test_lpm_fold_reconstructs_prefixes () =
  let ps =
    [
      Prefix.of_string "128.0.0.0/1";
      Prefix.of_string "10.1.2.0/24";
      Prefix.of_string "0.0.0.0/0";
      Prefix.of_string "1.2.3.4/32";
    ]
  in
  let t = Lpm.of_list (List.map (fun p -> (p, ())) ps) in
  let got = List.map fst (Lpm.bindings t) in
  check Alcotest.int "all found" (List.length ps) (List.length got);
  List.iter
    (fun p ->
      check Alcotest.bool (Prefix.to_string p) true
        (List.exists (Prefix.equal p) got))
    ps

(* ------------------------------------------------------------------ *)
(* Ipvn                                                                *)

let test_ipvn_self_roundtrip () =
  let a = Ipv4.of_string "171.205.239.1" in
  let v = Ipvn.self_of_ipv4 ~version:8 a in
  check Alcotest.bool "is self" true (Ipvn.is_self v);
  check Alcotest.int "version" 8 (Ipvn.version v);
  check Alcotest.(option string) "embedded" (Some "171.205.239.1")
    (Option.map Ipv4.to_string (Ipvn.embedded_ipv4 v));
  check Alcotest.bool "no domain" true (Ipvn.domain v = None)

let test_ipvn_provider () =
  let v = Ipvn.provider ~version:9 ~domain:42 ~host:1234 in
  check Alcotest.bool "not self" false (Ipvn.is_self v);
  check Alcotest.(option int) "domain" (Some 42) (Ipvn.domain v);
  check Alcotest.(option int) "host" (Some 1234) (Ipvn.host v);
  check Alcotest.bool "no embedded v4" true (Ipvn.embedded_ipv4 v = None)

let test_ipvn_validation () =
  Alcotest.check_raises "version 0" (Invalid_argument "Ipvn: version out of range [1, 255]")
    (fun () -> ignore (Ipvn.self_of_ipv4 ~version:0 Ipv4.any));
  Alcotest.check_raises "domain range"
    (Invalid_argument "Ipvn.provider: domain out of range") (fun () ->
      ignore (Ipvn.provider ~version:8 ~domain:(1 lsl 20) ~host:0))

let prop_ipvn_self_injective =
  QCheck.Test.make ~name:"self-addresses injective" ~count:300
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
    (fun (a, b) ->
      let va = Ipvn.self_of_ipv4 ~version:8 (Ipv4.of_int a) in
      let vb = Ipvn.self_of_ipv4 ~version:8 (Ipv4.of_int b) in
      Ipvn.equal va vb = (a = b))

let prop_ipvn_provider_roundtrip =
  QCheck.Test.make ~name:"provider fields roundtrip" ~count:300
    QCheck.(pair (int_bound ((1 lsl 20) - 1)) (int_bound 1000000))
    (fun (d, h) ->
      let v = Ipvn.provider ~version:5 ~domain:d ~host:h in
      Ipvn.domain v = Some d && Ipvn.host v = Some h)

(* ------------------------------------------------------------------ *)
(* Packet                                                              *)

let sample_vn () =
  Packet.make_vn ~version:8
    ~vsrc:(Ipvn.self_of_ipv4 ~version:8 (Ipv4.of_string "1.2.3.4"))
    ~vdst:(Ipvn.provider ~version:8 ~domain:3 ~host:7)
    "payload"

let test_packet_encap_roundtrip () =
  let vn = sample_vn () in
  let p = Packet.encapsulate ~src:(Ipv4.of_string "5.6.7.8") ~dst:Ipv4.broadcast vn in
  match Packet.decapsulate p with
  | Some vn' ->
      check Alcotest.bool "same inner" true (vn' = vn);
      check Alcotest.bool "data has no inner" true
        (Packet.decapsulate (Packet.make_data ~src:Ipv4.any ~dst:Ipv4.any "x") = None)
  | None -> Alcotest.fail "decapsulate returned None"

let test_packet_version_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Packet.make_vn: source address version mismatch")
    (fun () ->
      ignore
        (Packet.make_vn ~version:9
           ~vsrc:(Ipvn.self_of_ipv4 ~version:8 Ipv4.any)
           ~vdst:(Ipvn.provider ~version:9 ~domain:0 ~host:0)
           "x"))

let test_packet_ttl () =
  let p = Packet.make_data ~src:Ipv4.any ~dst:Ipv4.any "x" in
  check Alcotest.int "default ttl" Packet.default_ttl p.Packet.ttl;
  let rec drain p n =
    match Packet.decrement_ttl p with Some p' -> drain p' (n + 1) | None -> n
  in
  check Alcotest.int "exhausts after ttl-1 hops" (Packet.default_ttl - 1) (drain p 0)

let test_packet_dest_ipv4 () =
  let vn = sample_vn () in
  (* destination is provider-addressed and no hint: unrecoverable *)
  check Alcotest.bool "no hint" true (Packet.dest_ipv4 vn = None);
  let hinted =
    Packet.make_vn ~version:8 ~vsrc:vn.Packet.vsrc ~vdst:vn.Packet.vdst
      ~dest_v4_hint:(Ipv4.of_string "9.9.9.9") "x"
  in
  check Alcotest.(option string) "hint wins" (Some "9.9.9.9")
    (Option.map Ipv4.to_string (Packet.dest_ipv4 hinted));
  let self_dst =
    Packet.make_vn ~version:8 ~vsrc:vn.Packet.vsrc
      ~vdst:(Ipvn.self_of_ipv4 ~version:8 (Ipv4.of_string "8.8.8.8"))
      "x"
  in
  check Alcotest.(option string) "embedded fallback" (Some "8.8.8.8")
    (Option.map Ipv4.to_string (Packet.dest_ipv4 self_dst))

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)

module Wire = Netcore.Wire
module Arena = Netcore.Arena

let arbitrary_packet =
  let open QCheck.Gen in
  let addr = map Ipv4.of_int (int_bound 0xFFFFFF) in
  let ipvn version =
    oneof
      [
        map (fun a -> Ipvn.self_of_ipv4 ~version (Ipv4.of_int a)) (int_bound 0xFFFFFF);
        map2
          (fun d h -> Ipvn.provider ~version ~domain:d ~host:h)
          (int_bound ((1 lsl 20) - 1))
          (int_bound 1000000);
      ]
  in
  let gen =
    let* src = addr in
    let* dst = addr in
    let* ttl = int_range 1 255 in
    let* body = string_size ~gen:printable (int_bound 200) in
    let* is_encap = bool in
    if not is_encap then
      return { Packet.src; dst; ttl; payload = Packet.Data body }
    else
      let* version = int_range 1 255 in
      let* vttl = int_range 1 255 in
      let* vsrc = ipvn version in
      let* vdst = ipvn version in
      let* hint = opt addr in
      return
        {
          Packet.src;
          dst;
          ttl;
          payload =
            Packet.Encap
              { Packet.version; vsrc; vdst; vttl; dest_v4_hint = hint; body };
        }
  in
  QCheck.make gen

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire encode/decode roundtrip" ~count:500
    arbitrary_packet (fun p -> Wire.decode (Wire.encode p) = Ok p)

let prop_wire_length =
  QCheck.Test.make ~name:"wire_length = encoded length" ~count:300
    arbitrary_packet (fun p -> Wire.wire_length p = String.length (Wire.encode p))

let prop_wire_rejects_truncation =
  QCheck.Test.make ~name:"every strict prefix is rejected" ~count:60
    arbitrary_packet (fun p ->
      let s = Wire.encode p in
      List.for_all
        (fun n -> Result.is_error (Wire.decode (String.sub s 0 n)))
        (List.init (String.length s) Fun.id))

let prop_wire_decode_total =
  QCheck.Test.make ~name:"decode never raises on arbitrary bytes" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_bound 80))
    (fun s ->
      match Wire.decode s with Ok _ -> true | Error _ -> true)

(* encode_into is encode plus one checked copy: behind [used] bytes
   already taken, the slab holds encode's image at the returned offset,
   and an arena one byte short of the image raises. *)
let prop_wire_encode_into =
  QCheck.Test.make ~name:"encode_into = encode in a slab" ~count:300
    QCheck.(pair arbitrary_packet (int_bound 64))
    (fun (p, used) ->
      let s = Wire.encode p in
      let len = String.length s in
      let a = Arena.create ~bytes:(used + len) in
      ignore (Arena.alloc a used : int);
      let off = Wire.encode_into p a in
      let b = Arena.buf a in
      let copied = String.init len (fun i -> Bigarray.Array1.get b (off + i)) in
      let short = Arena.create ~bytes:(len - 1) in
      let refused =
        match Wire.encode_into p short with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      off = used && String.equal copied s && refused)

let test_arena_exhaustion () =
  let a = Arena.create ~bytes:8 in
  check Alcotest.int "first alloc at offset 0" 0 (Arena.alloc a 8);
  check Alcotest.int "exhausted alloc returns -1" (-1) (Arena.alloc a 1);
  Arena.reset a;
  check Alcotest.int "reset rewinds the cursor" 0 (Arena.alloc a 4)

let test_wire_malformed () =
  let sample =
    Wire.encode (Packet.make_data ~src:Ipv4.any ~dst:Ipv4.broadcast "hello")
  in
  (* unsupported version byte *)
  let bad_version = "\x07" ^ String.sub sample 1 (String.length sample - 1) in
  check Alcotest.bool "bad format version" true (Result.is_error (Wire.decode bad_version));
  (* unknown payload kind *)
  let bad_kind =
    String.sub sample 0 1 ^ "\x09" ^ String.sub sample 2 (String.length sample - 2)
  in
  check Alcotest.bool "bad payload kind" true (Result.is_error (Wire.decode bad_kind));
  (* trailing garbage *)
  check Alcotest.bool "trailing bytes" true (Result.is_error (Wire.decode (sample ^ "x")));
  check Alcotest.bool "empty input" true (Result.is_error (Wire.decode ""))

let test_wire_rejects_oversized_body () =
  let big = String.make 70000 'a' in
  Alcotest.check_raises "oversized body"
    (Invalid_argument "Wire.encode: body exceeds 65535 bytes") (fun () ->
      ignore (Wire.encode (Packet.make_data ~src:Ipv4.any ~dst:Ipv4.any big)))

(* ------------------------------------------------------------------ *)
(* Addressing                                                          *)

let test_addressing_plan () =
  let p = Addressing.domain_prefix 0 in
  check Alcotest.int "/16" 16 (Prefix.length p);
  let r = Addressing.router_address ~domain:3 ~index:0 in
  check Alcotest.(option int) "router owner" (Some 3) (Addressing.domain_of_address r);
  check Alcotest.bool "router range" true (Addressing.is_router_address r);
  check Alcotest.bool "not endhost" false (Addressing.is_endhost_address r);
  let h = Addressing.endhost_address ~domain:3 ~index:5 in
  check Alcotest.bool "endhost range" true (Addressing.is_endhost_address h);
  check Alcotest.(option int) "endhost owner" (Some 3) (Addressing.domain_of_address h)

let test_addressing_anycast_ranges () =
  let g = Addressing.anycast_global ~group:8 in
  check Alcotest.bool "option1 outside domains" true
    (Addressing.domain_of_address (Prefix.network g) = None);
  check Alcotest.bool "option1 non-routable" false (Prefix.is_globally_routable g);
  let d = Addressing.anycast_in_domain ~domain:7 ~group:8 in
  check Alcotest.bool "option2 inside its domain" true
    (Prefix.subsumes (Addressing.domain_prefix 7) d);
  check Alcotest.(option int) "option2 owner" (Some 7)
    (Addressing.domain_of_address (Addressing.anycast_address d));
  (* the anycast /24 must not collide with router or endhost space *)
  check Alcotest.bool "no router collision" false
    (Addressing.is_router_address (Addressing.anycast_address d));
  check Alcotest.bool "no endhost collision" false
    (Addressing.is_endhost_address (Addressing.anycast_address d))

let prop_addressing_no_collisions =
  QCheck.Test.make ~name:"router/endhost addresses never collide" ~count:300
    QCheck.(pair (pair (int_bound 100) (int_bound 1000)) (pair (int_bound 100) (int_bound 1000)))
    (fun ((d1, i1), (d2, i2)) ->
      let r = Addressing.router_address ~domain:d1 ~index:i1 in
      let h = Addressing.endhost_address ~domain:d2 ~index:i2 in
      not (Ipv4.equal r h))

let () =
  Alcotest.run "netcore"
    [
      ( "ipv4",
        [
          Alcotest.test_case "string roundtrip" `Quick test_ipv4_string_roundtrip;
          Alcotest.test_case "of_string rejects" `Quick test_ipv4_of_string_rejects;
          Alcotest.test_case "octets" `Quick test_ipv4_octets;
          Alcotest.test_case "bits" `Quick test_ipv4_bits;
          Alcotest.test_case "arithmetic" `Quick test_ipv4_arith;
          qcheck prop_ipv4_int_roundtrip;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "canonical form" `Quick test_prefix_canonical;
          Alcotest.test_case "membership" `Quick test_prefix_mem;
          Alcotest.test_case "subsumption" `Quick test_prefix_subsumes;
          Alcotest.test_case "split" `Quick test_prefix_split;
          Alcotest.test_case "host" `Quick test_prefix_host;
          Alcotest.test_case "routability limit" `Quick test_prefix_routability;
          qcheck prop_prefix_split_partition;
        ] );
      ( "lpm",
        [
          Alcotest.test_case "longest match wins" `Quick test_lpm_longest_wins;
          Alcotest.test_case "cardinal and replace" `Quick test_lpm_cardinal_bindings;
          Alcotest.test_case "union" `Quick test_lpm_union;
          Alcotest.test_case "fold reconstructs prefixes" `Quick
            test_lpm_fold_reconstructs_prefixes;
          qcheck prop_lpm_matches_naive;
          qcheck prop_lpm_remove;
          qcheck prop_lpm_sequence;
          Alcotest.test_case "tag lookups need frozen tables and real tags" `Quick
            test_lpm_tag_refusals;
        ] );
      ( "ipvn",
        [
          Alcotest.test_case "self roundtrip" `Quick test_ipvn_self_roundtrip;
          Alcotest.test_case "provider fields" `Quick test_ipvn_provider;
          Alcotest.test_case "validation" `Quick test_ipvn_validation;
          qcheck prop_ipvn_self_injective;
          qcheck prop_ipvn_provider_roundtrip;
        ] );
      ( "packet",
        [
          Alcotest.test_case "encap roundtrip" `Quick test_packet_encap_roundtrip;
          Alcotest.test_case "version mismatch" `Quick test_packet_version_mismatch;
          Alcotest.test_case "ttl" `Quick test_packet_ttl;
          Alcotest.test_case "dest ipv4 recovery" `Quick test_packet_dest_ipv4;
        ] );
      ( "wire",
        [
          qcheck prop_wire_roundtrip;
          qcheck prop_wire_length;
          qcheck prop_wire_rejects_truncation;
          qcheck prop_wire_decode_total;
          qcheck prop_wire_encode_into;
          Alcotest.test_case "malformed inputs" `Quick test_wire_malformed;
          Alcotest.test_case "oversized body" `Quick test_wire_rejects_oversized_body;
        ] );
      ( "arena",
        [ Alcotest.test_case "exhaustion and reset" `Quick test_arena_exhaustion ]
      );
      ( "addressing",
        [
          Alcotest.test_case "plan" `Quick test_addressing_plan;
          Alcotest.test_case "anycast ranges" `Quick test_addressing_anycast_ranges;
          qcheck prop_addressing_no_collisions;
        ] );
    ]
