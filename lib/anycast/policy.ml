module Prefix = Netcore.Prefix

type t = {
  table : (int * Prefix.t, bool) Hashtbl.t;
  mutable refuse_long : int list;
  mutable writes : int;  (* the BGP config's version *)
}

let create () = { table = Hashtbl.create 16; refuse_long = []; writes = 0 }

let set_propagates t ~domain ~prefix v =
  Hashtbl.replace t.table (domain, prefix) v;
  t.writes <- t.writes + 1

let refuse_all_nonroutable t ~domains =
  t.refuse_long <- domains @ t.refuse_long;
  t.writes <- t.writes + 1

let propagates t ~domain ~prefix =
  match Hashtbl.find_opt t.table (domain, prefix) with
  | Some v -> v
  | None ->
      not
        (List.mem domain t.refuse_long
        && not (Prefix.is_globally_routable prefix))

let bgp_config t =
  {
    Interdomain.Bgp.propagate = (fun d p -> propagates t ~domain:d ~prefix:p);
    version = (fun () -> t.writes);
  }
