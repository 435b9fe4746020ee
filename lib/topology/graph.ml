type t = { adj : (int, float) Hashtbl.t array; mutable edge_count : int }

let create ~n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { adj = Array.init n (fun _ -> Hashtbl.create 4); edge_count = 0 }

let n g = Array.length g.adj

let check_node g v name =
  if v < 0 || v >= n g then invalid_arg (name ^ ": node out of range")

let add_edge g u v w =
  check_node g u "Graph.add_edge";
  check_node g v "Graph.add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if w <= 0.0 then invalid_arg "Graph.add_edge: non-positive weight";
  if not (Hashtbl.mem g.adj.(u) v) then g.edge_count <- g.edge_count + 1;
  Hashtbl.replace g.adj.(u) v w;
  Hashtbl.replace g.adj.(v) u w

let remove_edge g u v =
  check_node g u "Graph.remove_edge";
  check_node g v "Graph.remove_edge";
  if Hashtbl.mem g.adj.(u) v then begin
    g.edge_count <- g.edge_count - 1;
    Hashtbl.remove g.adj.(u) v;
    Hashtbl.remove g.adj.(v) u
  end

let has_edge g u v =
  check_node g u "Graph.has_edge";
  check_node g v "Graph.has_edge";
  Hashtbl.mem g.adj.(u) v

let edge_weight g u v =
  check_node g u "Graph.edge_weight";
  check_node g v "Graph.edge_weight";
  Hashtbl.find_opt g.adj.(u) v

let neighbors g v =
  check_node g v "Graph.neighbors";
  Hashtbl.fold (fun u w acc -> (u, w) :: acc) g.adj.(v) []
  (* neighbor ids are the table keys, so they are unique *)
  |> List.sort (fun (u, _) (w, _) -> Int.compare u w)

let iter_neighbors g v f =
  check_node g v "Graph.iter_neighbors";
  Hashtbl.iter f g.adj.(v)

let edge_count g = g.edge_count

let edges g =
  let acc = ref [] in
  Array.iteri
    (fun u tbl ->
      Hashtbl.iter (fun v w -> if u < v then acc := (u, v, w) :: !acc) tbl)
    g.adj;
  (* endpoint pairs are unique, so the weight never has to break ties *)
  List.sort
    (fun (a, b, _) (c, d, _) ->
      match Int.compare a c with 0 -> Int.compare b d | n -> n)
    !acc

let copy g =
  { adj = Array.map Hashtbl.copy g.adj; edge_count = g.edge_count }

let component_ids g =
  let ids = Array.make (n g) (-1) in
  let next = ref 0 in
  let stack = Stack.create () in
  for v = 0 to n g - 1 do
    if ids.(v) < 0 then begin
      let id = !next in
      incr next;
      Stack.push v stack;
      ids.(v) <- id;
      while not (Stack.is_empty stack) do
        let u = Stack.pop stack in
        Hashtbl.iter
          (fun w _ ->
            if ids.(w) < 0 then begin
              ids.(w) <- id;
              Stack.push w stack
            end)
          g.adj.(u)
      done
    end
  done;
  ids

let components g =
  let ids = component_ids g in
  let count = Array.fold_left (fun m id -> max m (id + 1)) 0 ids in
  let buckets = Array.make count [] in
  for v = n g - 1 downto 0 do
    buckets.(ids.(v)) <- v :: buckets.(ids.(v))
  done;
  Array.to_list buckets

let is_connected g =
  match components g with [] | [ _ ] -> true | _ -> false
