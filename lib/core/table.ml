let render ~header ~rows =
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width = Array.make cols 0 in
  List.iter
    (List.iteri (fun i cell -> width.(i) <- max width.(i) (String.length cell)))
    all;
  let buf = Buffer.create 256 in
  let emit row =
    List.iteri
      (fun i cell ->
        Buffer.add_string buf cell;
        if i < cols - 1 then
          Buffer.add_string buf (String.make (width.(i) - String.length cell + 2) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit header;
  let total = Array.fold_left ( + ) 0 width + (2 * (cols - 1)) in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit rows;
  Buffer.contents buf

(* UTF-8 code points: every byte but the 10xxxxxx continuations *)
let utf8_length s =
  String.fold_left
    (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1)
    0 s

let print ~title ~header ~rows =
  print_endline title;
  print_endline (String.make (utf8_length title) '=');
  print_string (render ~header ~rows);
  print_newline ()

let ff x =
  if Float.is_nan x then "-"
  else if Float.equal x infinity then "inf"
  else if Float.equal x neg_infinity then "-inf"
  else Printf.sprintf "%.2f" x

let fi = string_of_int
let fb = string_of_bool
let fpct x = if Float.is_nan x then "-" else Printf.sprintf "%.1f%%" (100.0 *. x)
