(* The benchmark's one JSON value type, its printer and its reader.

   The printer is the only way a number reaches a result file, and it
   refuses NaN and infinities by field path instead of by scanning the
   rendered text, so a string such as "inference" or "nan-test" prints
   normally. [write] renders the whole document before opening a file
   and renames a temporary file into place, so a failed render leaves
   no file and a crash mid-write leaves no partial one. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Non_finite of string

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* %.17g round-trips every finite double, so a value is printed with
   all its digits; integral values print without a fraction *)
let number path x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else raise (Non_finite (if path = "" then "(root)" else path))

let render ~indent v =
  let buf = Buffer.create 4096 in
  let nl depth =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' ')
    end
  in
  let rec go path depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x -> Buffer.add_string buf (number path x)
    | Str s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | Arr [] -> Buffer.add_string buf "[]"
    | Obj [] -> Buffer.add_string buf "{}"
    | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            nl (depth + 1);
            go (Printf.sprintf "%s[%d]" path i) (depth + 1) x)
          items;
        nl depth;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            nl (depth + 1);
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf (if indent then "\": " else "\":");
            go (if path = "" then k else path ^ "." ^ k) (depth + 1) x)
          fields;
        nl depth;
        Buffer.add_char buf '}'
  in
  go "" 0 v;
  Buffer.contents buf

let to_string ?(indent = false) v =
  match render ~indent v with
  | s -> Ok s
  | exception Non_finite field -> Error ("non-finite number at " ^ field)

let write ~path v =
  match to_string ~indent:true v with
  | Error e -> Error e
  | Ok s -> (
      let tmp = path ^ ".tmp" in
      match
        Out_channel.with_open_bin tmp (fun oc ->
            Out_channel.output_string oc s;
            Out_channel.output_char oc '\n');
        Sys.rename tmp path
      with
      | () -> Ok ()
      | exception Sys_error e ->
          if Sys.file_exists tmp then Sys.remove tmp;
          Error e)

(* --- reading -------------------------------------------------------- *)

exception Syntax of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Syntax (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          ws ()
      | _ -> ()
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "unknown literal"
  in
  let utf8 buf cp =
    let add i = Buffer.add_char buf (Char.chr i) in
    if cp < 0x80 then add cp
    else if cp < 0x800 then begin
      add (0xC0 lor (cp lsr 6));
      add (0x80 lor (cp land 0x3F))
    end
    else begin
      add (0xE0 lor (cp lsr 12));
      add (0x80 lor ((cp lsr 6) land 0x3F));
      add (0x80 lor (cp land 0x3F))
    end
  in
  let str () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some cp -> utf8 buf cp
              | None -> fail "bad \\u escape");
              pos := !pos + 4
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x when Float.is_finite x -> Num x
    | _ -> fail "bad number"
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (
          incr pos;
          Obj [])
        else
          let rec fields acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (
          incr pos;
          Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> num ()
    | _ -> fail "unexpected character"
  in
  match
    let v = value () in
    ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Syntax (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> Result.map_error (fun e -> path ^ ": " ^ e) (parse s)

(* --- access ---------------------------------------------------------- *)

let member k = function Obj fs -> List.assoc_opt k fs | _ -> None
let to_num = function Some (Num x) -> Some x | _ -> None
let to_str = function Some (Str s) -> Some s | _ -> None
let to_list = function Some (Arr l) -> l | _ -> []
