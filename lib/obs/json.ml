type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse of string

let max_depth = 64

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
    do
      incr pos
    done
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos else fail "expected '%c' at offset %d" c !pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "unexpected token at offset %d" !pos
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape at offset %d" !pos;
    let code = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "malformed \\u escape at offset %d" !pos
      in
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 4;
    !code
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "dangling escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          (* surrogates are out of range: no writer emits them *)
          let code = hex4 () in
          if not (Uchar.is_valid code) then fail "\\u%04x out of range" code;
          Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | _ -> fail "unknown escape at offset %d" (!pos - 2));
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number_lit () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail "expected a value at offset %d" start;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number at offset %d" start
  in
  (* [items close one] parses [one] separated by commas up to [close] *)
  let items close one =
    skip_ws ();
    if peek () = Some close then begin
      incr pos;
      []
    end
    else begin
      let rec go acc =
        let acc = one () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          go acc
        | Some c when c = close ->
          incr pos;
          List.rev acc
        | _ -> fail "expected ',' or '%c' at offset %d" close !pos
      in
      go []
    end
  in
  let rec value depth =
    if depth > max_depth then fail "nesting deeper than %d at offset %d" max_depth !pos;
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (string_lit ())
    | Some '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             let k = string_lit () in
             expect ':';
             (k, value (depth + 1))))
    | Some '[' ->
      incr pos;
      Arr (items ']' (fun () -> value (depth + 1)))
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number_lit ())
  in
  let v = value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage at offset %d" !pos;
  v

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | '\x00' .. '\x1f' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string t =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Num f -> Buffer.add_string b (num_to_string f)
    | Str s -> Buffer.add_string b ("\"" ^ escape s ^ "\"")
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        items;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b ("\"" ^ escape k ^ "\":");
          go v)
        fields;
      Buffer.add_char b '}'
  in
  go t;
  Buffer.contents b

let member name = function Obj kvs -> List.assoc_opt name kvs | _ -> None

(* -- decoders ------------------------------------------------------------- *)

type 'a decoder = t -> ('a, string) result

let decode d s = match parse s with exception Parse msg -> Error msg | v -> d v
let str = function Str s -> Ok s | _ -> Error "expected a string"
let num = function Num f -> Ok f | _ -> Error "expected a number"

let int = function
  | Num f when float_of_int (int_of_float f) = f -> Ok (int_of_float f)
  | _ -> Error "expected an integer"

let bool = function Bool b -> Ok b | _ -> Error "expected a bool"

let list d = function
  | Arr items ->
    List.fold_left
      (fun acc v -> Result.bind acc (fun xs -> Result.map (fun x -> x :: xs) (d v)))
      (Ok []) items
    |> Result.map List.rev
  | _ -> Error "expected a list"

let field ?default name d = function
  | Obj kvs -> (
    match (List.assoc_opt name kvs, default) with
    | Some v, _ -> (
      match d v with
      | Error msg -> Error (Printf.sprintf "field %S: %s" name msg)
      | ok -> ok)
    | None, Some x -> Ok x
    | None, None -> Error (Printf.sprintf "missing field %S" name))
  | _ -> Error "expected an object"
