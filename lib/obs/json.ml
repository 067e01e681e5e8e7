type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape_to b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_finite f then
        (* shortest representation that round-trips *)
        let s = Printf.sprintf "%.17g" f in
        let short = Printf.sprintf "%.12g" f in
        Buffer.add_string b (if float_of_string short = f then short else s)
      else Buffer.add_string b "null"
  | Str s -> escape_to b s
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_to b k;
          Buffer.add_char b ':';
          to_buffer b v)
        fields;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  to_buffer b j;
  Buffer.contents b

let write_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let b = Buffer.create 4096 in
      to_buffer b j;
      Buffer.add_char b '\n';
      Buffer.output_buffer oc b)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | Str _ | List _ -> None

(* ------------------------------ parser ------------------------------ *)

exception Parse_error of int * string

let max_depth = 512

(* RFC 8259's number: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
   — so [+1], [01], [.5] and [1.] are not numbers, whatever OCaml's own
   conversions accept *)
let rfc8259_number tok =
  let n = String.length tok in
  let digit i = i < n && tok.[i] >= '0' && tok.[i] <= '9' in
  let rec digits i = if digit i then digits (i + 1) else i in
  let i = if n > 0 && tok.[0] = '-' then 1 else 0 in
  let i =
    if i < n && tok.[i] = '0' then i + 1 else if digit i then digits i else -1
  in
  let i =
    if i >= 0 && i < n && tok.[i] = '.' then
      if digit (i + 1) then digits (i + 1) else -1
    else i
  in
  let i =
    if i >= 0 && i < n && (tok.[i] = 'e' || tok.[i] = 'E') then
      let j = if i + 1 < n && (tok.[i + 1] = '+' || tok.[i + 1] = '-') then i + 2 else i + 1 in
      if digit j then digits j else -1
    else i
  in
  i = n

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail (Printf.sprintf "expected %c, got %c" c d)
    | None -> fail (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("bad literal, expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    (* [!pos] is on the 'u' of a \u escape: consume it and exactly four
       hex digits (strict — '_' and the other int_of_string liberties are
       rejected), returning the code unit. *)
    let hex4 () =
      advance ();
      if !pos + 4 > n then fail "short \\u escape";
      let code = ref 0 in
      for _ = 1 to 4 do
        let d =
          match s.[!pos] with
          | '0' .. '9' as c -> Char.code c - Char.code '0'
          | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
          | c -> fail (Printf.sprintf "bad \\u escape digit %c" c)
        in
        code := (!code lsl 4) lor d;
        advance ()
      done;
      !code
    in
    let add_utf8 code =
      if code < 0x80 then Buffer.add_char b (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
      end
      else if code < 0x10000 then begin
        Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xf0 lor (code lsr 18)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3f)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
      end
    in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' ->
                   Buffer.add_char b '"';
                   advance ()
               | '\\' ->
                   Buffer.add_char b '\\';
                   advance ()
               | '/' ->
                   Buffer.add_char b '/';
                   advance ()
               | 'n' ->
                   Buffer.add_char b '\n';
                   advance ()
               | 'r' ->
                   Buffer.add_char b '\r';
                   advance ()
               | 't' ->
                   Buffer.add_char b '\t';
                   advance ()
               | 'b' ->
                   Buffer.add_char b '\b';
                   advance ()
               | 'f' ->
                   Buffer.add_char b '\012';
                   advance ()
               | 'u' ->
                   let code = hex4 () in
                   let code =
                     (* a high surrogate followed by \uDC00..\uDFFF is an
                        astral pair; a lone surrogate keeps its WTF-8
                        3-byte form *)
                     if
                       code >= 0xd800 && code <= 0xdbff
                       && !pos + 1 < n
                       && s.[!pos] = '\\'
                       && s.[!pos + 1] = 'u'
                     then begin
                       let save = !pos in
                       advance ();
                       let lo = hex4 () in
                       if lo >= 0xdc00 && lo <= 0xdfff then
                         0x10000 + ((code - 0xd800) lsl 10) + (lo - 0xdc00)
                       else begin
                         pos := save;
                         code
                       end
                     end
                     else code
                   in
                   add_utf8 code
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if not (rfc8259_number tok) then fail ("bad number " ^ tok);
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f when Float.is_finite f -> Float f
        | Some _ | None -> fail ("bad number " ^ tok))
  in
  (* [depth] counts the containers around the value being parsed *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some ('{' | '[') when depth = max_depth ->
        fail (Printf.sprintf "nesting deeper than %d levels" max_depth)
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                field ()
            | Some '}' -> advance ()
            | Some c -> fail (Printf.sprintf "expected , or } in object, got %c" c)
            | None -> fail "unterminated object"
          in
          field ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec item () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                item ()
            | Some ']' -> advance ()
            | Some c -> fail (Printf.sprintf "expected , or ] in array, got %c" c)
            | None -> fail "unterminated array"
          in
          item ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> of_string contents
  | exception Sys_error msg -> Error msg

(* --------------------------- typed readers --------------------------- *)

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Decode_error msg)) fmt

let decode f x = match f x with v -> Ok v | exception Decode_error msg -> Error msg

let str what = function
  | Str s -> s
  | Null | Bool _ | Int _ | Float _ | List _ | Obj _ ->
      fail "%s: expected a string" what

let int what = function
  | Int i -> i
  | Null | Bool _ | Float _ | Str _ | List _ | Obj _ ->
      fail "%s: expected an integer" what

let num what = function
  | Int i -> float_of_int i
  | Float f -> f
  | Null | Bool _ | Str _ | List _ | Obj _ -> fail "%s: expected a number" what

let bool what = function
  | Bool b -> b
  | Null | Int _ | Float _ | Str _ | List _ | Obj _ ->
      fail "%s: expected a boolean" what

let list what item = function
  | List l -> List.map (item what) l
  | Null | Bool _ | Int _ | Float _ | Str _ | Obj _ ->
      fail "%s: expected a list" what

let obj what = function
  | Obj fields -> fields
  | Null | Bool _ | Int _ | Float _ | Str _ | List _ ->
      fail "%s: expected an object" what

let dict what value j =
  let fields =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) (obj what j)
  in
  let rec distinct = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if a = b then fail "%s: duplicate key %s" what a else distinct rest
    | [ _ ] | [] -> ()
  in
  distinct fields;
  List.map (fun (k, v) -> (k, value (what ^ "." ^ k) v)) fields

let field what j key =
  match member key j with
  | Some v -> v
  | None -> fail "%s: missing field %s" what key

let schema want j =
  match member "schema" j with
  | Some (Str s) when s = want -> ()
  | Some (Str s) -> fail "unsupported schema %s (want %s)" s want
  | Some (Null | Bool _ | Int _ | Float _ | List _ | Obj _) | None ->
      fail "missing schema header (want %s)" want
