(* The one JSON reader and writer outside the end-to-end benchmark: bench
   rows, the daemon's Stats reply, the string escaping of the Chrome
   trace export, and the tests that read them back. Small and complete,
   so no field is ever found by substring search. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\x00' .. '\x1f' -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integral values print as integers; everything else with all 17
   significant digits, so a measured time is never rounded away. *)
let number x =
  if not (Float.is_finite x) then invalid_arg "Json.number: not finite"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> number x
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v) kvs)
    ^ "}"

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip ()
      | _ -> ()
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  (* After [skip], consume [c] if it is next. *)
  let accept c =
    skip ();
    if !pos < n && s.[!pos] = c then begin
      incr pos;
      true
    end
    else false
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "bad literal"
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           let code =
             if !pos + 4 > n then None
             else int_of_string_opt ("0x" ^ String.sub s !pos 4)
           in
           (match code with
            | Some code when Uchar.is_valid code ->
              pos := !pos + 4;
              Buffer.add_utf_8_uchar b (Uchar.of_int code)
            | _ -> fail "bad \\u escape")
         | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  (* The comma-separated items of an array or object, up to [close]. *)
  let items close item =
    if accept close then []
    else
      let rec go acc =
        let acc = item () :: acc in
        if accept ',' then go acc
        else begin
          expect close;
          List.rev acc
        end
      in
      go []
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             expect '"';
             let k = string_body () in
             expect ':';
             (k, value ())))
    | '[' ->
      incr pos;
      Arr (items ']' value)
    | '"' ->
      incr pos;
      Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some x when !pos > start -> Num x
       | _ -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing characters";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let num = function Some (Num x) -> Some x | _ -> None
let str = function Some (Str s) -> Some s | _ -> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))
