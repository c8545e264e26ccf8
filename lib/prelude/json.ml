type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let rounded fmt x = Float (float_of_string (Printf.sprintf fmt x))

(* --- printer ------------------------------------------------------------- *)

(* The shortest of 15, 16, 17 significant digits that reads back
   exactly; a bare integer gets ".0" so it parses as a float again. *)
let float_repr x =
  if not (Float.is_finite x) then invalid_arg "Json: non-finite float";
  let s =
    List.find
      (fun s -> float_of_string s = x)
      [ Printf.sprintf "%.15g" x; Printf.sprintf "%.16g" x; Printf.sprintf "%.17g" x ]
  in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let to_string v =
  let b = Buffer.create 4096 in
  (* The elements of a container at [depth], one per line when
     [multiline]. *)
  let seq ~depth ~multiline opening closing item xs =
    let newline indent =
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (2 * indent) ' ')
    in
    Buffer.add_char b opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        if multiline then newline (depth + 1)
        else if i > 0 then Buffer.add_char b ' ';
        item x)
      xs;
    if multiline && xs <> [] then newline depth;
    Buffer.add_char b closing
  in
  let rec value ~depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s -> escape b s
    | List l ->
      seq ~depth ~multiline:(depth <= 1) '[' ']' (value ~depth:(depth + 1)) l
    | Obj kvs ->
      seq ~depth ~multiline:(depth = 0) '{' '}'
        (fun (k, v) ->
          escape b k;
          Buffer.add_string b ": ";
          value ~depth:(depth + 1) v)
        kvs
  in
  value ~depth:0 v;
  Buffer.contents b

let to_file path v =
  let oc = open_out_bin path in
  output_string oc (to_string v ^ "\n");
  close_out oc

(* --- parser -------------------------------------------------------------- *)

type error = {
  offset : int;
  reason : string;
}

let error_to_string e = Printf.sprintf "byte %d: %s" e.offset e.reason

exception Fail of error

(* Deeper nesting than any bench file is malformed input, and bounding
   it keeps the recursive descent off the stack limit. *)
let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail_at offset reason = raise (Fail { offset; reason }) in
  let fail reason =
    fail_at !pos (if !pos >= n then "unexpected end of input" else reason)
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  (* Consume [c] if it is the next byte. *)
  let eat c =
    peek () = Some c
    &&
    (incr pos;
     true)
  in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected '%c'" c) in
  let rec skip_ws () = if eat ' ' || eat '\t' || eat '\n' || eat '\r' then skip_ws () in
  let literal word v =
    let len = String.length word in
    if !pos + len > n || String.sub s !pos len <> word then fail "invalid literal";
    pos := !pos + len;
    v
  in
  let digits () =
    let start = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    ignore (eat '-');
    if not (eat '0') then digits ();
    let frac = eat '.' in
    if frac then digits ();
    let exp = eat 'e' || eat 'E' in
    if exp then begin
      ignore (eat '+' || eat '-');
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    if frac || exp then begin
      let f = float_of_string lit in
      if not (Float.is_finite f) then fail_at start "number out of range";
      Float f
    end
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> fail_at start "integer out of range"
  in
  (* The code point of the [\u] escape at [at]. Surrogates, which only
     pair up to spell what UTF-8 writes directly, are rejected. *)
  let code_point at =
    let hex = if at + 6 <= n then String.sub s (at + 2) 4 else "" in
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if String.length hex < 4 || not (String.for_all is_hex hex) then
      fail_at at "bad \\u escape";
    let cp = int_of_string ("0x" ^ hex) in
    if not (Uchar.is_valid cp) then fail_at at "surrogate \\u escape";
    pos := at + 6;
    Uchar.of_int cp
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' when !pos + 1 < n ->
        let at = !pos in
        pos := at + 2;
        (match s.[at + 1] with
        | ('"' | '\\' | '/') as c -> Buffer.add_char b c
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> Buffer.add_utf_8_uchar b (code_point at)
        | _ -> fail_at at "bad escape");
        loop ()
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some c ->
        Buffer.add_char b c;
        incr pos;
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  (* The members of an object or the elements of a list, after its
     opening bracket, through [closing]. *)
  let items closing item =
    skip_ws ();
    if eat closing then []
    else
      let rec more acc =
        let acc = item () :: acc in
        if eat ',' then more acc
        else if eat closing then List.rev acc
        else fail (Printf.sprintf "expected ',' or '%c'" closing)
      in
      more []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    let v =
      match peek () with
      | Some '{' ->
        incr pos;
        Obj
          (items '}' (fun () ->
               skip_ws ();
               let k = string_lit () in
               skip_ws ();
               expect ':';
               k, value (depth + 1)))
      | Some '[' ->
        incr pos;
        List (items ']' (fun () -> value (depth + 1)))
      | Some '"' -> String (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> number ()
      | Some _ | None -> fail "expected a value"
    in
    skip_ws ();
    v
  in
  try
    let v = value 0 in
    if !pos < n then fail "trailing bytes after the value";
    Ok v
  with Fail e -> Error e

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Bool _ | String _ | List _ | Obj _ -> None
