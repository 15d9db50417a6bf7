(* A minimal JSON value type with a reader and a writer (objects,
   arrays, numbers, strings, booleans, null) — just enough for the
   machine-readable surfaces of the toolkit: the bench reports, the
   Chrome trace files the CLI writes, and the `fds serve` wire
   protocol. Avoids any parsing dependency. *)

type t =
  | Num of float
  | Str of string
  | Bool of bool
  | Null
  | Arr of t list
  | Obj of (string * t) list
  | Deferred of (Buffer.t -> unit)
      (* rendered on demand into the writer's buffer: one JSON value *)

exception Parse_error of string

let parse (src : string) : t =
  let pos = ref 0 in
  let len = String.length src in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= len && String.sub src !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  (* the four hex digits of a \u escape *)
  let hex4 () =
    if !pos + 4 > len then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let v = ref 0 in
    for i = 0 to 3 do
      v := (!v lsl 4) lor digit src.[!pos + i]
    done;
    pos := !pos + 4;
    !v
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some (('"' | '\\' | '/') as c) ->
           Buffer.add_char buf c;
           advance ();
           go ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
         | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
         | Some 'u' ->
           advance ();
           let cp = hex4 () in
           let cp =
             if cp >= 0xD800 && cp <= 0xDBFF then begin
               (* a high surrogate must be followed by its low half *)
               if !pos + 1 < len && src.[!pos] = '\\' && src.[!pos + 1] = 'u'
               then begin
                 pos := !pos + 2;
                 let lo = hex4 () in
                 if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
                 0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
               end
               else fail "unpaired surrogate"
             end
             else if cp >= 0xDC00 && cp <= 0xDFFF then fail "unpaired surrogate"
             else cp
           in
           Buffer.add_utf_8_uchar buf (Uchar.of_int cp);
           go ()
         | _ -> fail "unsupported escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub src start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some ('-' | '0' .. '9') -> Num (number ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | _ -> fail "expected a value"
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Arr []
    end
    else begin
      let rec items acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          items (v :: acc)
        | Some ']' ->
          advance ();
          Arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      items []
    end
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws ();
        let key = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ((key, v) :: acc)
        | Some '}' ->
          advance ();
          Obj (List.rev ((key, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      members []
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> len then fail "trailing input";
  v

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let field name = function
  | Obj kvs -> List.assoc_opt name kvs
  | Num _ | Str _ | Bool _ | Null | Arr _ | Deferred _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None

let to_int_opt = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_list_opt = function Arr xs -> Some xs | _ -> None

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escape buf = function
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\r' -> Buffer.add_string buf "\\r"
  | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))

(* Runs of plain bytes are copied whole; only escapes go byte by
   byte. *)
let add_string buf s =
  let len = String.length s in
  let start = ref 0 in
  Buffer.add_char buf '"';
  for i = 0 to len - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring buf s !start (i - !start);
      add_escape buf c;
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (len - !start);
  Buffer.add_char buf '"'

(* Integral floats print without a fractional part so protocol ids and
   counters round-trip byte-identically; everything else uses %.17g
   (shortest exact double rendering is overkill here). *)
let add_num buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

(* Every int below 1e15 in magnitude is an exact double whose %.0f
   rendering is its decimal form. *)
let add_int buf n =
  if Int.abs n < 1_000_000_000_000_000 && n <> min_int then
    Buffer.add_string buf (string_of_int n)
  else add_num buf (float_of_int n)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_num buf f
  | Str s -> add_string buf s
  | Deferred render -> render buf
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ", ";
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string buf ", ";
        add_string buf k;
        Buffer.add_string buf ": ";
        write buf x)
      kvs;
    Buffer.add_char buf '}'

(* One render buffer per domain, reused by every [with_rendered] on it,
   so a whole-state reply is written without regrowing a fresh buffer.
   The slot is empty while a rendering holds the buffer: a nested
   [with_rendered] (from inside a deferred writer or the continuation)
   gets a fresh one. A buffer grown past [keep_max] bytes is dropped
   after use, so one huge document does not pin its memory. *)
let keep_max = 4 * 1024 * 1024
let fresh_buffer () = Buffer.create 4096
let render_slot = Stdlib.Domain.DLS.new_key (fun () -> ref (Some (fresh_buffer ())))

let with_rendered (v : t) (k : Buffer.t -> 'a) : 'a =
  let slot = Stdlib.Domain.DLS.get render_slot in
  match !slot with
  | None ->
    let buf = Buffer.create 256 in
    write buf v;
    k buf
  | Some buf -> (
    slot := None;
    Buffer.clear buf;
    let release () =
      slot := Some (if Buffer.length buf > keep_max then fresh_buffer () else buf)
    in
    match
      write buf v;
      k buf
    with
    | x ->
      release ();
      x
    | exception e ->
      release ();
      raise e)

let to_string (v : t) : string = with_rendered v Buffer.contents
