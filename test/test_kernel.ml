(* Tests for the shared kernel: values, sorts, domains, utilities,
   lexing and parse-support. *)

open Fdbs_kernel

let test_value_equal () =
  Alcotest.(check bool) "bool equal" true (Value.equal (Value.Bool true) (Value.Bool true));
  Alcotest.(check bool) "sym differs" false (Value.equal (Value.Sym "a") (Value.Sym "b"));
  Alcotest.(check bool) "int vs sym" false (Value.equal (Value.Int 1) (Value.Sym "1"))

let test_value_conversions () =
  Alcotest.(check (option bool)) "to_bool" (Some true) (Value.to_bool (Value.Bool true));
  Alcotest.(check (option bool)) "to_bool of int" None (Value.to_bool (Value.Int 3));
  Alcotest.(check (option int)) "to_int" (Some 42) (Value.to_int (Value.Int 42));
  Alcotest.(check string) "to_string" "x" (Value.to_string (Value.Sym "x"))

let test_domain_carrier () =
  let d = Domain.of_list [ ("course", [ Value.Sym "a"; Value.Sym "b"; Value.Sym "a" ]) ] in
  Alcotest.(check int) "deduplicated" 2 (Domain.size d "course");
  Alcotest.(check int) "bool carrier implicit" 2 (Domain.size d Sort.bool);
  Alcotest.(check int) "unknown sort empty" 0 (Domain.size d "nope")

let test_domain_union () =
  let d1 = Domain.of_list [ ("s", [ Value.Int 1 ]) ] in
  let d2 = Domain.of_list [ ("s", [ Value.Int 2 ]); ("t", [ Value.Int 3 ]) ] in
  let u = Domain.union d1 d2 in
  Alcotest.(check int) "merged carrier" 2 (Domain.size u "s");
  Alcotest.(check int) "other sort kept" 1 (Domain.size u "t")

let test_cartesian () =
  Alcotest.(check (list (list int))) "empty product" [ [] ] (Util.cartesian []);
  Alcotest.(check int) "2x3 product" 6 (List.length (Util.cartesian [ [ 1; 2 ]; [ 3; 4; 5 ] ]));
  Alcotest.(check (list (list int)))
    "order" [ [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ] ]
    (Util.cartesian [ [ 1; 2 ]; [ 3; 4 ] ])

let test_tuples () =
  Alcotest.(check int) "3^2 tuples" 9 (List.length (Util.tuples [ 1; 2; 3 ] 2));
  Alcotest.(check (list (list int))) "0-tuples" [ [] ] (Util.tuples [ 1 ] 0)

let test_bfs_fixpoint () =
  (* successors mod 10: reach all residues from 0 *)
  let step x = [ (x + 3) mod 10 ] in
  let states, truncated = Util.bfs_fixpoint ~eq:( = ) ~limit:100 ~step [ 0 ] in
  Alcotest.(check int) "cycle of 10" 10 (List.length states);
  Alcotest.(check bool) "not truncated" false truncated;
  let _, truncated = Util.bfs_fixpoint ~eq:( = ) ~limit:5 ~step [ 0 ] in
  Alcotest.(check bool) "truncated at limit" true truncated

let test_lexer_basic () =
  let toks = Lexer.tokenize "foo(Bar, 42) # comment\n= \"str\"" in
  let kinds = List.map (fun (l : Lexer.located) -> l.Lexer.tok) toks in
  Alcotest.(check int) "token count" 9 (List.length kinds);
  (match kinds with
   | [ Lexer.Ident "foo"; Lexer.Sym "("; Lexer.Uident "Bar"; Lexer.Sym ",";
       Lexer.Int 42; Lexer.Sym ")"; Lexer.Sym "="; Lexer.Str "str"; Lexer.Eof ] -> ()
   | _ -> Alcotest.fail "unexpected token stream")

let test_lexer_symbols () =
  let toks = Lexer.tokenize ":= -> <-> /= <= >=" in
  let syms =
    List.filter_map
      (fun (l : Lexer.located) ->
        match l.Lexer.tok with Lexer.Sym s -> Some s | _ -> None)
      toks
  in
  Alcotest.(check (list string)) "greedy multi-char" [ ":="; "->"; "<->"; "/="; "<="; ">=" ] syms

let test_lexer_error () =
  match Lexer.tokenize "a $ b" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Lexer.Lex_error (_, off) -> Alcotest.(check int) "error offset" 2 off

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_parse_error_rendering () =
  match Parse.run (fun st -> Parse.expect_sym st "(") "xyz" with
  | Ok () -> Alcotest.fail "expected parse failure"
  | Error msg ->
    Alcotest.(check bool) "mentions offset" true (contains_substring msg "offset")

(* Every string the writer emits parses back to itself: quotes,
   backslashes, control bytes (written as \r, \n, \t and \u00XX) and
   raw high bytes alike. *)
let prop_json_string_roundtrip =
  QCheck.Test.make ~name:"json string escapes round-trip" ~count:500
    QCheck.(
      make ~print:String.escaped
        Gen.(string_size ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\r'; '\001'; '\031' ] ]) (int_range 0 24)))
    (fun s ->
      match Json.parse (Json.to_string (Json.Str s)) with
      | Json.Str s' -> String.equal s s'
      | _ -> false)

let test_json_escapes () =
  let parses src expected =
    Alcotest.(check string) src expected
      (match Json.parse src with Json.Str s -> s | _ -> Alcotest.fail "not a string")
  in
  parses {|"a\rb"|} "a\rb";
  parses {|"\b\f\/"|} "\b\012/";
  parses {|"a\u0001b"|} "a\001b";
  parses {|"\u00e9"|} "\xc3\xa9";
  parses {|"\ud83d\ude00"|} "\xf0\x9f\x98\x80";
  Alcotest.(check bool) "lone surrogate rejected" true
    (match Json.parse {|"\ud83d"|} with
     | exception Json.Parse_error _ -> true
     | _ -> false);
  (* a deferred node renders in place, as its tree would *)
  let deferred =
    Json.Deferred
      (fun buf ->
        Buffer.add_char buf '[';
        Json.add_int buf 1;
        Buffer.add_string buf ", ";
        Json.add_string buf "x";
        Buffer.add_char buf ']')
  in
  Alcotest.(check string) "deferred renders in place"
    (Json.to_string (Json.Obj [ ("k", Json.Arr [ Json.Num 1.; Json.Str "x" ]) ]))
    (Json.to_string (Json.Obj [ ("k", deferred) ]));
  (* a writer that renders another document while the shared buffer is
     in use gets its own *)
  let nested =
    Json.Deferred (fun buf -> Json.add_string buf (Json.to_string (Json.Arr [ deferred ])))
  in
  Alcotest.(check string) "nested rendering" {|["[[1, \"x\"]]", null]|}
    (Json.to_string (Json.Arr [ nested; Json.Null ]))

let suite =
  [
    Alcotest.test_case "value equality" `Quick test_value_equal;
    Alcotest.test_case "value conversions" `Quick test_value_conversions;
    Alcotest.test_case "domain carrier" `Quick test_domain_carrier;
    Alcotest.test_case "domain union" `Quick test_domain_union;
    Alcotest.test_case "cartesian product" `Quick test_cartesian;
    Alcotest.test_case "tuples" `Quick test_tuples;
    Alcotest.test_case "bfs fixpoint" `Quick test_bfs_fixpoint;
    Alcotest.test_case "lexer basics" `Quick test_lexer_basic;
    Alcotest.test_case "lexer symbols" `Quick test_lexer_symbols;
    Alcotest.test_case "lexer error" `Quick test_lexer_error;
    Alcotest.test_case "parse error rendering" `Quick test_parse_error_rendering;
    Alcotest.test_case "json escapes decode" `Quick test_json_escapes;
    QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
  ]
