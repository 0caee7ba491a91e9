(* Lexer/parser for the egglog concrete syntax. *)

let parse_one = Sexpr.parse_one

let test_atoms () =
  Alcotest.(check bool) "symbol" true (Sexpr.equal (parse_one "foo") (Sexpr.Atom "foo"));
  Alcotest.(check bool) "int" true (Sexpr.equal (parse_one "42") (Sexpr.Int 42));
  Alcotest.(check bool) "neg int" true (Sexpr.equal (parse_one "-42") (Sexpr.Int (-42)));
  Alcotest.(check bool) "plus sign int" true (Sexpr.equal (parse_one "+7") (Sexpr.Int 7));
  Alcotest.(check bool) "minus alone is a symbol" true (Sexpr.equal (parse_one "-") (Sexpr.Atom "-"));
  Alcotest.(check bool) "rational" true
    (Sexpr.equal (parse_one "22/7") (Sexpr.Rational (Rat.of_ints 22 7)));
  Alcotest.(check bool) "decimal" true
    (Sexpr.equal (parse_one "1.5") (Sexpr.Rational (Rat.of_ints 3 2)));
  Alcotest.(check bool) "keyword stays atom" true (Sexpr.equal (parse_one ":merge") (Sexpr.Atom ":merge"));
  Alcotest.(check bool) "operator with digits" true (Sexpr.equal (parse_one "1+") (Sexpr.Atom "1+"))

let test_strings () =
  Alcotest.(check bool) "string" true (Sexpr.equal (parse_one {|"hello"|}) (Sexpr.String "hello"));
  Alcotest.(check bool) "escapes" true
    (Sexpr.equal (parse_one {|"a\nb\"c"|}) (Sexpr.String "a\nb\"c"));
  (match parse_one {|"unterminated|} with
   | exception Sexpr.Parse_error _ -> ()
   | _ -> Alcotest.fail "expected parse error")

let test_lists () =
  let e = parse_one "(rule ((edge x y)) ((path x y)))" in
  match e with
  | Sexpr.List [ Sexpr.Atom "rule"; Sexpr.List [ _ ]; Sexpr.List [ _ ] ] -> ()
  | _ -> Alcotest.fail "unexpected shape"

let test_comments () =
  let es = Sexpr.parse_string ";; comment\n(a) ; trailing\n(b)" in
  Alcotest.(check int) "two exprs" 2 (List.length es)

let test_errors () =
  let expect_error s =
    match Sexpr.parse_string s with
    | exception Sexpr.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error on " ^ s)
  in
  expect_error "(";
  expect_error ")";
  expect_error "(a))"

let test_positions () =
  match Sexpr.parse_string "(a\n  (b" with
  | exception Sexpr.Parse_error { line; _ } -> Alcotest.(check int) "line" 2 line
  | _ -> Alcotest.fail "expected parse error"

let test_print_roundtrip () =
  let progs =
    [
      "(datatype Math (Num i64) (Add Math Math))";
      "(rule ((= (path x y) len)) ((set (path x y) len)))";
      {|(check (= e (Var "x")))|};
      "(set (edge 1 2) 22/7)";
    ]
  in
  List.iter
    (fun p ->
      let e = parse_one p in
      let e' = parse_one (Sexpr.to_string e) in
      Alcotest.(check bool) ("roundtrip " ^ p) true (Sexpr.equal e e'))
    progs

(* The flat printer: single spaces, no layout, strings escaped as [%S]. *)
let test_flat_golden () =
  let check name expected e = Alcotest.(check string) name expected (Sexpr.to_string e) in
  check "empty list" "()" (Sexpr.List []);
  check "nested empty list" "(())" (Sexpr.List [ Sexpr.List [] ]);
  check "negative int" "-42" (Sexpr.Int (-42));
  check "rational" "-22/7" (Sexpr.Rational (Rat.of_ints (-22) 7));
  check "newline" {|"a\nb"|} (Sexpr.String "a\nb");
  check "quote" {|"say \"hi\""|} (Sexpr.String {|say "hi"|});
  check "backslash" {|"a\\b"|} (Sexpr.String {|a\b|});
  check "byte 200" {|"\200"|} (Sexpr.String (String.make 1 (Char.chr 200)));
  check "single spaces" {|(f (g 1 "x y") () 3/2 :k)|}
    (Sexpr.List
       [
         Sexpr.Atom "f";
         Sexpr.List [ Sexpr.Atom "g"; Sexpr.Int 1; Sexpr.String "x y" ];
         Sexpr.List [];
         Sexpr.Rational (Rat.of_ints 3 2);
         Sexpr.Atom ":k";
       ])

(* Random sexpr generator for print/parse roundtripping: lists wide enough
   to run far past any layout margin, and strings of arbitrary bytes
   (newlines, quotes, backslashes, bytes above 127). *)
let gen_sexpr =
  QCheck2.Gen.(
    let bytes = string_size (int_range 0 8) ~gen:(map Char.chr (int_range 0 255)) in
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 0 then
              oneof
                [
                  map (fun i -> Sexpr.Int i) int;
                  map (fun s -> Sexpr.Atom ("s" ^ string_of_int s)) (int_range 0 50);
                  map (fun s -> Sexpr.String s) bytes;
                  map2
                    (fun n d ->
                      (* an integer-valued rational prints as an int token *)
                      let r = Rat.of_ints n d in
                      if Rat.is_integer r then Sexpr.Int n else Sexpr.Rational r)
                    (int_range (-50) 50) (int_range 1 50);
                ]
            else map (fun xs -> Sexpr.List xs) (list_size (int_range 0 12) (self (n / 2))))
          (min n 6)))

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"print/parse roundtrip" ~count:300 ~print:Sexpr.to_string gen_sexpr
    (fun e ->
      let printed = Sexpr.to_string e in
      (not (String.contains printed '\n')) && Sexpr.equal e (Sexpr.parse_one printed))

let () =
  Alcotest.run "sexpr"
    [
      ( "unit",
        [
          Alcotest.test_case "atoms" `Quick test_atoms;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "lists" `Quick test_lists;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "positions" `Quick test_positions;
          Alcotest.test_case "roundtrip" `Quick test_print_roundtrip;
          Alcotest.test_case "flat printer" `Quick test_flat_golden;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_print_parse_roundtrip ]);
    ]
