(* Adversarial-input fuzzing of the reader and parser (the daemon feeds
   them untrusted bytes). The contract: for ANY input, parsing either
   returns commands or raises exactly one of the structured errors —
   Sexpr.Parse_error, Frontend.Syntax_error, Frontend.Input_too_large —
   with no Stack_overflow, no stray Failure/Invalid_argument/Division_by_
   zero, and no crash. paren_balance must be total. *)

module E = Egglog

let structured f =
  match f () with
  | _ -> true
  | exception Sexpr.Parse_error _ -> true
  | exception E.Frontend.Syntax_error _ -> true
  | exception E.Frontend.Input_too_large _ -> true
  | exception _ -> false

let parses_structurally src = structured (fun () -> E.Frontend.parse_program src)

(* ---- generators ---- *)

let gen_bytes =
  QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 200))

(* inputs biased toward the parser's own surface: parens, quotes, digits,
   escapes, comments — far denser in edge cases than uniform bytes *)
let gen_parserish =
  QCheck2.Gen.(
    let token =
      oneof
        [
          return "(";
          return ")";
          return "\"";
          return "\\";
          return ";";
          return "\n";
          return " ";
          return "-";
          return "/";
          return ".";
          return "123456789123456789123456789";
          return "x";
          return "\000";
          return "(run";
          return ":node-limit";
          return "1/0";
          return "1e999";
        ]
    in
    map (String.concat "") (list_size (int_bound 60) token))

let fuzz_case name gen =
  QCheck2.Test.make ~count:2000 ~name gen (fun src -> parses_structurally src)

let fuzz_random_bytes = fuzz_case "random bytes parse structurally" gen_bytes
let fuzz_parserish = fuzz_case "parser-shaped soup parses structurally" gen_parserish

let fuzz_paren_balance =
  QCheck2.Test.make ~count:2000 ~name:"paren_balance is total" gen_bytes (fun src ->
      match E.Frontend.paren_balance src with
      | E.Frontend.Balanced | E.Frontend.Incomplete | E.Frontend.Unbalanced -> true)

(* ---- directed edge cases the fuzzers found or nearly found ---- *)

let check_structured name src =
  Alcotest.(check bool) name true (parses_structurally src)

let test_deep_nesting () =
  (* beyond the recursion bound: a structured error, not Stack_overflow *)
  let deep n = String.make n '(' ^ "x" ^ String.make n ')' in
  check_structured "100k parens" (deep 100_000);
  (match E.Frontend.parse_program (deep 100_000) with
   | _ -> Alcotest.fail "100k nesting should be refused"
   | exception Sexpr.Parse_error { message; _ } ->
     Alcotest.(check bool) "mentions nesting" true
       (String.length message > 0)
   | exception _ -> Alcotest.fail "wrong error class for deep nesting");
  (* under the bound, a genuinely nested expression still parses *)
  let rec nest n = if n = 0 then "x" else "(f " ^ nest (n - 1) ^ ")" in
  match E.Frontend.parse_program ("(union a " ^ nest 100 ^ ")") with
  | [ _ ] -> ()
  | _ -> Alcotest.fail "shallow nesting should parse"
  | exception e -> Alcotest.failf "shallow nesting raised %s" (Printexc.to_string e)

let test_unterminated_string () =
  check_structured "unterminated string" "(f \"abc";
  check_structured "unterminated escape" "(f \"abc\\";
  check_structured "string with NUL" "(f \"a\000b\")"

let test_nul_bytes () =
  check_structured "bare NUL" "\000";
  check_structured "NUL in list" "(f \000)";
  match E.Frontend.parse_program "(f \000)" with
  | _ -> Alcotest.fail "NUL should be refused"
  | exception Sexpr.Parse_error { message; _ } ->
    Alcotest.(check bool) "diagnosis names the NUL" true
      (String.length message > 0 && message <> "unexpected end of input")
  | exception _ -> Alcotest.fail "wrong error class for NUL"

let test_huge_atoms () =
  let huge = String.make (3 * 1024 * 1024) 'a' in
  (match E.Frontend.parse_program ("(relation " ^ huge ^ " (i64))") with
   | _ -> ()
   | exception e -> Alcotest.failf "multi-megabyte atom raised %s" (Printexc.to_string e));
  (* with a size cap the input is refused up front, with the typed error *)
  match E.Frontend.parse_program ~max_bytes:1024 huge with
  | _ -> Alcotest.fail "max_bytes should refuse huge input"
  | exception E.Frontend.Input_too_large { bytes; limit } ->
    Alcotest.(check int) "reported limit" 1024 limit;
    Alcotest.(check bool) "reported size" true (bytes > 1024)
  | exception e -> Alcotest.failf "wrong error class: %s" (Printexc.to_string e)

let test_numeric_edges () =
  check_structured "out-of-range int literal" "(f 123456789123456789123456789)";
  check_structured "zero denominator" "(f 1/0)";
  check_structured "negative zero denominator" "(f -1/0)";
  check_structured "lonely minus" "(f -)";
  check_structured "float soup" "(f 1e999 .5. 1.2.3)";
  (* well-formed numbers still parse *)
  match E.Frontend.parse_program "(relation r (i64)) (r 42)" with
  | [ _; _ ] -> ()
  | _ -> Alcotest.fail "plain numbers should parse"
  | exception e -> Alcotest.failf "plain numbers raised %s" (Printexc.to_string e)

(* Search is serial: the run option that chose its domain count is gone
   and rejected like any other unknown option. *)
let test_jobs_option_rejected () =
  match E.Frontend.parse_program "(run 5 :jobs 2)" with
  | _ -> Alcotest.fail "(run 5 :jobs 2) should be rejected"
  | exception E.Frontend.Syntax_error msg ->
    let want = "unknown run option :jobs" in
    let n = String.length want in
    let rec has i = i + n <= String.length msg && (String.sub msg i n = want || has (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "message names the option: %s" msg) true (has 0)

let () =
  Alcotest.run "fuzz-frontend"
    [
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ fuzz_random_bytes; fuzz_parserish; fuzz_paren_balance ] );
      ( "directed",
        [
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "unterminated strings" `Quick test_unterminated_string;
          Alcotest.test_case "NUL bytes" `Quick test_nul_bytes;
          Alcotest.test_case "huge atoms" `Quick test_huge_atoms;
          Alcotest.test_case "numeric edges" `Quick test_numeric_edges;
          Alcotest.test_case "unknown run option :jobs" `Quick test_jobs_option_rejected;
        ] );
    ]
