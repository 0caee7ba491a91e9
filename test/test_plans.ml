(* Golden tests for the --explain-plans dump (Engine.explain_plans): the
   format is deterministic by design — atoms in declaration order, cost
   estimates recomputed from current table statistics, one delta-variant
   order line per atom — so any planner change that shifts an ordering or
   estimate must update these fixtures consciously. *)

module E = Egglog

let check_plans name program expected =
  let eng = E.Engine.create () in
  ignore (E.run_string eng program);
  Alcotest.(check string) name expected (E.Engine.explain_plans eng)

let test_transitive_closure () =
  check_plans "path program plans"
    {|
      (relation edge (i64 i64))
      (relation path (i64 i64))
      (rule ((edge x y)) ((path x y)))
      (rule ((path x y) (edge y z)) ((path x z)))
      (edge 1 2) (edge 2 3) (edge 3 4)
      (run 10)
    |}
    "rule rule_1 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (edge x y) -> ()  rows=3\n\
    \  order: x(est=3) y(est=1)\n\
    \  lowering: compiled single-atom (arity 2, specialized)\n\
    \  delta[0] (0 rows) order: x y  [compiled single-atom (arity 2, specialized)]\n\
     rule rule_2 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (path x y) -> ()  rows=6\n\
    \    [1] (edge y z) -> ()  rows=3\n\
    \  order: y(est=3) z(est=1) x(est=2)\n\
    \  lowering: compiled two-atom (arities 2+2, specialized/specialized)\n\
    \  delta[0] (0 rows) order: y z x  [compiled two-atom (arities 2+2, specialized/specialized)]\n\
    \  delta[1] (0 rows) order: y z x  [compiled two-atom (arities 2+2, specialized/specialized)]\n"

let test_rewrite_rule () =
  (* a rewrite compiles to a single atom whose output is an internal
     variable; the planner binds the (most selective) output column first *)
  check_plans "commutativity rewrite plan"
    {|
      (datatype M (Num i64) (Add M M))
      (rewrite (Add a b) (Add b a))
      (define e (Add (Num 1) (Num 2)))
      (run 2)
    |}
    "rule rule_1 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (Add a b) -> $3  rows=2\n\
    \  order: $3(est=1) a(est=2) b(est=1)\n\
    \  lowering: compiled single-atom (arity 3, specialized)\n\
    \  delta[0] (0 rows) order: a b $3  [compiled single-atom (arity 3, specialized)]\n"

let test_triangle_with_guard () =
  (* three-way cyclic join plus a primitive guard scheduled once its input
     is bound *)
  check_plans "triangle query plan"
    {|
      (relation e (i64 i64))
      (relation tri (i64 i64 i64))
      (rule ((e x y) (e y z) (e z x) (< x 10)) ((tri x y z)))
      (e 1 2) (e 2 3) (e 3 1) (e 4 5) (e 5 4)
      (run)
    |}
    "rule rule_1 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (e x y) -> ()  rows=5\n\
    \    [1] (e y z) -> ()  rows=5\n\
    \    [2] (e z x) -> ()  rows=5\n\
    \  order: z(est=5) x(est=1) y(est=1)\n\
    \    prim@2 (< x 10) -> $6\n\
    \  lowering: compiled generic (3 atoms)\n\
    \  delta[0] (0 rows) order: x z y  [compiled generic (3 atoms)]\n\
    \  delta[1] (0 rows) order: z x y  [compiled generic (3 atoms)]\n\
    \  delta[2] (0 rows) order: z x y  [compiled generic (3 atoms)]\n"

let test_atomless_rule () =
  check_plans "rule with no atoms"
    {|
      (relation seed (i64))
      (rule () ((seed 1)))
    |}
    "rule rule_1 (ruleset default)\n  (no atoms)\n"

let test_no_rules () = check_plans "no rules, empty dump" "(relation r (i64))" ""

(* ---- the planner against its reference ---- *)

let test_seed =
  match Sys.getenv_opt "EGGLOG_TEST_SEED" with
  | None -> Random.self_init (); Random.bits ()
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> failwith (Printf.sprintf "EGGLOG_TEST_SEED must be an integer, got %S" s))

(* Functions of arity 1-3 over i64, so random atoms always type-check. *)
let planner_env =
  lazy
    (let eng = E.Engine.create () in
     ignore
       (E.run_string eng
          "(function f1 (i64) i64) (function f2 (i64 i64) i64) (function f3 (i64 i64 i64) i64)");
     let db = E.Engine.database eng in
     {
       E.Compile.find_func =
         (fun name ->
           Option.map E.Table.func (E.Database.find_func db (E.Symbol.intern name)));
     })

(* A random query of 1-6 atoms over up to six shared variables, with
   literal arguments mixed in and each output either bound to a variable
   or left fresh; then random statistics for every atom. *)
let gen_planning_case =
  let open QCheck2.Gen in
  let arg = frequency [ (4, map (fun v -> `Var v) (int_range 0 5)); (1, map (fun n -> `Lit n) (int_range 0 3)) ] in
  let atom =
    let* arity = int_range 1 3 in
    let* args = list_repeat arity arg in
    let* out = opt (int_range 0 5) in
    return (arity, args, out)
  in
  let* atoms = list_size (int_range 1 6) atom in
  let* card_seeds = list_repeat (List.length atoms) (pair (int_range 0 5000) (list_repeat 4 (int_range 0 5000))) in
  return (atoms, card_seeds)

let query_of_case (atoms, card_seeds) =
  let to_expr = function
    | `Var v -> E.Ast.Var (Printf.sprintf "v%d" v)
    | `Lit n -> E.Ast.Lit (E.Value.VInt n)
  in
  let facts =
    List.map
      (fun (arity, args, out) ->
        let call = E.Ast.Call (Printf.sprintf "f%d" arity, List.map to_expr args) in
        match out with
        | Some v -> E.Ast.Eq (E.Ast.Var (Printf.sprintf "v%d" v), call)
        | None -> E.Ast.Holds call)
      atoms
  in
  let q = E.Compile.compile_query (Lazy.force planner_env) facts in
  let cards =
    Array.of_list
      (List.map2
         (fun (atom : E.Compile.atom) (rows, distincts) ->
           let n = Array.length atom.E.Compile.a_args in
           {
             E.Compile.ac_rows = rows;
             ac_distinct = Array.init n (fun i -> min rows (List.nth distincts i));
           })
         (Array.to_list q.E.Compile.atoms) card_seeds)
  in
  (q, cards)

let print_case case =
  match query_of_case case with
  | q, cards -> Format.asprintf "%a" (fun fmt q -> E.Compile.pp_plan ~cards fmt q) q
  | exception E.Compile.Unsat -> "(unsatisfiable)"

let prop_replan_order_matches_reference =
  QCheck2.Test.make ~name:"replan_order = reference greedy order" ~count:600 ~print:print_case
    gen_planning_case (fun case ->
      match query_of_case case with
      | exception E.Compile.Unsat -> true
      | q, cards ->
        let order = E.Compile.replan_order q ~cards in
        let expected = Ref_planner.replan_order q ~cards in
        if order <> expected then
          QCheck2.Test.fail_reportf "order [%s], reference [%s]"
            (String.concat " " (Array.to_list (Array.map string_of_int order)))
            (String.concat " " (Array.to_list (Array.map string_of_int expected)));
        (E.Compile.replan q ~cards).E.Compile.order = expected)

let () =
  Printf.printf "property-test seed: %d (override with EGGLOG_TEST_SEED=<n>)\n%!" test_seed;
  Alcotest.run "plans"
    [
      ( "explain-plans goldens",
        [
          Alcotest.test_case "transitive closure" `Quick test_transitive_closure;
          Alcotest.test_case "rewrite rule" `Quick test_rewrite_rule;
          Alcotest.test_case "triangle with guard" `Quick test_triangle_with_guard;
          Alcotest.test_case "atomless rule" `Quick test_atomless_rule;
          Alcotest.test_case "no rules" `Quick test_no_rules;
        ] );
      ( "planner",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| test_seed |])
            prop_replan_order_matches_reference;
        ] );
    ]
