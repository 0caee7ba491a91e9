(* Golden tests for the --explain-plans dump (Engine.explain_plans): each
   rule's one plan — atoms in declaration order, the compile-time variable
   order, the primitive schedule and the lowering — which the full query
   and every delta variant run. The dump reads no table, so any planner
   change that shifts an ordering must update these fixtures
   consciously. *)

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
    \    [0] (edge x y) -> ()\n\
    \  order: x y\n\
    \  lowering: compiled single-atom (arity 2, specialized)\n\
     rule rule_2 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (path x y) -> ()\n\
    \    [1] (edge y z) -> ()\n\
    \  order: y z x\n\
    \  lowering: compiled two-atom (arities 2+2, specialized/specialized)\n"

let test_rewrite_rule () =
  (* a rewrite compiles to a single atom whose output is an internal
     variable; every variable occurs once, so the order is by index *)
  check_plans "commutativity rewrite plan"
    {|
      (datatype M (Num i64) (Add M M))
      (rewrite (Add a b) (Add b a))
      (define e (Add (Num 1) (Num 2)))
      (run 2)
    |}
    "rule rule_1 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (Add a b) -> $3\n\
    \  order: a b $3\n\
    \  lowering: compiled single-atom (arity 3, specialized)\n"

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
    \    [0] (e x y) -> ()\n\
    \    [1] (e y z) -> ()\n\
    \    [2] (e z x) -> ()\n\
    \  order: z x y\n\
    \    prim@2 (< x 10) -> $6\n\
    \  lowering: compiled generic (3 atoms)\n"

let test_lookup_rules () =
  (* an atom whose key is all constants, or bound by the other atom, is
     read by lookup; the lowering line names which *)
  check_plans "lookup plans"
    {|
      (sort Alloc)
      (function vpt (i64) Alloc)
      (function pts (Alloc) Alloc)
      (relation copyI (i64 i64))
      (relation seen (i64))
      (rule ((copyI d s) (= a (vpt s))) ((union (vpt d) a)))
      (rule ((= a (vpt 0)) (= b (pts a))) ((seen 1)))
      (rule ((seen 1)) ((seen 2)))
    |}
    "rule rule_1 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (copyI d s) -> ()\n\
    \    [1] (vpt s) -> $4\n\
    \  order: s $4 d\n\
    \  lowering: compiled two-atom (arities 2+2, specialized/specialized, \
     key lookup: atom 1 when probed)\n\
     rule rule_2 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (vpt 0) -> $1\n\
    \    [1] (pts $1) -> $3\n\
    \  order: $1 $3\n\
    \  lowering: compiled two-atom (arities 1+2, specialized/specialized, \
     key lookup: atom 0, atom 1 when probed)\n\
     rule rule_3 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (seen 1) -> ()\n\
    \  order: (none)\n\
    \  lowering: compiled single-atom (arity 0, specialized, key lookup)\n"

let test_atomless_rule () =
  check_plans "rule with no atoms"
    {|
      (relation seed (i64))
      (rule () ((seed 1)))
    |}
    "rule rule_1 (ruleset default)\n  (no atoms)\n"

let test_no_rules () = check_plans "no rules, empty dump" "(relation r (i64))" ""

(* ---- the compile-time order against its reference ---- *)

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
   or left fresh. *)
let gen_query =
  let open QCheck2.Gen in
  let arg = frequency [ (4, map (fun v -> `Var v) (int_range 0 5)); (1, map (fun n -> `Lit n) (int_range 0 3)) ] in
  let atom =
    let* arity = int_range 1 3 in
    let* args = list_repeat arity arg in
    let* out = opt (int_range 0 5) in
    return (arity, args, out)
  in
  list_size (int_range 1 6) atom

(* The case's atoms, then its primitive facts (see [gen_prim_query]). *)
let query_of_case ?(prims = []) atoms =
  let to_expr = function
    | `Var v -> E.Ast.Var (Printf.sprintf "v%d" v)
    | `Lit n -> E.Ast.Lit (E.Value.VInt n)
  in
  let atom_facts =
    List.map
      (fun (arity, args, out) ->
        let call = E.Ast.Call (Printf.sprintf "f%d" arity, List.map to_expr args) in
        match out with
        | Some v -> E.Ast.Eq (E.Ast.Var (Printf.sprintf "v%d" v), call)
        | None -> E.Ast.Holds call)
      atoms
  in
  let prim_facts =
    List.map
      (fun (op, a, b, out) ->
        let call = E.Ast.Call (op, [ to_expr a; to_expr b ]) in
        if op = "<" then E.Ast.Holds call else E.Ast.Eq (to_expr out, call))
      prims
  in
  E.Compile.compile_query (Lazy.force planner_env) (atom_facts @ prim_facts)

let print_case ?prims atoms =
  match query_of_case ?prims atoms with
  | q -> Format.asprintf "%a" (fun fmt q -> E.Compile.pp_plan fmt q) q
  | exception E.Compile.Unsat -> "(unsatisfiable)"
  | exception E.Compile.Error msg -> "(rejected: " ^ msg ^ ")"

(* The reference order, straight from the definition: every variable that
   some atom covers, those covered by more atoms first, ties by variable
   index. A variable repeated within one atom counts once for it. *)
let reference_order (q : E.Compile.cquery) =
  let covers v (atom : E.Compile.atom) =
    Array.exists (function E.Compile.A_var w -> w = v | E.Compile.A_const _ -> false) atom.a_args
  in
  let count v = Array.fold_left (fun n a -> if covers v a then n + 1 else n) 0 q.atoms in
  List.init q.n_vars (fun v -> (count v, v))
  |> List.filter (fun (n, _) -> n > 0)
  |> List.sort (fun (n1, v1) (n2, v2) -> if n1 <> n2 then Int.compare n2 n1 else Int.compare v1 v2)
  |> List.map snd |> Array.of_list

let prop_order_matches_reference =
  QCheck2.Test.make ~name:"compile-time order = reference most-shared order" ~count:600
    ~print:(fun atoms -> print_case atoms) gen_query (fun case ->
      match query_of_case case with
      | exception E.Compile.Unsat -> true
      | q ->
        let expected = reference_order q in
        if q.order <> expected then
          QCheck2.Test.fail_reportf "order [%s], reference [%s]"
            (String.concat " " (Array.to_list (Array.map string_of_int q.order)))
            (String.concat " " (Array.to_list (Array.map string_of_int expected)));
        (* every join variable sits at its position in the order; no other
           variable has a depth *)
        Array.for_all Fun.id
          (Array.mapi
             (fun v depth ->
               match Array.find_index (( = ) v) q.order with
               | Some d -> depth = d + 1
               | None -> depth = 0)
             q.var_depth))

(* A random query with primitives: the atoms of [gen_query] plus 0-4
   primitive facts over v0..v7. v6 and v7 occur in no atom, so a
   primitive writing one computes it; writing v0..v5 checks a join
   variable, unless no atom covers it; a literal output checks a
   constant; [<] is a guard whose output is an internal variable. *)
let gen_prim_query =
  let open QCheck2.Gen in
  let var lo hi = map (fun v -> `Var v) (int_range lo hi) in
  let lit = map (fun n -> `Lit n) (int_range 0 3) in
  let prim =
    let* op = oneofl [ "+"; "max"; "<" ] in
    let input = frequency [ (6, var 0 5); (1, var 6 7); (1, lit) ] in
    let* a = input in
    let* b = input in
    let* out = frequency [ (2, var 0 5); (2, var 6 7); (1, lit) ] in
    return (op, a, b, out)
  in
  pair gen_query (list_size (int_range 0 4) prim)

(* Walk the schedule the way every lowering runs it: the first [d]
   variables of the order are bound before depth [d]'s primitives, and
   each primitive binds or checks its output as [p_binds] says. The walk
   checks that no primitive reads an unbound variable, that [p_binds]
   holds exactly on the first write of a primitive-computed variable, and
   that the last depth leaves every variable bound — the plan-time
   guarantees that let the joins bind into one array with no run-time
   checks. *)
let check_prim_flags (q : E.Compile.cquery) =
  let bound = Array.make q.n_vars false in
  let name v = q.var_names.(v) in
  Array.iteri
    (fun d prims ->
      if d > 0 then bound.(q.order.(d - 1)) <- true;
      List.iter
        (fun (p : E.Compile.prim_app) ->
          let pname = p.p_prim.E.Primitives.pname in
          Array.iter
            (function
              | E.Compile.A_var v when not bound.(v) ->
                QCheck2.Test.fail_reportf "prim@%d %s reads unbound %s" d pname (name v)
              | E.Compile.A_var _ | E.Compile.A_const _ -> ())
            p.p_args;
          match p.p_out with
          | E.Compile.A_var v ->
            if (not bound.(v)) && q.var_depth.(v) <> 0 then
              QCheck2.Test.fail_reportf "prim@%d %s writes join variable %s before its depth" d
                pname (name v);
            let first_write = not bound.(v) in
            if p.p_binds <> first_write then
              QCheck2.Test.fail_reportf "prim@%d %s -> %s: p_binds = %b on a %s" d pname (name v)
                p.p_binds
                (if first_write then "first write" else "bound variable");
            bound.(v) <- true
          | E.Compile.A_const _ ->
            if p.p_binds then
              QCheck2.Test.fail_reportf "prim@%d %s binds a constant output" d pname)
        prims)
    q.schedule;
  Array.iteri
    (fun v b ->
      if not b then QCheck2.Test.fail_reportf "%s unbound after the last depth" (name v))
    bound;
  true

let prop_prim_flags =
  QCheck2.Test.make ~name:"scheduled primitives read bound variables; p_binds = first write"
    ~count:1000
    ~print:(fun (atoms, prims) -> print_case ~prims atoms)
    gen_prim_query
    (fun (atoms, prims) ->
      match query_of_case ~prims atoms with
      | exception E.Compile.Unsat -> true
      | exception E.Compile.Error _ -> true
      | q ->
        check_prim_flags q
        (* reordering re-schedules, and must fix the flags again *)
        && check_prim_flags
             (E.Compile.reorder q ~order:(Array.of_list (List.rev (Array.to_list q.order)))))

let () =
  Printf.printf "property-test seed: %d (override with EGGLOG_TEST_SEED=<n>)\n%!" test_seed;
  Alcotest.run "plans"
    [
      ( "explain-plans goldens",
        [
          Alcotest.test_case "transitive closure" `Quick test_transitive_closure;
          Alcotest.test_case "rewrite rule" `Quick test_rewrite_rule;
          Alcotest.test_case "triangle with guard" `Quick test_triangle_with_guard;
          Alcotest.test_case "lookup rules" `Quick test_lookup_rules;
          Alcotest.test_case "atomless rule" `Quick test_atomless_rule;
          Alcotest.test_case "no rules" `Quick test_no_rules;
        ] );
      ( "planner",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| test_seed |])
            prop_order_matches_reference;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| test_seed |])
            prop_prim_flags;
        ] );
    ]
