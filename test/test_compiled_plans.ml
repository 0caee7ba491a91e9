(* Unit and fuzz coverage for compiled join plans (Join.compile_plan /
   Plan_compile): the specialization boundaries (per-arity binders vs the
   generic fallback, the query shapes that take the trie join, atomless
   queries on the generic join), hoisted constant/same-column checks, pre-resolved
   primitive guards, a plan-shape fuzzer pinning every lowering to the
   naive reference evaluator ([Ref_join]) on random databases, and a
   regression that a real workload (the fig7 math suite) plans and
   searches through compiled plans. *)

module E = Egglog

let test_seed =
  match Sys.getenv_opt "EGGLOG_TEST_SEED" with
  | None -> 0x5eed2026
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> failwith (Printf.sprintf "EGGLOG_TEST_SEED must be an integer, got %S" s))

let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| test_seed |]) t

let compile_env db =
  {
    E.Compile.find_func =
      (fun name -> Option.map E.Table.func (E.Database.find_func db (E.Symbol.intern name)));
  }

let compiled_multiset db ?cache q ~ranges =
  let cp = E.Join.compile_plan q in
  let acc = ref [] in
  E.Join.search_compiled db ?cache cp ~ranges (fun binding ->
      acc := String.concat "," (Array.to_list (Array.map E.Value.to_string binding)) :: !acc);
  List.sort compare !acc

(* Fresh engine with relations r0..r(n-1) of the given arities. *)
let setup arities =
  let eng = E.Engine.create () in
  let decls =
    String.concat "\n"
      (List.mapi
         (fun i a ->
           Printf.sprintf "(relation r%d (%s))" i
             (String.concat " " (List.init a (fun _ -> "i64"))))
         arities)
  in
  if decls <> "" then ignore (E.run_string eng decls);
  eng

let insert eng rel vals =
  E.Engine.set_fact eng rel (List.map (fun v -> E.Value.VInt v) vals) E.Value.VUnit

let v name = E.Ast.Var name
let lit n = E.Ast.Lit (E.Value.VInt n)
let holds rel args = E.Ast.Holds (E.Ast.Call (rel, args))
let query db facts = E.Compile.compile_query (compile_env db) facts
let all n = Array.make n E.Join.all_rows

(* ------------------------------------------------------------------ *)
(* Specialization boundaries                                           *)
(* ------------------------------------------------------------------ *)

(* Single-atom plans binding 1-4 variables take the hand-specialized
   binder; 5+ falls back to the generic readers loop. Both report it, and
   describe_lowering (what --explain-plans prints) agrees with the built
   plan's description. *)
let test_binder_arity_boundary () =
  List.iter
    (fun k ->
      let eng = setup [ k ] in
      let db = E.Engine.database eng in
      let q = query db [ holds "r0" (List.init k (fun i -> v (Printf.sprintf "x%d" i))) ] in
      let cp = E.Join.compile_plan q in
      let expect =
        Printf.sprintf "compiled single-atom (arity %d, %s)" k
          (if k <= 4 then "specialized" else "generic binder")
      in
      Alcotest.(check string) (Printf.sprintf "arity %d descr" k) expect (E.Join.compiled_descr cp);
      Alcotest.(check string)
        (Printf.sprintf "arity %d describe_lowering" k)
        expect (E.Join.describe_lowering q))
    [ 1; 2; 3; 4; 5 ]

(* The boundary decides by bound variables, not schema arity: an arity-5
   atom whose columns repeat one variable binds a single variable and
   stays specialized. *)
let test_binder_counts_vars_not_columns () =
  let eng = setup [ 5 ] in
  let db = E.Engine.database eng in
  let q = query db [ holds "r0" [ v "x"; v "x"; v "x"; v "x"; v "x" ] ] in
  Alcotest.(check string)
    "repeated-variable atom stays specialized" "compiled single-atom (arity 1, specialized)"
    (E.Join.describe_lowering q)

let test_two_atom_and_generic_lowering () =
  let eng = setup [ 2; 5; 1 ] in
  let db = E.Engine.database eng in
  let two =
    query db
      [
        holds "r0" [ v "a"; v "b" ];
        holds "r1" [ v "a"; v "b"; v "c"; v "d"; v "e" ];
      ]
  in
  Alcotest.(check string)
    "mixed two-atom lowering" "compiled two-atom (arities 2+5, specialized/generic binder)"
    (E.Join.describe_lowering two);
  let three =
    query db [ holds "r0" [ v "a"; v "b" ]; holds "r2" [ v "a" ]; holds "r2" [ v "b" ] ]
  in
  Alcotest.(check string)
    "three atoms go generic" "compiled generic (3 atoms)" (E.Join.describe_lowering three);
  (* an atom that binds no variable has no row to drive a scan *)
  let ground = query db [ holds "r0" [ lit 1; lit 2 ] ] in
  Alcotest.(check string)
    "a one-atom query binding no variable goes generic" "compiled generic (1 atoms)"
    (E.Join.describe_lowering ground)

(* Atomless (pure primitive) queries lower to the generic join, whose
   only step runs the primitives and emits: a binding primitive yields its
   result, a passing guard one empty match, a failing guard none — as the
   reference evaluator says, and as the engine's [check] reports. *)
let test_atomless_lowering () =
  let eng = setup [] in
  let db = E.Engine.database eng in
  let sum = E.Ast.Call ("+", [ lit 1; lit 1 ]) in
  List.iter
    (fun (name, facts, expected) ->
      let q = query db facts in
      Alcotest.(check string)
        (name ^ ": lowering") "compiled generic (0 atoms)"
        (E.Join.compiled_descr (E.Join.compile_plan q));
      Alcotest.(check string)
        (name ^ ": describe_lowering") "compiled generic (0 atoms)" (E.Join.describe_lowering q);
      Alcotest.(check (list string))
        (name ^ ": reference") expected
        (Ref_join.matches_multiset db q ~ranges:(all 0));
      Alcotest.(check (list string))
        (name ^ ": compiled") expected
        (compiled_multiset db q ~ranges:(all 0)))
    [
      ("binding primitive", [ E.Ast.Eq (sum, v "s") ], [ "2" ]);
      ("passing guard", [ E.Ast.Eq (lit 2, sum) ], [ "" ]);
      ("failing guard", [ E.Ast.Eq (lit 3, sum) ], []);
    ];
  Alcotest.(check bool)
    "check_facts true" true
    (E.Engine.check_facts eng [ E.Ast.Eq (lit 2, sum) ]);
  Alcotest.(check bool)
    "check_facts false" false
    (E.Engine.check_facts eng [ E.Ast.Eq (lit 3, sum) ]);
  Alcotest.(check (list string))
    "(check (= 2 (+ 1 1)))" [ "check passed" ]
    (E.run_string eng "(check (= 2 (+ 1 1)))");
  match E.run_string eng "(check (= 3 (+ 1 1)))" with
  | exception E.Egglog_error _ -> ()
  | _ -> Alcotest.fail "(check (= 3 (+ 1 1))) passed"

(* ------------------------------------------------------------------ *)
(* Hoisted checks and pre-resolved primitives                          *)
(* ------------------------------------------------------------------ *)

let test_constant_check_hoisting () =
  let eng = setup [ 2 ] in
  let db = E.Engine.database eng in
  insert eng "r0" [ 1; 2 ];
  insert eng "r0" [ 1; 3 ];
  insert eng "r0" [ 2; 2 ];
  let const_q = query db [ holds "r0" [ lit 1; v "x" ] ] in
  Alcotest.(check (list string)) "constant column filters" [ "2"; "3" ]
    (compiled_multiset db const_q ~ranges:(all 1));
  let same_q = query db [ holds "r0" [ v "x"; v "x" ] ] in
  Alcotest.(check (list string)) "same-column check filters" [ "2" ]
    (compiled_multiset db same_q ~ranges:(all 1));
  (* a fully-constant atom binds nothing and emits one empty match per row *)
  let ground_hit = query db [ holds "r0" [ lit 2; lit 2 ] ] in
  Alcotest.(check (list string)) "ground atom present" [ "" ]
    (compiled_multiset db ground_hit ~ranges:(all 1));
  let ground_miss = query db [ holds "r0" [ lit 2; lit 3 ] ] in
  Alcotest.(check (list string)) "ground atom absent" []
    (compiled_multiset db ground_miss ~ranges:(all 1))

let test_prim_guard_resolution () =
  let eng = setup [ 1 ] in
  let db = E.Engine.database eng in
  List.iter (fun i -> insert eng "r0" [ i ]) [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  (* the guard's output is an internal variable (bound to unit) — it rides
     along in the binding array *)
  let guard = query db [ holds "r0" [ v "x" ]; holds "<" [ v "x"; lit 4 ] ] in
  Alcotest.(check (list string)) "guard prunes" [ "1,()"; "2,()"; "3,()" ]
    (compiled_multiset db guard ~ranges:(all 1));
  Alcotest.(check (list string)) "guard agrees with the reference"
    (Ref_join.matches_multiset db guard ~ranges:(all 1))
    (compiled_multiset db guard ~ranges:(all 1));
  let binder =
    query db
      [ holds "r0" [ v "x" ]; E.Ast.Eq (E.Ast.Call ("+", [ v "x"; lit 10 ]), v "s") ]
  in
  Alcotest.(check (list string)) "binder computes"
    [ "1,11"; "2,12"; "3,13"; "4,14"; "5,15"; "6,16"; "7,17"; "8,18" ]
    (compiled_multiset db binder ~ranges:(all 1));
  let never =
    query db [ holds "r0" [ v "x" ]; E.Ast.Eq (E.Ast.Call ("+", [ v "x"; lit 1 ]), v "x") ]
  in
  Alcotest.(check (list string)) "never-true guard yields nothing" []
    (compiled_multiset db never ~ranges:(all 1))

(* ------------------------------------------------------------------ *)
(* Plan-shape fuzzer: compiled == reference on random databases        *)
(* ------------------------------------------------------------------ *)

type shape = {
  sp_arities : int list;  (* relation arities: r0, r1, ... *)
  sp_rows : (int * int list) list;  (* (table pick, raw column values) *)
  sp_atoms : (int * [ `V of int | `C of int ] list) list;
  sp_windows : int list;  (* per-atom stamp-window picks *)
}

let gen_shape =
  QCheck2.Gen.(
    let arg = oneof [ map (fun i -> `V i) (int_bound 5); map (fun c -> `C c) (int_bound 3) ] in
    map
      (fun ((arities, rows), (atoms, windows)) ->
        { sp_arities = arities; sp_rows = rows; sp_atoms = atoms; sp_windows = windows })
      (pair
         (pair
            (list_size (int_range 1 2) (int_range 1 5))
            (list_size (int_range 0 14) (pair (int_bound 1) (list_repeat 5 (int_bound 3)))))
         (pair
            (list_size (int_range 1 3) (pair (int_bound 1) (list_repeat 6 arg)))
            (list_repeat 3 (int_bound 4)))))

let check_shape sp =
  let n_rels = List.length sp.sp_arities in
  let eng = setup sp.sp_arities in
  let db = E.Engine.database eng in
  (* rows land in two stamped batches so delta windows are non-trivial *)
  let rows =
    List.map
      (fun (pick, raw) ->
        let pick = pick mod n_rels in
        let a = List.nth sp.sp_arities pick in
        (Printf.sprintf "r%d" pick, List.filteri (fun i _ -> i < a) raw))
      sp.sp_rows
  in
  let split = List.length rows / 2 in
  List.iteri (fun i (rel, vals) -> if i < split then insert eng rel vals) rows;
  E.Database.bump_timestamp db;
  let t1 = E.Database.timestamp db in
  List.iteri (fun i (rel, vals) -> if i >= split then insert eng rel vals) rows;
  E.Database.bump_timestamp db;
  let facts =
    List.map
      (fun (pick, specs) ->
        let pick = pick mod n_rels in
        let a = List.nth sp.sp_arities pick in
        let expr_of = function
          | `V i -> v (Printf.sprintf "x%d" i)
          | `C c -> lit c
        in
        holds (Printf.sprintf "r%d" pick)
          (List.filteri (fun i _ -> i < a) specs |> List.map expr_of))
      sp.sp_atoms
  in
  match query db facts with
  | exception E.Compile.Unsat -> true
  | exception E.Compile.Error _ -> true
  | q ->
    let n_atoms = Array.length q.E.Compile.atoms in
    let ranges =
      Array.init n_atoms (fun i ->
          match List.nth sp.sp_windows (i mod List.length sp.sp_windows) with
          | 4 -> { E.Join.lo = t1; hi = max_int }
          | _ -> E.Join.all_rows)
    in
    let expected = Ref_join.matches_multiset db q ~ranges in
    let cache = E.Join.new_cache () in
    E.Join.compiled_descr (E.Join.compile_plan q) = E.Join.describe_lowering q
    (* fresh, then twice through one cache (the second pass answers from
       it); three atoms, or an atom that binds nothing, take the trie join *)
    && compiled_multiset db q ~ranges = expected
    && compiled_multiset db ~cache q ~ranges = expected
    && compiled_multiset db ~cache q ~ranges = expected

let prop_shape_fuzz =
  QCheck2.Test.make
    ~name:"plan-shape fuzz: compiled == reference (random shapes, windows, shared cache)"
    ~count:300 gen_shape check_shape

(* ------------------------------------------------------------------ *)
(* A real workload plans through the lowering                          *)
(* ------------------------------------------------------------------ *)

let test_fig7_compiles_plans () =
  E.Telemetry.reset ();
  E.Telemetry.enable ();
  let eng = E.Engine.create () in
  ignore (E.run_string eng (Math_suite.egglog_program ()));
  ignore (E.Engine.run_iterations eng 3);
  E.Telemetry.disable ();
  let snap = E.Telemetry.snapshot () in
  let get name = try List.assoc name snap.E.Telemetry.sn_counters with Not_found -> 0 in
  Alcotest.(check bool) "join.plans_built > 0" true (get "join.plans_built" > 0);
  Alcotest.(check bool) "join.matches_yielded > 0" true (get "join.matches_yielded" > 0);
  E.Telemetry.reset ()

let () =
  Printf.printf "property-test seed: %d (override with EGGLOG_TEST_SEED=<n>)\n%!" test_seed;
  try
    Alcotest.run ~and_exit:false "compiled-plans"
      [
        ( "specialization boundaries",
          [
            Alcotest.test_case "binder arity 1-4 vs generic fallback" `Quick
              test_binder_arity_boundary;
            Alcotest.test_case "boundary counts variables, not columns" `Quick
              test_binder_counts_vars_not_columns;
            Alcotest.test_case "two-atom and generic lowerings" `Quick
              test_two_atom_and_generic_lowering;
            Alcotest.test_case "atomless queries lower to the generic join" `Quick
              test_atomless_lowering;
          ] );
        ( "specialized checks",
          [
            Alcotest.test_case "constant-check hoisting" `Quick test_constant_check_hoisting;
            Alcotest.test_case "primitive guard resolution" `Quick test_prim_guard_resolution;
          ] );
        ("fuzz", [ to_alcotest prop_shape_fuzz ]);
        ( "workload",
          [ Alcotest.test_case "fig7 compiles its plans" `Quick test_fig7_compiles_plans ] );
      ]
  with e ->
    Printf.eprintf "\nproperty failure: reproduce with EGGLOG_TEST_SEED=%d\n%!" test_seed;
    raise e
