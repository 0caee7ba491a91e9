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
   binder; 5+ falls back to the generic readers loop. describe_lowering
   (what --explain-plans prints) reports which. *)
let test_binder_arity_boundary () =
  List.iter
    (fun k ->
      let eng = setup [ k ] in
      let db = E.Engine.database eng in
      let q = query db [ holds "r0" (List.init k (fun i -> v (Printf.sprintf "x%d" i))) ] in
      let expect =
        Printf.sprintf "compiled single-atom (arity %d, %s)" k
          (if k <= 4 then "specialized" else "generic binder")
      in
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
  (* with r1 driving, r0's whole key is bound: r0 is probed by lookup *)
  Alcotest.(check string)
    "mixed two-atom lowering"
    "compiled two-atom (arities 2+5, specialized/generic binder, key lookup: atom 0 when probed)"
    (E.Join.describe_lowering two);
  let three =
    query db [ holds "r0" [ v "a"; v "b" ]; holds "r2" [ v "a" ]; holds "r2" [ v "b" ] ]
  in
  Alcotest.(check string)
    "three atoms go generic" "compiled generic (3 atoms)" (E.Join.describe_lowering three);
  (* an atom that binds no variable is ground: its key is all constants *)
  let ground = query db [ holds "r0" [ lit 1; lit 2 ] ] in
  Alcotest.(check string)
    "a ground one-atom query is a lookup" "compiled single-atom (arity 0, specialized, key lookup)"
    (E.Join.describe_lowering ground);
  (* two atoms, one of them ground, stay on the trie join *)
  let ground_two = query db [ holds "r0" [ lit 1; lit 2 ]; holds "r2" [ v "a" ] ] in
  Alcotest.(check string)
    "a ground atom beside another goes generic" "compiled generic (2 atoms)"
    (E.Join.describe_lowering ground_two)

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
        (name ^ ": lowering") "compiled generic (0 atoms)" (E.Join.describe_lowering q);
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
    (* fresh, then twice through one cache (the second pass answers from
       it); three atoms, or an atom that binds nothing, take the trie join *)
    compiled_multiset db q ~ranges = expected
    && compiled_multiset db ~cache q ~ranges = expected
    && compiled_multiset db ~cache q ~ranges = expected

let prop_shape_fuzz =
  QCheck2.Test.make
    ~name:"plan-shape fuzz: compiled == reference (random shapes, windows, shared cache)"
    ~count:300 gen_shape check_shape

(* ------------------------------------------------------------------ *)
(* Lookups: a bound key is one Table.get                               *)
(* ------------------------------------------------------------------ *)

let counter name =
  let snap = E.Telemetry.snapshot () in
  try List.assoc name snap.E.Telemetry.sn_counters with Not_found -> 0

(* A check whose keys are constants reads the rows at those keys and
   builds nothing; a deleted key is no longer there to read; and a row is
   read only when its stamp lies in the atom's window, driving or
   probed. *)
let test_lookup_reads () =
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       "(function f (i64) i64 :merge (max old new)) (set (f 1) 5) (set (f 2) 5) (set (f 3) 6)");
  let f_eq a b = E.Ast.Eq (E.Ast.Call ("f", [ lit a ]), E.Ast.Call ("f", [ lit b ])) in
  E.Telemetry.reset ();
  E.Telemetry.enable ();
  let builds = counter "join.index_builds" and scanned = counter "join.tuples_scanned" in
  Alcotest.(check bool) "(f 1) = (f 2)" true (E.Engine.check_facts eng [ f_eq 1 2 ]);
  Alcotest.(check bool) "(f 1) <> (f 3)" false (E.Engine.check_facts eng [ f_eq 1 3 ]);
  Alcotest.(check int)
    "a constant-key check builds no index" builds (counter "join.index_builds");
  Alcotest.(check int)
    "each check reads its two rows" (scanned + 4) (counter "join.tuples_scanned");
  E.Telemetry.disable ();
  E.Telemetry.reset ();
  ignore (E.run_string eng "(delete (f 2))");
  Alcotest.(check bool)
    "a deleted key fails the check" false (E.Engine.check_facts eng [ f_eq 1 2 ]);
  (match E.run_string eng "(check (= (f 1) (f 2)))" with
  | exception E.Egglog_error _ -> ()
  | _ -> Alcotest.fail "(check (= (f 1) (f 2))) passed after the delete");
  (* (f 5) lands in a later stamp than (f 1) *)
  let db = E.Engine.database eng in
  E.Database.bump_timestamp db;
  let t1 = E.Database.timestamp db in
  ignore (E.run_string eng "(set (f 5) 1)");
  E.Database.bump_timestamp db;
  let old_rows = { E.Join.lo = 0; hi = t1 } and new_rows = { E.Join.lo = t1; hi = max_int } in
  let one = query db [ E.Ast.Eq (v "x", E.Ast.Call ("f", [ lit 1 ])) ] in
  Alcotest.(check string)
    "one constant-key atom" "compiled single-atom (arity 1, specialized, key lookup)"
    (E.Join.describe_lowering one);
  Alcotest.(check (list string)) "old row, old window" [ "5" ]
    (compiled_multiset db one ~ranges:[| old_rows |]);
  Alcotest.(check (list string)) "old row outside a new window" []
    (compiled_multiset db one ~ranges:[| new_rows |]);
  (* (f 5) = 1 drives, then (f 1) = 5 is probed by the key the driver bound *)
  let chain =
    query db
      [
        E.Ast.Eq (v "y", E.Ast.Call ("f", [ lit 5 ]));
        E.Ast.Eq (v "z", E.Ast.Call ("f", [ v "y" ]));
      ]
  in
  Alcotest.(check string) "a chain of lookups"
    ("compiled two-atom (arities 1+2, specialized/specialized, "
    ^ "key lookup: atom 0, atom 1 when probed)")
    (E.Join.describe_lowering chain);
  List.iter
    (fun (name, ranges, expected) ->
      Alcotest.(check (list string)) name expected (compiled_multiset db chain ~ranges);
      Alcotest.(check (list string)) (name ^ " (reference)") expected
        (Ref_join.matches_multiset db chain ~ranges))
    [
      ("both windows hold their rows", [| new_rows; E.Join.all_rows |], [ "1,5" ]);
      ("the probed row is outside its window", [| new_rows; new_rows |], []);
      ("the driving row is outside its window", [| old_rows; E.Join.all_rows |], []);
    ]

(* The lookup fuzzer: queries of one to three atoms over functions with
   an i64 output, whose key columns are constants or a few shared
   variables (so keys are often all constants, or bound by the other
   atom) and whose output is a variable, a constant, or left fresh; each
   atom reads all rows, the newer batch or the older one. The rows land in
   two stamped batches, and [:merge max] re-stamps a key the second batch
   raises. *)
type lshape = {
  lp_rows : (int * int list * int) list;  (* function pick, key cells, output *)
  lp_atoms : (int * [ `V of int | `C of int ] list * [ `V of int | `C of int | `Fresh ]) list;
  lp_windows : int list;  (* per atom: 0-2 all rows, 3 the newer batch, 4 the older *)
}

let gen_lshape =
  QCheck2.Gen.(
    let var k = map (fun i -> `V i) (int_bound k) and const () = map (fun c -> `C c) (int_bound 3) in
    let arg = frequency [ (1, var 2); (1, const ()) ] in
    let out = frequency [ (2, var 3); (1, const ()); (1, return `Fresh) ] in
    map
      (fun (rows, (atoms, windows)) -> { lp_rows = rows; lp_atoms = atoms; lp_windows = windows })
      (pair
         (list_size (int_range 0 16)
            (triple (int_bound 1) (list_repeat 2 (int_bound 3)) (int_bound 3)))
         (pair
            (list_size (int_range 1 3) (triple (int_bound 1) (list_repeat 2 arg) out))
            (list_repeat 3 (int_bound 4)))))

(* Lowerings the lookup fuzzer reached, for the coverage check below. *)
let drawn = Hashtbl.create 8
let note_drawn what = Hashtbl.replace drawn what ()

let check_lshape sp =
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       "(function g0 (i64) i64 :merge (max old new))\n\
        (function g1 (i64 i64) i64 :merge (max old new))");
  let db = E.Engine.database eng in
  let arity pick = pick + 1 in
  let first pick xs = List.filteri (fun i _ -> i < arity pick) xs in
  let rows = List.map (fun (pick, key, out) -> (pick, first pick key, out)) sp.lp_rows in
  let split = List.length rows / 2 in
  let set (pick, key, out) =
    E.Engine.set_fact eng (Printf.sprintf "g%d" pick)
      (List.map (fun k -> E.Value.VInt k) key)
      (E.Value.VInt out)
  in
  List.iteri (fun i r -> if i < split then set r) rows;
  E.Database.bump_timestamp db;
  let t1 = E.Database.timestamp db in
  List.iteri (fun i r -> if i >= split then set r) rows;
  E.Database.bump_timestamp db;
  let expr_of = function `V i -> v (Printf.sprintf "x%d" i) | `C c -> lit c in
  let facts =
    List.map
      (fun (pick, args, out) ->
        let call = E.Ast.Call (Printf.sprintf "g%d" pick, List.map expr_of (first pick args)) in
        match out with
        | `Fresh -> E.Ast.Holds call
        | (`V _ | `C _) as o -> E.Ast.Eq (expr_of o, call))
      sp.lp_atoms
  in
  match query db facts with
  | exception E.Compile.Unsat -> true
  | exception E.Compile.Error _ -> true
  | q ->
    let n_atoms = Array.length q.E.Compile.atoms in
    let picks =
      Array.init n_atoms (fun i -> List.nth sp.lp_windows (i mod List.length sp.lp_windows))
    in
    let ranges =
      Array.map
        (function
          | 3 -> { E.Join.lo = t1; hi = max_int }
          | 4 -> { E.Join.lo = 0; hi = t1 }
          | _ -> E.Join.all_rows)
        picks
    in
    let descr = E.Join.describe_lowering q in
    let has sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length descr && (String.sub descr i n = sub || go (i + 1)) in
      go 0
    in
    if has "key lookup" then begin
      note_drawn "lookup";
      if has "when probed" then note_drawn "bound key";
      if Array.exists (fun p -> p >= 3) picks then note_drawn "windowed lookup";
      let const_output (a : E.Compile.atom) =
        match a.E.Compile.a_args.(Array.length a.E.Compile.a_args - 1) with
        | E.Compile.A_const _ -> true
        | E.Compile.A_var _ -> false
      in
      if Array.exists const_output q.E.Compile.atoms then note_drawn "constant output"
    end;
    let expected = Ref_join.matches_multiset db q ~ranges in
    let cache = E.Join.new_cache () in
    compiled_multiset db q ~ranges = expected
    && compiled_multiset db ~cache q ~ranges = expected
    && compiled_multiset db ~cache q ~ranges = expected

let prop_lookup_fuzz =
  QCheck2.Test.make
    ~name:"lookup fuzz: compiled == reference (constant and bound keys, windows)"
    ~count:400 gen_lshape check_lshape

let test_lookup_fuzz_coverage () =
  List.iter
    (fun what ->
      Alcotest.(check bool) ("the lookup fuzz drew a " ^ what) true (Hashtbl.mem drawn what))
    [ "lookup"; "bound key"; "windowed lookup"; "constant output" ]

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
        ( "lookups",
          [ Alcotest.test_case "check, delete and windows" `Quick test_lookup_reads ] );
        ( "fuzz",
          [
            to_alcotest prop_shape_fuzz;
            to_alcotest prop_lookup_fuzz;
            Alcotest.test_case "the lookup fuzz covers every lookup shape" `Quick
              test_lookup_fuzz_coverage;
          ] );
        ( "workload",
          [ Alcotest.test_case "fig7 compiles its plans" `Quick test_fig7_compiles_plans ] );
      ]
  with e ->
    Printf.eprintf "\nproperty failure: reproduce with EGGLOG_TEST_SEED=%d\n%!" test_seed;
    raise e
