(* Deeper engine properties: extraction soundness and cost consistency,
   nested push/pop, planner behaviour on adversarial queries, scheduler
   bookkeeping, and the i64/Rational primitive algebra. *)

module E = Egglog

(* Property tests run from a pinned seed so CI failures reproduce exactly;
   override with EGGLOG_TEST_SEED=<n> (the seed is printed at startup and
   on any property failure). QCheck's own QCHECK_SEED still works but only
   covers qcheck's default RNG; this pin covers every suite below. *)
let test_seed =
  match Sys.getenv_opt "EGGLOG_TEST_SEED" with
  | None -> 0x5eed2026
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> failwith (Printf.sprintf "EGGLOG_TEST_SEED must be an integer, got %S" s))

(* Every property draws from its own state seeded the same way, so each
   reproduces in isolation regardless of suite order. *)
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| test_seed |]) t

let math_schema =
  {| (datatype M (Num i64) (Var String) (Add M M) (Mul M M) (Neg M)) |}

let gen_term_src =
  QCheck2.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 0 then
              oneof
                [
                  map (fun i -> Printf.sprintf "(Num %d)" i) (int_range (-5) 5);
                  map (fun i -> Printf.sprintf "(Var \"v%d\")" i) (int_bound 2);
                ]
            else
              oneof
                [
                  map (fun i -> Printf.sprintf "(Num %d)" i) (int_range (-5) 5);
                  map2 (fun a b -> Printf.sprintf "(Add %s %s)" a b) (self (n / 2)) (self (n / 2));
                  map2 (fun a b -> Printf.sprintf "(Mul %s %s)" a b) (self (n / 2)) (self (n / 2));
                  map (fun a -> Printf.sprintf "(Neg %s)" a) (self (n - 1));
                ])
          (min n 5)))

(* recompute the ast-size cost of an extracted term *)
let rec term_cost (t : E.Extract.term) =
  match t with
  | E.Extract.T_const _ -> 0
  | E.Extract.T_app (_, args) -> 1 + List.fold_left (fun acc a -> acc + term_cost a) 0 args

let prop_extraction_sound_and_consistent =
  QCheck2.Test.make ~name:"extraction: term is equal to root, cost consistent, minimal vs variants"
    ~count:60 gen_term_src (fun src ->
      let eng = E.Engine.create () in
      ignore (E.run_string eng math_schema);
      ignore (E.run_string eng (Printf.sprintf "(define root %s)" src));
      ignore
        (E.run_string eng
           {|
        (rewrite (Add a b) (Add b a))
        (rewrite (Neg (Neg a)) a)
        (rewrite (Add (Num x) (Num y)) (Num (+ x y)))
        (rewrite (Mul (Num x) (Num y)) (Num (* x y)))
        (run 4)
      |});
      let root = E.Engine.eval_call eng "root" [] in
      match E.Engine.extract_value eng root with
      | None -> false
      | Some { E.Extract.term; cost } ->
        (* 1. reported cost equals the term's recomputed cost *)
        let consistent = term_cost term = cost in
        (* 2. the extracted term is in the root's class *)
        let printed = Sexpr.to_string (E.Extract.term_to_sexp term) in
        let sound =
          E.Engine.check_facts eng
            [ E.Ast.Eq (E.Ast.Var "root", E.Frontend.expr_of_sexp (Sexpr.parse_one printed)) ]
        in
        (* 3. no enumerated variant beats it (excluding the root alias,
           whose declared :cost is prohibitive but whose naive ast-size
           recomputation here would be 1) *)
        let variants = E.Engine.extract_candidates eng root ~max:64 in
        let is_alias = function
          | E.Extract.T_app (f, []) when E.Symbol.name f = "root" -> true
          | _ -> false
        in
        let minimal =
          List.for_all (fun v -> is_alias v || term_cost v >= cost) variants
        in
        consistent && sound && minimal)

let prop_push_pop_nesting =
  QCheck2.Test.make ~name:"nested push/pop restores sizes exactly" ~count:60
    QCheck2.Gen.(list_size (int_range 1 8) (int_range 0 2))
    (fun script ->
      let eng = E.Engine.create () in
      ignore (E.run_string eng "(sort V) (function mk (i64) V) (relation r (i64))");
      let counter = ref 0 in
      let stack = ref [] in
      let snapshot () = (E.Engine.total_rows eng, E.Engine.n_classes eng) in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | 0 ->
            ignore (E.run_string eng "(push)");
            stack := snapshot () :: !stack
          | 1 ->
            incr counter;
            ignore (E.Engine.eval_call eng "mk" [ E.Value.VInt !counter ]);
            E.Engine.set_fact eng "r" [ E.Value.VInt !counter ] E.Value.VUnit
          | _ -> (
            match !stack with
            | [] -> ()
            | saved :: rest ->
              ignore (E.run_string eng "(pop)");
              stack := rest;
              if snapshot () <> saved then ok := false))
        script;
      !ok)

let test_planner_handles_cartesian () =
  (* disconnected atoms = cross product; must still be correct *)
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       {|
      (relation a (i64))
      (relation b (i64))
      (relation pair (i64 i64))
      (rule ((a x) (b y)) ((pair x y)))
      (a 1) (a 2) (a 3)
      (b 10) (b 20)
      (run)
    |});
  Alcotest.(check int) "3x2 pairs" 6 (E.Engine.table_size eng "pair")

let test_planner_shared_var_chain () =
  (* a chain query where the middle variable is the most selective *)
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       {|
      (relation e (i64 i64))
      (relation tri (i64 i64 i64))
      (rule ((e x y) (e y z) (e z x)) ((tri x y z)))
      (e 1 2) (e 2 3) (e 3 1)
      (e 4 5) (e 5 4)
      (run)
    |});
  (* the 3-cycle in each rotation *)
  Alcotest.(check int) "triangles" 3 (E.Engine.table_size eng "tri")

let test_self_join_nonlinear () =
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       {|
      (relation e (i64 i64))
      (relation dup (i64))
      (rule ((e x x)) ((dup x)))
      (e 1 1) (e 1 2) (e 2 2)
      (run)
    |});
  Alcotest.(check int) "self loops" 2 (E.Engine.table_size eng "dup")

let test_backoff_unbans () =
  (* after a ban expires the rule fires again and reaches the fixpoint *)
  let eng = E.Engine.create ~scheduler:(E.Engine.Backoff { match_limit = 1; ban_length = 1 }) () in
  ignore
    (E.run_string eng
       {|
      (relation n (i64))
      (rule ((n x) (< x 6)) ((n (+ x 1))))
      (n 0)
    |});
  let report = E.Engine.run_iterations eng 60 in
  ignore report;
  Alcotest.(check int) "reaches 7 numbers despite bans" 7 (E.Engine.table_size eng "n")

let test_i64_primitive_algebra () =
  let outputs =
    E.run_program_string
      {|
      (function v (String) i64 :merge new)
      (set (v "shl") (<< 3 4))
      (set (v "shr") (>> -16 2))
      (set (v "mod") (% 17 5))
      (set (v "abs") (abs -9))
      (check (= (v "shl") 48))
      (check (= (v "shr") -4))
      (check (= (v "mod") 2))
      (check (= (v "abs") 9))
    |}
  in
  Alcotest.(check int) "all pass" 4 (List.length outputs)

let test_rational_algebra () =
  let outputs =
    E.run_program_string
      {|
      (function v (String) Rational :merge new)
      (set (v "sum") (+ 1/3 1/6))
      (set (v "prod") (* 2/3 9/4))
      (set (v "div") (/ 1/2 1/8))
      (set (v "neg") (- 0/1 22/7))
      (check (= (v "sum") 1/2))
      (check (= (v "prod") 3/2))
      (check (= (v "div") 4/1))
      (check (= (v "neg") (- 22/7)))
    |}
  in
  Alcotest.(check int) "all pass" 4 (List.length outputs)

let prop_run_is_idempotent_at_fixpoint =
  QCheck2.Test.make ~name:"running past saturation changes nothing" ~count:40
    QCheck2.Gen.(list_size (int_range 0 12) (pair (int_bound 5) (int_bound 5)))
    (fun edges ->
      let eng = E.Engine.create () in
      ignore
        (E.run_string eng
           {|
          (relation edge (i64 i64))
          (relation path (i64 i64))
          (rule ((edge x y)) ((path x y)))
          (rule ((path x y) (edge y z)) ((path x z)))
        |});
      List.iter
        (fun (a, b) -> E.Engine.set_fact eng "edge" [ E.Value.VInt a; E.Value.VInt b ] E.Value.VUnit)
        edges;
      ignore (E.Engine.run_iterations eng 50);
      let before = (E.Engine.total_rows eng, E.Engine.n_classes eng) in
      ignore (E.Engine.run_iterations eng 10);
      (E.Engine.total_rows eng, E.Engine.n_classes eng) = before)

(* ------------------------------------------------------------------ *)
(* Differential testing: the planner + generic join vs the naive       *)
(* reference evaluator in Ref_join.                                    *)
(* ------------------------------------------------------------------ *)

let compile_env db =
  {
    E.Compile.find_func =
      (fun name -> Option.map E.Table.func (E.Database.find_func db (E.Symbol.intern name)));
  }

(* The sorted matches of a compiled plan, one comma-joined binding each —
   the multiset [Ref_join.matches_multiset] gives. *)
let compiled_multiset_of db ?cache cp ~ranges =
  let acc = ref [] in
  E.Join.search_compiled db ?cache cp ~ranges (fun binding ->
      acc := String.concat "," (Array.to_list (Array.map E.Value.to_string binding)) :: !acc);
  List.sort compare !acc

let compiled_multiset db ?cache q ~ranges =
  compiled_multiset_of db ?cache (E.Join.compile_plan q) ~ranges

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (fun y -> y <> x) l)))
      l

(* A randomized scenario: one or two relations (arity 1-5, so arity-5
   atoms exercise the compiled generic-binder fallback) plus an i64-valued
   function [f], facts inserted in two stamped batches, a random
   conjunctive query of 1-3 atoms over them, and optionally a primitive
   application (a binder, an always-true guard, or a never-true guard). *)
type diff_scenario = {
  ds_arities : int list;  (* relation arities: r0, r1, ... *)
  ds_inserts : (int * int list) list;  (* (table pick, raw column values) *)
  ds_split : int;  (* batch boundary, taken mod (inserts + 1) *)
  ds_atoms : (int * [ `V of int | `C of int ] list) list;
  ds_prim : int;  (* 0 = none, 1 = binder, 2 = true guard, 3 = false guard *)
  ds_ranges : int list;  (* per-atom stamp-window picks (delta mode) *)
}

let gen_scenario =
  QCheck2.Gen.(
    let arg = oneof [ map (fun i -> `V i) (int_bound 5); map (fun c -> `C c) (int_bound 3) ] in
    map
      (fun ((arities, inserts), (split, atoms), (prim, ranges)) ->
        {
          ds_arities = arities;
          ds_inserts = inserts;
          ds_split = split;
          ds_atoms = atoms;
          ds_prim = prim;
          ds_ranges = ranges;
        })
      (triple
         (pair
            (list_size (int_range 1 2) (int_range 1 5))
            (list_size (int_range 0 16) (pair (int_bound 2) (list_repeat 5 (int_bound 3)))))
         (pair (int_bound 16) (list_size (int_range 1 3) (pair (int_bound 2) (list_repeat 6 arg))))
         (pair (int_bound 3) (list_repeat 3 (int_bound 5)))))

(* Populate an engine for the scenario. Returns the database and the three
   stamp boundaries (start, between batches, end); batch 1 rows carry
   stamps in [t0, t1) and batch 2 rows in [t1, t2). *)
let build_scenario ds =
  let n_rels = List.length ds.ds_arities in
  let eng = E.Engine.create () in
  let decls = Buffer.create 64 in
  List.iteri
    (fun i a ->
      Buffer.add_string decls
        (Printf.sprintf "(relation r%d (%s))\n" i
           (String.concat " " (List.init a (fun _ -> "i64")))))
    ds.ds_arities;
  Buffer.add_string decls "(function f (i64) i64)\n";
  ignore (E.run_string eng (Buffer.contents decls));
  let db = E.Engine.database eng in
  let insert (pick, raw) =
    let pick = pick mod (n_rels + 1) in
    if pick < n_rels then begin
      let a = List.nth ds.ds_arities pick in
      let key = List.filteri (fun i _ -> i < a) raw |> List.map (fun v -> E.Value.VInt v) in
      E.Engine.set_fact eng (Printf.sprintf "r%d" pick) key E.Value.VUnit
    end
    else begin
      (* value depends only on the key, so re-insertion never conflicts *)
      let k = List.hd raw in
      E.Engine.set_fact eng "f" [ E.Value.VInt k ] (E.Value.VInt (k mod 3))
    end
  in
  let n = List.length ds.ds_inserts in
  let split = if n = 0 then 0 else ds.ds_split mod (n + 1) in
  let t0 = E.Database.timestamp db in
  List.iteri (fun i ins -> if i < split then insert ins) ds.ds_inserts;
  E.Database.bump_timestamp db;
  let t1 = E.Database.timestamp db in
  List.iteri (fun i ins -> if i >= split then insert ins) ds.ds_inserts;
  E.Database.bump_timestamp db;
  let t2 = E.Database.timestamp db in
  (db, [| t0; t1; t2 |])

(* The scenario's query as surface facts, plus the distinct pattern
   variables it binds (in first-use order; includes the binder "s" when
   ds_prim picks one). *)
let scenario_facts ds =
  let n_rels = List.length ds.ds_arities in
  let var i = E.Ast.Var (Printf.sprintf "x%d" i) in
  let expr_of = function `V i -> var i | `C c -> E.Ast.Lit (E.Value.VInt c) in
  let used = ref [] in
  let use s =
    List.iter (function `V i -> used := i :: !used | `C _ -> ()) s;
    s
  in
  let facts =
    List.map
      (fun (pick, specs) ->
        let pick = pick mod (n_rels + 1) in
        if pick < n_rels then begin
          let a = List.nth ds.ds_arities pick in
          let args = use (List.filteri (fun i _ -> i < a) specs) in
          E.Ast.Holds (E.Ast.Call (Printf.sprintf "r%d" pick, List.map expr_of args))
        end
        else
          match specs with
          | arg :: out :: _ ->
            let args = use [ arg; out ] in
            E.Ast.Eq
              (E.Ast.Call ("f", [ expr_of (List.nth args 0) ]), expr_of (List.nth args 1))
          | _ -> assert false)
      ds.ds_atoms
  in
  let prims, binder =
    match (ds.ds_prim, List.rev !used) with
    | 0, _ | _, [] -> ([], [])
    | 1, v :: _ ->
      (* binder: s is computed from a join variable *)
      ( [ E.Ast.Eq (E.Ast.Call ("+", [ var v; E.Ast.Lit (E.Value.VInt 1) ]), E.Ast.Var "s") ],
        [ E.Ast.Var "s" ] )
    | 2, v :: _ ->
      (* always-true guard *)
      ([ E.Ast.Eq (E.Ast.Call ("+", [ var v; E.Ast.Lit (E.Value.VInt 0) ]), var v) ], [])
    | _, v :: _ ->
      (* never-true guard: x + 1 = x *)
      ([ E.Ast.Eq (E.Ast.Call ("+", [ var v; E.Ast.Lit (E.Value.VInt 1) ]), var v) ], [])
  in
  let vars =
    List.fold_left (fun acc i -> if List.mem (var i) acc then acc else var i :: acc) []
      (List.rev !used)
    |> List.rev
  in
  (facts @ prims, vars @ binder)

(* The scenario's query compiled against [db]. *)
let scenario_query ds db =
  E.Compile.compile_query (compile_env db) (fst (scenario_facts ds))

(* One differential case: reference output vs the production join under
   every configuration we ship — cached and uncached, and every variable
   ordering (sampled once the order grows past 4
   variables). The plans share one cache, which doubles as a regression
   for the cache-key identity invariant: every lowering and every
   ordering must request (and correctly answer from) the right
   entries. *)
let check_diff ds ~delta =
  let db, stamps = build_scenario ds in
  match scenario_query ds db with
  | exception E.Compile.Unsat -> true
  | exception E.Compile.Error _ -> true
  | q ->
    let n_atoms = Array.length q.E.Compile.atoms in
    let ranges =
      if not delta then Array.make n_atoms E.Join.all_rows
      else
        Array.init n_atoms (fun i ->
            match List.nth ds.ds_ranges (i mod List.length ds.ds_ranges) with
            | 3 -> { E.Join.lo = stamps.(1); hi = max_int }
            | 4 -> { E.Join.lo = stamps.(0); hi = stamps.(1) }
            | 5 -> { E.Join.lo = stamps.(1); hi = stamps.(2) }
            | _ -> E.Join.all_rows)
    in
    let expected = Ref_join.matches_multiset db q ~ranges in
    let agree ?cache q' = compiled_multiset db ?cache q' ~ranges = expected in
    let cache = E.Join.new_cache () in
    let ok = ref (agree ~cache q) in
    (* a second pass answers from the cached structures *)
    ok := !ok && agree ~cache q;
    ok := !ok && agree q;
    (* past 4 join variables full enumeration explodes (120+ orders);
       reversing the chosen order still exercises a worst-case plan *)
    let orders =
      let base = Array.to_list q.E.Compile.order in
      if List.length base <= 4 then permutations base else [ base; List.rev base ]
    in
    List.iter
      (fun perm ->
        let q' = E.Compile.reorder q ~order:(Array.of_list perm) in
        ok := !ok && agree q' && agree ~cache q')
      orders;
    !ok

let prop_diff_full_ranges =
  QCheck2.Test.make
    ~name:"differential: compiled join == reference (full ranges, all orderings)"
    ~count:350 gen_scenario (fun ds -> check_diff ds ~delta:false)

let prop_diff_delta_ranges =
  QCheck2.Test.make
    ~name:"differential: compiled join == reference (delta stamp windows)" ~count:350
    gen_scenario (fun ds -> check_diff ds ~delta:true)

(* Engine-level differential for parallel search: the scenario's query
   becomes a rule writing its bindings into [out] — and, with two or more
   variables, unioning sort members through [g2], so fresh-id defaults,
   unions and rebuild rounds follow each parallel search — then the whole
   engine runs at jobs 1, 2 and 4 and both the canonical dump and the
   run-report fingerprint (per-iteration row/class/match counts, stop
   reason, per-rule stats) must come out byte-identical, over random
   schemas and primitives. Facts land in two batches with a run between, so the
   semi-naïve delta variants fan out across domains too. *)
let report_fingerprint (r : E.Engine.run_report) =
  ( List.map
      (fun (s : E.Engine.iteration_stat) ->
        (s.it_index, s.it_rows, s.it_classes, s.it_changed, s.it_matches, s.it_delta_rows))
      r.iterations,
    r.stop_reason,
    r.rule_stats )

let run_scenario_at_jobs ?node_limit ?memory_limit ds ~jobs =
  let n_rels = List.length ds.ds_arities in
  let facts, vars = scenario_facts ds in
  let eng = E.Engine.create () in
  let decls = Buffer.create 64 in
  List.iteri
    (fun i a ->
      Buffer.add_string decls
        (Printf.sprintf "(relation r%d (%s))\n" i
           (String.concat " " (List.init a (fun _ -> "i64")))))
    ds.ds_arities;
  Buffer.add_string decls "(function f (i64) i64)\n";
  Buffer.add_string decls "(sort M)\n(function g2 (i64) M)\n";
  Buffer.add_string decls
    (Printf.sprintf "(relation out (%s))\n"
       (String.concat " " (List.init (1 + List.length vars) (fun _ -> "i64"))));
  ignore (E.run_string eng (Buffer.contents decls));
  let union_actions =
    (* push unions and rebuilds behind the parallel search: merge the
       classes keyed by the first two bound variables (fresh g2 members on
       first touch) *)
    match vars with
    | v1 :: v2 :: _ -> [ E.Ast.Union (E.Ast.Call ("g2", [ v1 ]), E.Ast.Call ("g2", [ v2 ])) ]
    | _ -> []
  in
  E.Engine.add_rule eng
    {
      E.Ast.rule_name = Some "scenario";
      query = facts;
      actions =
        E.Ast.Do (E.Ast.Call ("out", E.Ast.Lit (E.Value.VInt 0) :: vars)) :: union_actions;
      ruleset = None;
    };
  let insert (pick, raw) =
    let pick = pick mod (n_rels + 1) in
    if pick < n_rels then begin
      let a = List.nth ds.ds_arities pick in
      let key = List.filteri (fun i _ -> i < a) raw |> List.map (fun v -> E.Value.VInt v) in
      E.Engine.set_fact eng (Printf.sprintf "r%d" pick) key E.Value.VUnit
    end
    else begin
      let k = List.hd raw in
      E.Engine.set_fact eng "f" [ E.Value.VInt k ] (E.Value.VInt (k mod 3))
    end
  in
  let n = List.length ds.ds_inserts in
  let split = if n = 0 then 0 else ds.ds_split mod (n + 1) in
  List.iteri (fun i ins -> if i < split then insert ins) ds.ds_inserts;
  let rep1 = E.Engine.run_iterations ?node_limit ?memory_limit ~jobs eng 2 in
  List.iteri (fun i ins -> if i >= split then insert ins) ds.ds_inserts;
  let rep2 = E.Engine.run_iterations ?node_limit ?memory_limit ~jobs eng 3 in
  (E.Serialize.dump_string eng, report_fingerprint rep1, report_fingerprint rep2)

let prop_jobs_differential =
  QCheck2.Test.make
    ~name:"differential: parallel search (jobs 2, 4) dumps+reports == serial" ~count:60
    gen_scenario (fun ds ->
      match run_scenario_at_jobs ds ~jobs:1 with
      | exception E.Engine.Egglog_error _ -> true
      | serial -> List.for_all (fun jobs -> run_scenario_at_jobs ds ~jobs = serial) [ 2; 4 ])

(* Same contract when a budget stops the run mid-way: node and memory
   limits are modeled deterministically, so the stop reason, the stopped
   iteration and the dump must be byte-identical at any jobs count. *)
let prop_jobs_differential_limits =
  QCheck2.Test.make
    ~name:"differential: budget stops (node/memory limit) identical at jobs 2, 4" ~count:30
    gen_scenario (fun ds ->
      List.for_all
        (fun (node_limit, memory_limit) ->
          match run_scenario_at_jobs ?node_limit ?memory_limit ds ~jobs:1 with
          | exception E.Engine.Egglog_error _ -> true
          | serial ->
            List.for_all
              (fun jobs -> run_scenario_at_jobs ?node_limit ?memory_limit ds ~jobs = serial)
              [ 2; 4 ])
        [ (Some 40, None); (None, Some 30_000) ])

(* ------------------------------------------------------------------ *)
(* Rollback differential: a failed transaction leaves no trace         *)
(* ------------------------------------------------------------------ *)

(* Random programs over unions, rewrites, deletes, definitions, runs and
   push/pop, with a failing command injected at a random point. The failing
   command is an (include ...) whose file first mutates (possibly popping
   into an outer push scope) and then fails with a merge conflict, a failed
   check or a division by zero. Two nesting shapes, both inside
   [with_transaction] after some committed commands:
   - the failing [run_command] is caught inside the request, which then
     commits ([rb_outer = false]);
   - the failure escapes and rolls the whole request back.
   Up to two scopes, each opened by an earlier committed (push) and
   written in, are popped by the request's first commands: those pops
   cross the request's transaction, so a rollback of the request must redo
   what they undid and reopen the scopes. Ids come in two sorts, so an id
   a pop freed may be reallocated for the other sort before the rollback. The reference is [raw_state] and the scalars, captured right
   before what fails. After the rollback, the raw tables (rows, stamps,
   counters), every id's representative and proof history, the byte model,
   the class count and the scope depth must equal the reference's; the
   dump must equal that of a fresh engine that replayed only the commands
   that committed, and so must the dump after the reopened scopes are
   popped again, and after a random further history and one more (run 3)
   on both. *)
let rollback_schema =
  {|
    (datatype M (Num i64) (Add M M))
    (datatype N (Lit i64))
    (function cost (i64) i64)
    (relation r (i64 i64))
    (relation trig (i64))
    (relation dz (i64))
    (rewrite (Add a b) (Add b a))
    (rewrite (Add (Num x) (Num y)) (Num (% (+ x y) 5)))
    (rule ((r x y) (r y z)) ((r x z)))
    (rule ((trig x) (= c (cost x))) ((set (cost x) (+ c 1))))
    (rule ((dz x)) ((set (cost (+ x 100)) (/ x 0))))
    (let seed (Add (Add (Num 0) (Num 1)) (Add (Num 2) (Add (Num 3) (Num 4)))))
  |}

type rb_scenario = {
  rb_pre : (int * int * int) list;  (* committed before the transaction *)
  rb_inner : (int * int * int) list;  (* committed inside it *)
  rb_dirty : (int * int) list;  (* typed-API unions right before the reference *)
  rb_scoped : (int * int * int) list list;  (* scopes the request pops, and their writes *)
  rb_body : (int * int * int) list;  (* the failing include's mutations *)
  rb_post : (int * int * int) list;  (* run on both engines after the rollback *)
  rb_failure : int;  (* 0 merge conflict, 1 failed check, 2 division by zero *)
  rb_key : int;
  rb_outer : bool;  (* the failure escapes the request *)
}

let gen_rb_scenario =
  QCheck2.Gen.(
    (* unions and runs weigh most: chains of unions are what path
       compression and congruence repair need to have something to undo *)
    let code =
      frequency
        [ (2, return 0); (1, return 1); (2, return 2); (1, return 3); (2, return 4); (4, return 5);
          (2, return 6); (1, return 7); (1, return 8) ]
    in
    let op = triple code (int_bound 4) (int_bound 4) in
    (* a scope's own writes open and close no scope *)
    let write = triple (oneofl [ 0; 1; 2; 3; 4; 5; 5; 6 ]) (int_bound 4) (int_bound 4) in
    map
      (fun ((pre, inner, body), (dirty, scoped, post), (failure, key, outer)) ->
        { rb_pre = pre; rb_inner = inner; rb_dirty = dirty; rb_scoped = scoped; rb_body = body;
          rb_post = post; rb_failure = failure; rb_key = key; rb_outer = outer })
      (triple
         (triple (list_size (int_bound 10) op) (list_size (int_bound 6) op)
            (list_size (int_bound 6) op))
         (triple
            (list_size (int_bound 4) (pair (int_bound 4) (int_bound 4)))
            (list_size (int_bound 2) (list_size (int_bound 4) write))
            (list_size (int_bound 6) op))
         (triple (int_bound 2) (int_bound 4) bool)))

(* Op codes to commands. [depth] tracks the push depth so pops stay
   matched; [tag] makes definition names unique across segments. Facts of
   [r] range over 3 x 3 pairs, so deletes and re-inserts of one row at
   one stamp (a fresh record and a fresh log entry in Table) are common. *)
let rb_commands ~depth ~tag ops =
  List.mapi
    (fun i (code, a, b) ->
      match code with
      | 0 -> Printf.sprintf "(r %d %d)" (a mod 3) (b mod 3)
      | 1 -> Printf.sprintf "(let u%s%d (Lit %d))" tag i (a + b)
      | 2 -> Printf.sprintf "(delete (r %d %d))" (a mod 3) (b mod 3)
      | 3 -> Printf.sprintf "(set (cost %d) %d)" a (2 * a)
      | 4 -> Printf.sprintf "(let t%s%d (Add (Num %d) (Num %d)))" tag i a b
      | 5 -> Printf.sprintf "(union (Num %d) (Num %d))" a b
      | 6 -> Printf.sprintf "(run %d)" (1 + (a mod 3))
      | 7 ->
        incr depth;
        "(push)"
      | _ ->
        if !depth > 0 then begin
          decr depth;
          "(pop)"
        end
        else "(run 1)")
    ops

let run_cmds eng cmds = List.iter (fun src -> ignore (E.run_string eng src)) cmds

(* Everything rollback must restore, read raw: rows with their stamps, the
   table counters, each id's sort, representative and proof history, and
   the database scalars. *)
let raw_state db =
  let tables = ref [] in
  E.Database.iter_tables db (fun t ->
      let rows =
        E.Table.fold
          (fun key row acc ->
            ( Array.to_list (Array.map E.Value.to_string key),
              E.Value.to_string row.E.Table.value,
              row.E.Table.stamp )
            :: acc)
          t []
      in
      tables :=
        ( E.Symbol.name (E.Table.func t).E.Schema.name,
          List.sort compare rows,
          (E.Table.log_length t, E.Table.modeled_bytes t) )
        :: !tables);
  let finds =
    List.init (E.Database.n_ids db) (fun i ->
        let id = E.Value.VId i in
        ( E.Ty.to_string (E.Database.sort_of_id db i),
          E.Value.to_string (E.Database.canon db id),
          List.map
            (fun (st : E.Proof_forest.step) -> (st.from_id, st.to_id))
            (E.Database.class_history db id) ))
  in
  ( List.rev !tables,
    finds,
    (E.Database.timestamp db, E.Database.change_counter db, E.Database.n_classes db,
     E.Database.modeled_bytes db) )

let check_rollback rb ~jobs =
  let depth = ref 0 in
  let pre = rb_commands ~depth ~tag:"p" rb.rb_pre in
  let after_pre = !depth in
  let scoped =
    List.concat
      (List.mapi
         (fun i ops -> "(push)" :: rb_commands ~depth ~tag:(Printf.sprintf "s%d" i) ops)
         rb.rb_scoped)
  in
  let pops = List.map (fun _ -> "(pop)") rb.rb_scoped in
  let inner = pops @ rb_commands ~depth ~tag:"i" rb.rb_inner in
  (* what fails is undone, so the post segment starts at the depth the
     reference saw *)
  let post =
    rb_commands ~depth:(ref (if rb.rb_outer then after_pre else !depth)) ~tag:"q" rb.rb_post
  in
  (* Typed-API unions do not rebuild, so they leave stale rows behind: the
     failing command's rebuild then compresses paths across the unions it
     makes, and rollback must undo those parent writes too. *)
  let dirty eng =
    List.iter
      (fun (a, b) ->
        let num n = E.Engine.eval_call eng "Num" [ E.Value.VInt n ] in
        ignore (E.Engine.union_values eng (num a) (num b)))
      rb.rb_dirty
  in
  let body = rb_commands ~depth ~tag:"b" rb.rb_body in
  let k = rb.rb_key in
  let failure =
    match rb.rb_failure with
    | 0 ->
      [ Printf.sprintf "(set (cost %d) %d)" k (2 * k); Printf.sprintf "(trig %d)" k; "(run 2)" ]
    | 1 -> [ "(check (r 99 99))" ]
    | _ -> [ Printf.sprintf "(dz %d)" k; "(run 2)" ]
  in
  let file = Filename.temp_file "rollback" ".egg" in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (String.concat "\n" (body @ failure)));
  let failing = Printf.sprintf "(include %S)" file in
  (* Folding modulo 5 keeps the term space finite; the node limit is a
     second bound on any one run. *)
  let eng = E.Engine.create ~jobs ~node_limit:5_000 () in
  run_cmds eng [ rollback_schema ];
  run_cmds eng (pre @ scoped);
  if rb.rb_outer then dirty eng;
  let reference = ref None in
  (* no dump here: dumping rebuilds, which would clean the stale rows the
     failing command is meant to find *)
  let snap () =
    (* read the raw state first: its finds compress paths, and while a
       scope is open the byte model counts the trail entries they record *)
    let state = raw_state (E.Engine.database eng) in
    reference :=
      Some
        ( state,
          E.Engine.modeled_bytes eng,
          E.Engine.n_classes eng,
          E.Engine.scope_depth eng )
  in
  if rb.rb_outer then snap ();
  let failed =
    match
      E.Engine.with_transaction eng (fun () ->
          run_cmds eng inner;
          if not rb.rb_outer then begin
            dirty eng;
            snap ()
          end;
          match E.run_string eng failing with
          | _ -> false
          | exception E.Engine.Egglog_error _ when not rb.rb_outer -> true)
    with
    | failed -> failed
    | exception E.Engine.Egglog_error _ -> true
  in
  Sys.remove file;
  let ref_state, ref_bytes, ref_classes, ref_depth = Option.get !reference in
  let restored =
    failed
    && raw_state (E.Engine.database eng) = ref_state
    && E.Engine.modeled_bytes eng = ref_bytes
    && E.Engine.n_classes eng = ref_classes
    && E.Engine.scope_depth eng = ref_depth
  in
  (* the same committed history, replayed without any failure *)
  let replay = E.Engine.create ~jobs ~node_limit:5_000 () in
  run_cmds replay [ rollback_schema ];
  run_cmds replay (pre @ scoped);
  if not rb.rb_outer then run_cmds replay inner;
  dirty replay;
  let dumps_agree () = E.Serialize.dump_string eng = E.Serialize.dump_string replay in
  let same_now = dumps_agree () in
  (* the scopes the rolled-back request popped are open again *)
  let reopened = if rb.rb_outer then pops else [] in
  run_cmds eng reopened;
  run_cmds replay reopened;
  let same_popped = dumps_agree () in
  run_cmds eng (post @ [ "(run 3)" ]);
  run_cmds replay (post @ [ "(run 3)" ]);
  restored && same_now && same_popped && dumps_agree ()

let print_rb rb =
  let ops l = String.concat " " (List.map (fun (c, a, b) -> Printf.sprintf "%d:%d:%d" c a b) l) in
  Printf.sprintf
    "pre=[%s] inner=[%s] dirty=[%s] scoped=[%s] body=[%s] post=[%s] failure=%d key=%d outer=%b"
    (ops rb.rb_pre) (ops rb.rb_inner)
    (String.concat " " (List.map (fun (a, b) -> Printf.sprintf "%d~%d" a b) rb.rb_dirty))
    (String.concat " | " (List.map ops rb.rb_scoped))
    (ops rb.rb_body) (ops rb.rb_post) rb.rb_failure rb.rb_key rb.rb_outer

let prop_rollback_differential =
  QCheck2.Test.make
    ~name:"rollback: a failed transaction restores the exact pre-transaction state (jobs 1, 4)"
    ~count:300 ~print:print_rb gen_rb_scenario (fun rb ->
      List.for_all (fun jobs -> check_rollback rb ~jobs) [ 1; 4 ])

(* The same contract one layer down, where the log bookkeeping lives: a
   table's rolled-back history must leave its delta walks — which read the
   log positions and the logged row records — exactly as a fresh table
   that replayed only the history before the transaction has them, and
   must keep them equal under any further history. Keys and stamps repeat
   often, so same-stamp removes and re-inserts and re-stamped updates are
   common. *)
let tbl_func =
  {
    E.Schema.name = E.Symbol.intern "t";
    arg_tys = [| E.Ty.Int |];
    ret_ty = E.Ty.Int;
    merge = E.Schema.Merge_panic;
    default = E.Schema.Default_panic;
    cost = 1;
    is_relation = false;
  }

let tbl_apply table stamp ops =
  List.iter
    (fun (op, k, v) ->
      let key = [| E.Value.VInt (k mod 4) |] in
      match op with
      | 0 | 1 -> ignore (E.Table.set_raw table key (E.Value.VInt (v mod 3)) ~stamp:!stamp)
      | 2 -> E.Table.remove table key
      | _ -> incr stamp)
    ops

(* What a table shows its readers: its delta walks over a grid of stamp
   windows (in walk order), its full walk, and its modeled counters. The
   first component checks every delta walk against a reference walk —
   [Table.iter] filtered by the window, the filter [Ref_join] applies — as
   a multiset, and that the walk visits each key at most once. *)
let tbl_observe table ~max_stamp =
  let cells key (row : E.Table.row) =
    (E.Value.to_string key.(0), E.Value.to_string row.value, row.stamp)
  in
  let walk ~lo ~hi =
    let acc = ref [] in
    E.Table.iter_delta table ~lo ~hi (fun key row -> acc := cells key row :: !acc);
    List.rev !acc
  in
  let reference ~lo ~hi =
    let acc = ref [] in
    E.Table.iter
      (fun key (row : E.Table.row) ->
        if Ref_join.in_range { E.Join.lo; hi } row.stamp then acc := cells key row :: !acc)
      table;
    List.sort compare !acc
  in
  let windows =
    List.concat_map
      (fun lo -> List.init (max_stamp + 2 - lo) (fun d -> (lo, lo + 1 + d)))
      (List.init (max_stamp + 1) (fun i -> i + 1))
  in
  let delta = List.map (fun (lo, hi) -> walk ~lo ~hi) windows in
  let agree =
    List.for_all2
      (fun (lo, hi) visited ->
        let keys = List.map (fun (k, _, _) -> k) visited in
        List.sort compare visited = reference ~lo ~hi
        && List.length (List.sort_uniq compare keys) = List.length keys)
      windows delta
  in
  ( agree,
    delta,
    List.sort compare (walk ~lo:0 ~hi:max_int),
    (E.Table.log_length table, E.Table.modeled_bytes table) )

let prop_table_rollback =
  let ops =
    QCheck2.Gen.(list_size (int_bound 14) (triple (int_bound 3) (int_bound 3) (int_bound 2)))
  in
  QCheck2.Test.make ~name:"rollback: a table's delta walks equal a replay without the transaction"
    ~count:1000
    QCheck2.Gen.(pair (quad ops ops ops ops) (option ops))
    (fun ((before, body, nested, post), scoped) ->
      let trail = Trail.create () in
      let table = E.Table.create ~trail tbl_func in
      let stamp = ref 1 in
      let replay segments =
        let replayed = E.Table.create tbl_func and stamp = ref 1 in
        List.iter (tbl_apply replayed stamp) segments;
        replayed
      in
      tbl_apply table stamp before;
      (* with [scoped], a scope opened outside the transaction holds those
         writes, and the transaction pops it first: the rollback must redo
         what that crossing pop undid, and reopen the scope *)
      Option.iter
        (fun ops ->
          Trail.push_scope trail;
          tbl_apply table stamp ops)
        scoped;
      let committed = before :: Option.to_list scoped and stamp0 = !stamp in
      let reference = replay committed in
      Trail.begin_txn trail;
      if Option.is_some scoped then ignore (Trail.pop_scope trail);
      tbl_apply table stamp body;
      Trail.begin_txn trail;
      tbl_apply table stamp nested;
      Trail.commit trail;
      ignore (Trail.rollback trail);
      let max_stamp = stamp0 + 16 in
      let restored = tbl_observe table ~max_stamp = tbl_observe reference ~max_stamp in
      (* the same further history on both *)
      tbl_apply table (ref stamp0) post;
      tbl_apply reference (ref stamp0) post;
      let observed = tbl_observe table ~max_stamp in
      (* the reopened scope still pops back to [before] *)
      let popped =
        Option.is_none scoped
        || begin
          ignore (Trail.pop_scope trail);
          tbl_observe table ~max_stamp = tbl_observe (replay [ before ]) ~max_stamp
        end
      in
      restored && (let agree, _, _, _ = observed in agree)
      && observed = tbl_observe reference ~max_stamp
      && popped)

(* One currency rule: a log entry is current iff its record's stamp
   still equals the entry's. A key removed and re-inserted at one stamp is
   walked once, at its new entry; rolling the re-insert and the remove
   back puts it at its old entry again. *)
let test_reinsert_walks_new_entry () =
  let trail = Trail.create () in
  let table = E.Table.create ~trail tbl_func in
  let key k = [| E.Value.VInt k |] in
  let set k = ignore (E.Table.set_raw table (key k) (E.Value.VInt 0) ~stamp:1) in
  let walk () =
    let acc = ref [] in
    E.Table.iter_delta table ~lo:1 ~hi:2 (fun key _ -> acc := E.Value.to_string key.(0) :: !acc);
    List.rev !acc
  in
  set 1;
  set 2;
  Trail.begin_txn trail;
  E.Table.remove table (key 1);
  set 1;
  Alcotest.(check (list string)) "re-insert walks at its new entry, once" [ "2"; "1" ] (walk ());
  ignore (Trail.rollback trail);
  Alcotest.(check (list string)) "rollback walks the old entry again" [ "1"; "2" ] (walk ())

(* The join cache's persistent structures follow their tables through the
   change feed instead of being rebuilt. A random history of raw writes —
   inserts, value overwrites at the row's own stamp and re-stamped,
   removes, same-stamp remove/re-inserts, unions followed by a rebuild, and
   transactions that fail partway — is driven through one long-lived
   cache; after every step each query must give, as a multiset, what a
   fresh cache and the naive reference give. Two-atom queries patch
   indexes; three-atom queries, and those with a ground atom, patch
   tries. *)
let patch_schema =
  {|
    (datatype N (Mk i64))
    (relation r (i64 N))
    (function f (i64) i64 :merge (max old new))
    (function h (N) i64 :merge (max old new))
  |}

let patch_queries =
  let v s = E.Ast.Var s and i n = E.Ast.Lit (E.Value.VInt n) in
  let r a b = E.Ast.Holds (E.Ast.Call ("r", [ a; b ])) in
  let f a b = E.Ast.Eq (E.Ast.Call ("f", [ a ]), b) in
  let h a b = E.Ast.Eq (E.Ast.Call ("h", [ a ]), b) in
  [
    [ r (v "x") (v "n") ];
    [ r (v "x") (v "n"); f (v "x") (v "y") ];
    [ r (v "x") (v "n"); h (v "n") (v "y") ];
    [ f (v "x") (v "x"); r (v "x") (v "n") ];
    [ r (i 1) (v "n"); h (v "n") (v "y"); f (v "y") (v "z") ];
    [ r (v "x") (v "n"); f (v "x") (v "y"); h (v "n") (v "y") ];
    [ r (v "x") (v "n"); r (v "y") (v "n"); f (v "y") (v "x") ];
    [ f (i 1) (i 2); r (v "x") (v "n") ];
  ]

(* A history step: one write (op codes: 0 insert into r, 1 overwrite f,
   2 new stamp, 3 remove, 4 same-stamp remove/re-insert, 5 overwrite h, 6 union
   then rebuild), or a transaction of writes that fails after them. *)
type patch_step = Write of (int * int * int) | Failing of (int * int * int) list

let gen_patch_history =
  QCheck2.Gen.(
    let write =
      triple
        (frequency
           [ (3, return 0); (3, return 1); (2, return 2); (2, return 3); (2, return 4);
             (2, return 5); (1, return 6) ])
        (int_bound 4) (int_bound 4)
    in
    list_size (int_range 1 14)
      (frequency
         [ (8, map (fun w -> Write w) write);
           (1, map (fun ws -> Failing ws) (list_size (int_range 1 4) write)) ]))

let print_patch_history steps =
  let op (c, a, b) = Printf.sprintf "%d:%d:%d" c a b in
  String.concat " "
    (List.map
       (function
         | Write w -> op w
         | Failing ws -> "fail[" ^ String.concat " " (List.map op ws) ^ "]")
       steps)

let check_patch_history steps =
  let eng = E.Engine.create () in
  run_cmds eng [ patch_schema ];
  let db = E.Engine.database eng in
  let ids = Array.init 5 (fun n -> E.Engine.eval_call eng "Mk" [ E.Value.VInt n ]) in
  let table name = Option.get (E.Database.find_func db (E.Symbol.intern name)) in
  let r = table "r" and f = table "f" and h = table "h" in
  let int n = E.Value.VInt n in
  let canon key = Array.map (E.Database.canon db) key in
  let raw_set t key value =
    ignore (E.Table.set_raw t (canon key) value ~stamp:(E.Database.timestamp db))
  in
  let write (code, a, b) =
    match code with
    | 0 -> raw_set r [| int (a mod 3); ids.(b) |] E.Value.VUnit
    | 1 -> raw_set f [| int (a mod 3) |] (int b)
    | 2 -> E.Database.bump_timestamp db
    | 3 ->
      if b mod 2 = 0 then E.Table.remove f [| int (a mod 3) |]
      else E.Table.remove r (canon [| int (a mod 3); ids.(b) |])
    | 4 ->
      let key = [| int (a mod 3) |] in
      if Option.is_some (E.Table.get f key) then begin
        E.Table.remove f key;
        raw_set f key (int b)
      end
    | 5 -> raw_set h [| ids.(a) |] (int b)
    | _ ->
      ignore (E.Database.union db ids.(a) ids.(b));
      E.Database.rebuild db
  in
  let queries = List.map (E.Compile.compile_query (compile_env db)) patch_queries in
  let compiled = List.map E.Join.compile_plan queries in
  let cache = E.Join.new_cache () in
  let agree () =
    List.for_all2
      (fun q cp ->
        let ranges = Array.make (Array.length q.E.Compile.atoms) E.Join.all_rows in
        let expected = Ref_join.matches_multiset db q ~ranges in
        let fresh = E.Join.new_cache () in
        compiled_multiset_of db ~cache:fresh cp ~ranges = expected
        && compiled_multiset_of db ~cache cp ~ranges = expected)
      queries compiled
  in
  let ok = ref (agree ()) in
  List.iter
    (fun step ->
      (match step with
       | Write w -> write w
       | Failing ws -> (
         (* the cache also marks the tables inside the transaction; the
            rollback must not let those marks patch *)
         try
           E.Engine.with_transaction eng (fun () ->
               List.iter (fun w -> write w; ok := !ok && agree ()) ws;
               failwith "boom")
         with E.Engine.Egglog_error _ -> ()));
      ok := !ok && agree ())
    steps;
  !ok

let prop_patch_differential =
  QCheck2.Test.make
    ~name:"patching: a long-lived join cache follows any history"
    ~count:500 ~print:print_patch_history gen_patch_history check_patch_history

(* The retraction log keeps only the newest [max 16 rows] entries once it
   fills up. A mark further back must read a cut feed, so the structures
   kept at it are rebuilt rather than patched from a partial history; a
   recent mark still patches. *)
let test_trimmed_feed () =
  let eng = E.Engine.create () in
  run_cmds eng [ "(relation r (i64 i64)) (function f (i64) i64 :merge (max old new))" ];
  let db = E.Engine.database eng in
  let table name = Option.get (E.Database.find_func db (E.Symbol.intern name)) in
  let r = table "r" and f = table "f" in
  let int n = E.Value.VInt n in
  let set_f v = ignore (E.Table.set_raw f [| int 1 |] (int v) ~stamp:(E.Database.timestamp db)) in
  List.iter (fun (a, b) -> ignore (E.Table.set_raw r [| int a; int b |] E.Value.VUnit ~stamp:0))
    [ (1, 1); (2, 2) ];
  set_f 0;
  let q =
    E.Compile.compile_query (compile_env db)
      [
        E.Ast.Holds (E.Ast.Call ("r", [ E.Ast.Var "x"; E.Ast.Var "y" ]));
        E.Ast.Eq (E.Ast.Call ("f", [ E.Ast.Var "x" ]), E.Ast.Var "z");
      ]
  in
  (* a third atom sends the same f atom through the trie join *)
  let q3 =
    E.Compile.compile_query (compile_env db)
      [
        E.Ast.Holds (E.Ast.Call ("r", [ E.Ast.Var "x"; E.Ast.Var "y" ]));
        E.Ast.Eq (E.Ast.Call ("f", [ E.Ast.Var "x" ]), E.Ast.Var "z");
        E.Ast.Holds (E.Ast.Call ("r", [ E.Ast.Var "y"; E.Ast.Var "w" ]));
      ]
  in
  let cache = E.Join.new_cache () in
  let agree () =
    let check name q =
      let ranges = Array.make (Array.length q.E.Compile.atoms) E.Join.all_rows in
      Alcotest.(check (list string))
        name
        (Ref_join.matches_multiset db q ~ranges)
        (compiled_multiset db ~cache q ~ranges)
    in
    check "two-atom join" q;
    check "trie join" q3
  in
  agree ();
  let old = E.Table.mark f in
  (* 40 overwrites of f's one row: far more retractions than rows *)
  for v = 1 to 40 do
    set_f v
  done;
  Alcotest.(check bool) "a mark 40 retractions back reads a cut feed" true
    (E.Table.changes_since f old = None);
  agree ();
  let recent = E.Table.mark f in
  set_f 41;
  (match E.Table.changes_since f recent with
   | Some [| { E.Table.retracted = Some (E.Value.VInt 40); current = Some row; _ } |] ->
     Alcotest.(check bool) "the current version" true (E.Value.equal row.value (int 41))
   | Some _ | None -> Alcotest.fail "a recent mark sees one overwrite");
  agree ()

(* Regression for the cache-key representation: two distinct tables for
   one function (here, in two engines built separately) can reach the same
   version counter with different contents. A key that identified tables
   by name+version — as the old concatenated-string key did — would serve
   the first table's index for the second and return stale rows; the
   structured key carries Table.uid, so each table gets its own entry. *)
let test_cache_key_incarnations () =
  let build last =
    let eng = E.Engine.create () in
    ignore (E.run_string eng "(relation r (i64 i64)) (relation s (i64 i64))");
    let set tbl a b = E.Engine.set_fact eng tbl [ E.Value.VInt a; E.Value.VInt b ] E.Value.VUnit in
    set "r" 1 2;
    set "s" 2 3;
    set "s" 2 last;
    E.Engine.database eng
  in
  (* incarnation 1: s reaches version 2 with rows {(2,3),(2,4)} and the
     shared cache builds its structures against it *)
  let db1 = build 4 and db2 = build 5 in
  let q =
    E.Compile.compile_query (compile_env db1)
      [
        E.Ast.Holds (E.Ast.Call ("r", [ E.Ast.Var "x"; E.Ast.Var "y" ]));
        E.Ast.Holds (E.Ast.Call ("s", [ E.Ast.Var "y"; E.Ast.Var "z" ]));
      ]
  in
  (* a third atom sends the same s atom through the trie join *)
  let q3 =
    E.Compile.compile_query (compile_env db1)
      [
        E.Ast.Holds (E.Ast.Call ("r", [ E.Ast.Var "x"; E.Ast.Var "y" ]));
        E.Ast.Holds (E.Ast.Call ("s", [ E.Ast.Var "y"; E.Ast.Var "z" ]));
        E.Ast.Holds (E.Ast.Call ("r", [ E.Ast.Var "x"; E.Ast.Var "w" ]));
      ]
  in
  let ranges = [| E.Join.all_rows; E.Join.all_rows |] in
  let ranges3 = Array.make 3 E.Join.all_rows in
  let s_of db =
    match E.Database.find_func db (E.Symbol.intern "s") with
    | Some t -> t
    | None -> Alcotest.fail "no table s"
  in
  Alcotest.(check int) "both tables at one version" (E.Table.version (s_of db1))
    (E.Table.version (s_of db2));
  let cache = E.Join.new_cache () in
  let expect1 = Ref_join.matches_multiset db1 q ~ranges in
  Alcotest.(check int) "incarnation 1 has two matches" 2 (List.length expect1);
  Alcotest.(check (list string))
    "incarnation 1, two-atom join" expect1 (compiled_multiset db1 ~cache q ~ranges);
  Alcotest.(check (list string))
    "incarnation 1, trie join"
    (Ref_join.matches_multiset db1 q3 ~ranges:ranges3)
    (compiled_multiset db1 ~cache q3 ~ranges:ranges3);
  (* incarnation 2: the other engine's s, rows {(2,3),(2,5)} — the same
     cache must not resurrect incarnation 1 *)
  let expect2 = Ref_join.matches_multiset db2 q ~ranges in
  Alcotest.(check int) "incarnation 2 has two matches" 2 (List.length expect2);
  Alcotest.(check bool) "incarnations differ" true (expect1 <> expect2);
  Alcotest.(check (list string))
    "incarnation 2, two-atom join" expect2 (compiled_multiset db2 ~cache q ~ranges);
  Alcotest.(check (list string))
    "incarnation 2, trie join"
    (Ref_join.matches_multiset db2 q3 ~ranges:ranges3)
    (compiled_multiset db2 ~cache q3 ~ranges:ranges3)

(* Companion regression: constants containing the old key format's
   delimiter characters must still produce distinct cache entries for
   distinct atoms sharing one cache. *)
let test_cache_key_structured_consts () =
  let eng = E.Engine.create () in
  ignore (E.run_string eng "(relation g (String i64)) (relation h (i64))");
  let db = E.Engine.database eng in
  ignore
    (E.run_string eng
       {| (g "a;1=b" 1) (g "a" 2) (h 1) (h 2) |});
  let query const =
    E.Compile.compile_query (compile_env db)
      [
        E.Ast.Holds
          (E.Ast.Call ("g", [ E.Ast.Lit (E.Value.VStr (E.Symbol.intern const)); E.Ast.Var "x" ]));
        E.Ast.Holds (E.Ast.Call ("h", [ E.Ast.Var "x" ]));
      ]
  in
  let ranges = [| E.Join.all_rows; E.Join.all_rows |] in
  let cache = E.Join.new_cache () in
  Alcotest.(check (list string))
    "quoted const" [ "1" ]
    (compiled_multiset db ~cache (query "a;1=b") ~ranges);
  Alcotest.(check (list string)) "plain const" [ "2" ] (compiled_multiset db ~cache (query "a") ~ranges);
  (* answered from the now-warm cache *)
  Alcotest.(check (list string)) "quoted const again" [ "1" ]
    (compiled_multiset db ~cache (query "a;1=b") ~ranges)

let () =
  Printf.printf "property-test seed: %d (override with EGGLOG_TEST_SEED=<n>)\n%!" test_seed;
  try
    Alcotest.run ~and_exit:false "engine-props"
    [
      ( "planner",
        [
          Alcotest.test_case "cartesian product" `Quick test_planner_handles_cartesian;
          Alcotest.test_case "triangle query" `Quick test_planner_shared_var_chain;
          Alcotest.test_case "nonlinear self join" `Quick test_self_join_nonlinear;
          Alcotest.test_case "cache key distinguishes incarnations" `Quick
            test_cache_key_incarnations;
          Alcotest.test_case "cache key structured constants" `Quick
            test_cache_key_structured_consts;
        ] );
      ( "differential",
        List.map to_alcotest
          [
            prop_diff_full_ranges;
            prop_diff_delta_ranges;
            prop_jobs_differential;
            prop_jobs_differential_limits;
            prop_rollback_differential;
            prop_table_rollback;
            prop_patch_differential;
          ] );
      ( "change feed",
        [ Alcotest.test_case "a trimmed feed rebuilds" `Quick test_trimmed_feed ] );
      ( "stamp log",
        [
          Alcotest.test_case "a re-insert walks at its new entry" `Quick
            test_reinsert_walks_new_entry;
        ] );
      ( "scheduling",
        [ Alcotest.test_case "backoff unbans" `Quick test_backoff_unbans ] );
      ( "primitives",
        [
          Alcotest.test_case "i64 algebra" `Quick test_i64_primitive_algebra;
          Alcotest.test_case "rational algebra" `Quick test_rational_algebra;
        ] );
      ( "properties",
        List.map to_alcotest
          [
            prop_extraction_sound_and_consistent;
            prop_push_pop_nesting;
            prop_run_is_idempotent_at_fixpoint;
          ] );
    ]
  with e ->
    Printf.eprintf "\nproperty failure: reproduce with EGGLOG_TEST_SEED=%d\n%!" test_seed;
    raise e
