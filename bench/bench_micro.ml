(* Bechamel micro-benchmarks for the engine's hot paths: union-find,
   congruence rebuilding, relational e-matching vs backtracking e-matching
   (the §5.1 query-engine claim), transaction overhead, derived structures
   after a rebuild, and the bignum substrate. *)

open Bechamel
open Toolkit

let uf_bench () =
  let n = 4096 in
  Staged.stage (fun () ->
      let uf = Union_find.create () in
      let ids = Array.init n (fun _ -> Union_find.make_set uf) in
      for i = 0 to n - 2 do
        ignore (Union_find.union uf ids.(i) ids.(i + 1))
      done;
      for i = 0 to n - 1 do
        ignore (Union_find.find uf ids.(i))
      done)

(* Congruence closure via rebuild: chain of f-applications, then union the
   two ends and canonicalize. *)
let rebuild_bench () =
  Staged.stage (fun () ->
      let eng = Egglog.Engine.create () in
      ignore
        (Egglog.run_string eng
           {| (sort V) (function f (V) V) (function x () V) (function y () V) |});
      let fx = ref (Egglog.Engine.eval_call eng "x" []) in
      let fy = ref (Egglog.Engine.eval_call eng "y" []) in
      for _ = 1 to 64 do
        fx := Egglog.Engine.eval_call eng "f" [ !fx ];
        fy := Egglog.Engine.eval_call eng "f" [ !fy ]
      done;
      ignore
        (Egglog.Engine.union_values eng
           (Egglog.Engine.eval_call eng "x" [])
           (Egglog.Engine.eval_call eng "y" []));
      Egglog.Engine.rebuild eng)

(* Prepared e-graphs for the matching comparison. *)
let prepared_egglog () =
  let eng = Egglog.Engine.create ~scheduler:Egglog.Engine.backoff_default () in
  ignore (Egglog.run_string eng (Math_suite.egglog_program ()));
  ignore (Egglog.Engine.run_iterations eng 8);
  eng

let prepared_egg () =
  let eg = Egraph.create () in
  List.iter (fun term -> ignore (Egraph.add_term eg term)) (Math_suite.egg_seed_terms ());
  ignore (Egraph.run eg ~scheduler:Egraph.backoff_default (Math_suite.egg_rewrites ()) 8);
  eg

let relational_ematch_bench () =
  let eng = prepared_egglog () in
  let facts =
    [ Egglog.Ast.Eq
        ( Egglog.Ast.Var "root",
          Egglog.Ast.Call ("Mul", [ Egglog.Ast.Var "a"; Egglog.Ast.Call ("Add", [ Egglog.Ast.Var "b"; Egglog.Ast.Var "c" ]) ]) ) ]
  in
  Staged.stage (fun () -> ignore (Egglog.Engine.check_facts eng facts))

let backtracking_ematch_bench () =
  let eg = prepared_egg () in
  let pat = Egraph.pattern_of_string "(* ?a (+ ?b ?c))" in
  Staged.stage (fun () -> ignore (Egraph.ematch eg pat))

(* The join kernel in isolation: one 3-atom triangle join over a fixed
   edge relation on a warm structure cache — so it measures the per-tuple
   binding loop, not trie construction. *)
let triangle_query () =
  let eng = Egglog.Engine.create () in
  ignore (Egglog.run_string eng "(relation e (i64 i64))");
  let n = 150 in
  for i = 0 to n - 1 do
    Egglog.Engine.set_fact eng "e"
      [ Egglog.Value.VInt i; Egglog.Value.VInt ((i + 1) mod n) ]
      Egglog.Value.VUnit;
    Egglog.Engine.set_fact eng "e"
      [ Egglog.Value.VInt i; Egglog.Value.VInt (i * 7 mod n) ]
      Egglog.Value.VUnit
  done;
  let db = Egglog.Engine.database eng in
  let env =
    {
      Egglog.Compile.find_func =
        (fun name ->
          Option.map Egglog.Table.func (Egglog.Database.find_func db (Egglog.Symbol.intern name)));
    }
  in
  let v s = Egglog.Ast.Var s in
  let atom a b = Egglog.Ast.Holds (Egglog.Ast.Call ("e", [ v a; v b ])) in
  let q = Egglog.Compile.compile_query env [ atom "x" "y"; atom "y" "z"; atom "z" "x" ] in
  (db, q)

let join_triangle_bench () =
  let db, q = triangle_query () in
  let ranges = Array.make 3 Egglog.Join.all_rows in
  let cache = Egglog.Join.new_cache () in
  let cp = Egglog.Join.compile_plan q in
  Egglog.Join.search_compiled db ~cache cp ~ranges (fun _ -> ());
  Staged.stage (fun () -> Egglog.Join.search_compiled db ~cache cp ~ranges (fun _ -> ()))

(* Transaction cost on a ~4k-row database: the saturated points-to
   analysis of a generated 200-instruction program. [txn.empty] is a no-op
   [with_transaction]; [txn.fact_command] runs one fact command through
   [run_command], an allocation of a variable the program never mentions,
   so every run inserts one new row (and nothing derives from it until
   the next run, which never comes). *)
let txn_engine () =
  let p = Pointsto.Progen.generate ~size:200 ~seed:1 () in
  let eng, _report = Pointsto.Egglog_enc.analyze p in
  (eng, p.Pointsto.Ir.n_vars)

let txn_empty_bench () =
  let eng, _ = txn_engine () in
  Staged.stage (fun () -> Egglog.Engine.with_transaction eng ignore)

let txn_fact_command_bench () =
  let eng, n_vars = txn_engine () in
  let next = ref n_vars in
  Staged.stage (fun () ->
      incr next;
      let lit n = Egglog.Ast.Lit (Egglog.Value.VInt n) in
      let fact = Egglog.Ast.Call ("allocI", [ lit !next; lit 0 ]) in
      ignore (Egglog.Engine.run_command eng (Egglog.Ast.Top_action (Egglog.Ast.Do fact))))

(* Scope cost on the ~4k-row engine above and on a ~40k-row one (a
   2000-instruction program). [scope.push_pop] runs [(push)], the fact
   command of [txn.fact_command] and [(pop)] through [run_command];
   [scope.simplify] runs [(simplify 2 (siteAlloc 0))]. Both leave the
   engine as they found it, so every run does the same work. A scope costs
   what it writes, so a 40k row should stay close to its 4k row. *)
let scope_engine size =
  let p = Pointsto.Progen.generate ~size ~seed:1 () in
  let eng, _report = Pointsto.Egglog_enc.analyze p in
  (eng, p.Pointsto.Ir.n_vars)

let scope_push_pop_bench (eng, n_vars) =
  let lit n = Egglog.Ast.Lit (Egglog.Value.VInt n) in
  let fact = Egglog.Ast.Call ("allocI", [ lit (n_vars + 1); lit 0 ]) in
  let cmds = Egglog.Ast.[ Push; Top_action (Do fact); Pop ] in
  Staged.stage (fun () -> List.iter (fun c -> ignore (Egglog.Engine.run_command eng c)) cmds)

let scope_simplify_bench (eng, _) =
  let cmd =
    Egglog.Ast.Simplify (2, Egglog.Ast.Call ("siteAlloc", [ Egglog.Ast.Lit (Egglog.Value.VInt 0) ]))
  in
  Staged.stage (fun () -> ignore (Egglog.Engine.run_command eng cmd))

(* A derived structure after a small rebuild, on a 40k-row table with an
   id column. Each run unions the id that the previous run gave four rows
   into id 0, so the rebuild takes those four rows out and re-inserts them
   under id 0 (where they already exist), gives four rows a fresh id for
   the next run, and then asks for the full-table index a two-atom search
   probes, which follows the table from the change feed the rebuild
   left. *)
let rebuild_churn () =
  let open Egglog in
  let eng = Engine.create () in
  ignore (run_string eng "(datatype N (Mk i64)) (relation edge (i64 N)) (relation probe (i64))");
  let db = Engine.database eng in
  let sort = Symbol.intern "N" in
  let ids = Array.init 1000 (fun _ -> Database.fresh_id db sort) in
  let edge = Option.get (Database.find_func db (Symbol.intern "edge")) in
  for i = 0 to 39_999 do
    Database.set db edge [| Value.VInt i; ids.(i mod 1000) |] Value.VUnit
  done;
  for i = 0 to 9 do
    Engine.set_fact eng "probe" [ Value.VInt (i * 1000) ] Value.VUnit
  done;
  let keys = [| 0; 1000; 2000; 3000 |] in
  let marked = ref (Database.fresh_id db sort) in
  let give_fresh_id () =
    marked := Database.fresh_id db sort;
    Array.iter (fun k -> Database.set db edge [| Value.VInt k; !marked |] Value.VUnit) keys
  in
  give_fresh_id ();
  let churn () =
    ignore (Database.union db ids.(0) !marked);
    Database.rebuild db;
    give_fresh_id ()
  in
  (db, churn)

let patch_after_rebuild_bench () =
  let db, churn = rebuild_churn () in
  let env =
    {
      Egglog.Compile.find_func =
        (fun name ->
          Option.map Egglog.Table.func (Egglog.Database.find_func db (Egglog.Symbol.intern name)));
    }
  in
  let v s = Egglog.Ast.Var s in
  let q =
    Egglog.Compile.compile_query env
      [
        Egglog.Ast.Holds (Egglog.Ast.Call ("probe", [ v "i" ]));
        Egglog.Ast.Holds (Egglog.Ast.Call ("edge", [ v "i"; v "n" ]));
      ]
  in
  let cp = Egglog.Join.compile_plan q in
  let ranges = Array.make 2 Egglog.Join.all_rows in
  let cache = Egglog.Join.new_cache () in
  Egglog.Join.search_compiled db ~cache cp ~ranges (fun _ -> ());
  Staged.stage (fun () ->
      churn ();
      Egglog.Join.search_compiled db ~cache cp ~ranges (fun _ -> ()))

let bigint_bench () =
  let a = Bigint.of_string "123456789123456789123456789123456789" in
  let b = Bigint.of_string "987654321987654321987654321" in
  Staged.stage (fun () ->
      let p = Bigint.mul a b in
      ignore (Bigint.divmod p b))

let rat_bench () =
  let a = Rat.of_ints 355 113 and b = Rat.of_ints 22 7 in
  Staged.stage (fun () -> ignore (Rat.add (Rat.mul a b) (Rat.div a b)))

(* Interval-bound arithmetic as Herbie's analyses do it: operands from
   [Rat.of_float], so denominators are powers of two and products reach
   2-8 limbs, through the multi-limb gcd and division paths. *)
let rat_interval_mixed_bench () =
  let xs = Array.map Rat.of_float [| 0.1; 1e-7; 3.3e5; -2.75; 0.3333333333333333; -1e-3 |] in
  let n = Array.length xs in
  Staged.stage (fun () ->
      for i = 0 to n - 1 do
        let a = xs.(i) and b = xs.((i + 1) mod n) in
        let p = Rat.mul a b in
        let s = Rat.add p (Rat.mul b b) in
        ignore (Rat.compare s (Rat.max a p))
      done)

let tests () =
  let small = scope_engine 200 and large = scope_engine 2000 in
  Test.make_grouped ~name:"micro" ~fmt:"%s/%s"
    [
      Test.make ~name:"union-find-4k" (uf_bench ());
      Test.make ~name:"congruence-rebuild-128" (rebuild_bench ());
      Test.make ~name:"ematch-relational" (relational_ematch_bench ());
      Test.make ~name:"ematch-backtracking" (backtracking_ematch_bench ());
      Test.make ~name:"join-triangle-compiled" (join_triangle_bench ());
      Test.make ~name:"txn.empty" (txn_empty_bench ());
      Test.make ~name:"txn.fact_command" (txn_fact_command_bench ());
      Test.make ~name:"scope.push_pop" (scope_push_pop_bench small);
      Test.make ~name:"scope.push_pop_40k" (scope_push_pop_bench large);
      Test.make ~name:"scope.simplify" (scope_simplify_bench small);
      Test.make ~name:"scope.simplify_40k" (scope_simplify_bench large);
      Test.make ~name:"join.patch_after_rebuild" (patch_after_rebuild_bench ());
      Test.make ~name:"bigint-mul-divmod" (bigint_bench ());
      Test.make ~name:"rat-arith" (rat_bench ());
      Test.make ~name:"rat.interval_mixed" (rat_interval_mixed_bench ());
    ]

let run ?(quota = 0.5) () =
  Printf.printf "=== Micro-benchmarks (bechamel, ns/run) ===\n%!";
  (* Telemetry stays OFF here on purpose: these numbers are the baseline for
     the "disabled telemetry costs nothing" claim, so the measured region
     must exercise the disabled path. *)
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) results [] in
  let rows = List.sort compare rows in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "  %-34s %12.1f ns/run\n" name est
      | _ -> Printf.printf "  %-34s (no estimate)\n" name)
    rows;
  print_newline ()
