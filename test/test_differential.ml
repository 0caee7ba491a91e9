(* Differential testing: the same computation run through independent
   implementations must agree.

   - generic join (with its single-atom / two-atom fast paths and caches)
     vs. brute-force query evaluation;
   - the egglog engine vs. the Soufflé-style minidatalog on pure Datalog;
   - the egglog engine vs. the egg-style e-graph on random rewriting;
   - database invariants (canonical keys, functional dependency, rebuild
     idempotence) after random workloads. *)

module E = Egglog

(* ------------------------------------------------------------------ *)
(* Generic join vs brute force                                         *)
(* ------------------------------------------------------------------ *)

let domain = 6

(* A random database over relations r1(i64), r2(i64 i64), r3(i64 i64 i64). *)
let random_db rand =
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng "(relation r1 (i64)) (relation r2 (i64 i64)) (relation r3 (i64 i64 i64))");
  let v () = E.Value.VInt (Random.State.int rand domain) in
  for _ = 1 to 4 do
    E.Engine.set_fact eng "r1" [ v () ] E.Value.VUnit
  done;
  for _ = 1 to 10 do
    E.Engine.set_fact eng "r2" [ v (); v () ] E.Value.VUnit
  done;
  for _ = 1 to 12 do
    E.Engine.set_fact eng "r3" [ v (); v (); v () ] E.Value.VUnit
  done;
  eng

let var_pool = [ "a"; "b"; "c"; "d" ]

let random_query rand : E.Ast.fact list * string list =
  let used = ref [] in
  let term () =
    if Random.State.int rand 4 = 0 then E.Ast.Lit (E.Value.VInt (Random.State.int rand domain))
    else begin
      let x = List.nth var_pool (Random.State.int rand (List.length var_pool)) in
      if not (List.mem x !used) then used := x :: !used;
      E.Ast.Var x
    end
  in
  let atom () =
    match Random.State.int rand 3 with
    | 0 -> E.Ast.Holds (E.Ast.Call ("r1", [ term () ]))
    | 1 -> E.Ast.Holds (E.Ast.Call ("r2", [ term (); term () ]))
    | _ -> E.Ast.Holds (E.Ast.Call ("r3", [ term (); term (); term () ]))
  in
  let n_atoms = 1 + Random.State.int rand 3 in
  let atoms = List.init n_atoms (fun _ -> atom ()) in
  (* a guard over variables the atoms bound *)
  let guards =
    if !used = [] || Random.State.int rand 2 = 0 then []
    else begin
      let x = List.nth !used (Random.State.int rand (List.length !used)) in
      let y = List.nth !used (Random.State.int rand (List.length !used)) in
      let op = if Random.State.bool rand then "<" else "!=" in
      [ E.Ast.Holds (E.Ast.Call (op, [ E.Ast.Var x; E.Ast.Var y ])) ]
    end
  in
  (atoms @ guards, List.sort compare !used)

(* Brute force: try every assignment of the query variables. *)
let brute_force eng (facts : E.Ast.fact list) (vars : string list) : string list =
  let db = E.Engine.database eng in
  let rec eval env (e : E.Ast.expr) : E.Value.t option =
    match e with
    | E.Ast.Lit v -> Some v
    | E.Ast.Var x -> Some (E.Value.VInt (List.assoc x env))
    | E.Ast.Call (f, args) -> (
      let vals = List.map (eval env) args in
      if List.exists Option.is_none vals then None
      else begin
        let vals = Array.of_list (List.map Option.get vals) in
        match E.Database.find_func db (E.Symbol.intern f) with
        | Some table -> E.Database.lookup db table vals
        | None -> (
          match E.Primitives.find f with
          | Some p -> p.E.Primitives.impl vals
          | None -> None)
      end)
  in
  let holds env fact =
    match fact with
    | E.Ast.Eq (e1, e2) -> (
      match (eval env e1, eval env e2) with
      | Some v1, Some v2 -> E.Value.equal v1 v2
      | _ -> false)
    | E.Ast.Holds e -> eval env e <> None
  in
  let results = ref [] in
  let rec assign env = function
    | [] ->
      if List.for_all (holds env) facts then
        results :=
          String.concat ","
            (List.map (fun (x, v) -> Printf.sprintf "%s=%d" x v) (List.sort compare env))
          :: !results
    | x :: rest ->
      for v = 0 to domain - 1 do
        assign ((x, v) :: env) rest
      done
  in
  assign [] vars;
  List.sort compare !results

let join_results eng (facts : E.Ast.fact list) (vars : string list) : string list =
  let db = E.Engine.database eng in
  let env =
    {
      E.Compile.find_func =
        (fun name ->
          match E.Database.find_func db (E.Symbol.intern name) with
          | Some t -> Some (E.Table.func t)
          | None -> None);
    }
  in
  match E.Compile.compile_query env facts with
  | exception E.Compile.Unsat -> []
  | q ->
    let acc = ref [] in
    let name_slot name =
      let rec find i = if q.E.Compile.var_names.(i) = name then i else find (i + 1) in
      find 0
    in
    (* user variables may live under an alias after equality resolution *)
    let slot_of name =
      match List.assoc_opt name q.E.Compile.name_args with
      | Some (E.Compile.A_var v) -> `Slot v
      | Some (E.Compile.A_const c) -> `Const c
      | None -> `Slot (name_slot name)
    in
    let ranges = Array.make (Array.length q.E.Compile.atoms) E.Join.all_rows in
    E.Join.search_compiled db (E.Join.compile_plan q) ~ranges (fun binding ->
        let line =
          String.concat ","
            (List.map
               (fun x ->
                 let v =
                   match slot_of x with `Slot s -> binding.(s) | `Const c -> c
                 in
                 match v with
                 | E.Value.VInt i -> Printf.sprintf "%s=%d" x i
                 | other -> Printf.sprintf "%s=%s" x (E.Value.to_string other))
               vars)
        in
        acc := line :: !acc);
    List.sort_uniq compare !acc

let prop_join_matches_brute_force =
  QCheck2.Test.make ~name:"generic join = brute force on random queries" ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let eng = random_db rand in
      let facts, vars = random_query rand in
      match join_results eng facts vars with
      | exception E.Compile.Error _ -> QCheck2.assume_fail ()
      | got ->
        let want = List.sort_uniq compare (brute_force eng facts vars) in
        if got <> want then
          QCheck2.Test.fail_reportf "query %s:@.got  %s@.want %s"
            (String.concat " " (List.map (Format.asprintf "%a" E.Ast.pp_fact) facts))
            (String.concat ";" got) (String.concat ";" want)
        else true)

(* ------------------------------------------------------------------ *)
(* egglog vs minidatalog on pure Datalog                               *)
(* ------------------------------------------------------------------ *)

let tc_with_engines edges =
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       {|
      (relation edge (i64 i64))
      (relation path (i64 i64))
      (relation same_gen (i64 i64))
      (rule ((edge x y)) ((path x y)))
      (rule ((path x y) (edge y z)) ((path x z)))
      (rule ((edge p x) (edge p y)) ((same_gen x y)))
      (rule ((same_gen x y) (edge x a) (edge y b)) ((same_gen a b)))
    |});
  List.iter
    (fun (a, b) ->
      E.Engine.set_fact eng "edge" [ E.Value.VInt a; E.Value.VInt b ] E.Value.VUnit)
    edges;
  ignore (E.Engine.run_iterations eng 100);
  let d = Minidatalog.create () in
  let edge = Minidatalog.relation d "edge" 2 in
  let path = Minidatalog.relation d "path" 2 in
  let same_gen = Minidatalog.relation d "same_gen" 2 in
  let v x = Minidatalog.V x in
  Minidatalog.rule d ~head:(path, [| v "x"; v "y" |]) ~body:[ Minidatalog.Atom (edge, [| v "x"; v "y" |]) ];
  Minidatalog.rule d
    ~head:(path, [| v "x"; v "z" |])
    ~body:[ Minidatalog.Atom (path, [| v "x"; v "y" |]); Minidatalog.Atom (edge, [| v "y"; v "z" |]) ];
  Minidatalog.rule d
    ~head:(same_gen, [| v "x"; v "y" |])
    ~body:[ Minidatalog.Atom (edge, [| v "p"; v "x" |]); Minidatalog.Atom (edge, [| v "p"; v "y" |]) ];
  Minidatalog.rule d
    ~head:(same_gen, [| v "a"; v "b" |])
    ~body:
      [
        Minidatalog.Atom (same_gen, [| v "x"; v "y" |]);
        Minidatalog.Atom (edge, [| v "x"; v "a" |]);
        Minidatalog.Atom (edge, [| v "y"; v "b" |]);
      ];
  List.iter (fun (a, b) -> Minidatalog.fact d edge [| a; b |]) edges;
  ignore (Minidatalog.run d ());
  ( (E.Engine.table_size eng "path", E.Engine.table_size eng "same_gen"),
    (Minidatalog.size d path, Minidatalog.size d same_gen) )

let prop_egglog_matches_minidatalog =
  QCheck2.Test.make ~name:"egglog = minidatalog on Datalog programs" ~count:60
    QCheck2.Gen.(list_size (int_range 0 18) (pair (int_range 0 7) (int_range 0 7)))
    (fun edges ->
      let egglog_sizes, datalog_sizes = tc_with_engines edges in
      egglog_sizes = datalog_sizes)

(* ------------------------------------------------------------------ *)
(* egglog vs the egg-style e-graph on random rewriting                 *)
(* ------------------------------------------------------------------ *)

let all_math_rules = Math_suite.rules

let prop_egglog_matches_egraph =
  QCheck2.Test.make ~name:"egglog(NI) = egg on random seeds/rules" ~count:40
    QCheck2.Gen.(
      pair (int_bound 1_000_000) (list_size (int_range 2 6) (int_bound (List.length all_math_rules - 1))))
    (fun (seed, rule_idxs) ->
      let rand = Random.State.make [| seed |] in
      let rules = List.sort_uniq compare rule_idxs |> List.map (List.nth all_math_rules) in
      (* a couple of random seed terms from the suite *)
      let seeds =
        List.filteri (fun i _ -> (i + seed) mod 3 = 0) Math_suite.seeds
        |> fun l -> if l = [] then [ List.hd Math_suite.seeds ] else l
      in
      ignore rand;
      let eg = Egraph.create () in
      List.iter (fun s -> ignore (Egraph.add_term eg (Egraph.term_of_string s))) seeds;
      let rws =
        List.map (fun (name, lhs, rhs) -> Egraph.rewrite_of_strings ~name lhs rhs) rules
      in
      ignore (Egraph.run eg rws 4);
      let eng = E.Engine.create ~seminaive:false () in
      ignore (E.run_string eng Math_suite.egglog_prelude);
      List.iter
        (fun (name, lhs, rhs) ->
          ignore name;
          ignore
            (E.run_string eng
               (Printf.sprintf "(rewrite %s %s)"
                  (Math_suite.to_egglog (Sexpr.parse_one lhs))
                  (Math_suite.to_egglog (Sexpr.parse_one rhs)))))
        rules;
      List.iteri
        (fun i s ->
          ignore
            (E.run_string eng
               (Printf.sprintf "(define s%d %s)" i (Math_suite.to_egglog (Sexpr.parse_one s)))))
        seeds;
      ignore (E.Engine.run_iterations eng 4);
      let tuples =
        List.fold_left
          (fun acc f -> acc + E.Engine.table_size eng f)
          0
          [ "Num"; "Var"; "Add"; "Sub"; "Mul"; "Div"; "Pow"; "Ln"; "Sqrt"; "Diff"; "Integral" ]
      in
      Egraph.n_nodes eg = tuples && Egraph.n_classes eg = E.Engine.n_classes eng)

(* ------------------------------------------------------------------ *)
(* Database invariants after random workloads                         *)
(* ------------------------------------------------------------------ *)

let check_db_invariants eng =
  let db = E.Engine.database eng in
  let ok = ref true in
  E.Database.iter_tables db (fun table ->
      E.Table.iter
        (fun key row ->
          (* canonical keys and values *)
          let canon_key = E.Database.canon_key db key in
          if not (Array.for_all2 E.Value.equal key canon_key) then ok := false;
          if not (E.Value.equal row.E.Table.value (E.Database.canon db row.E.Table.value)) then
            ok := false)
        table);
  (* rebuild must be a no-op on a rebuilt database *)
  let changes = E.Database.change_counter db in
  let rows = E.Database.total_rows db in
  E.Database.rebuild db;
  if E.Database.change_counter db <> changes || E.Database.total_rows db <> rows then ok := false;
  !ok

let prop_db_invariants =
  QCheck2.Test.make ~name:"canonical db + idempotent rebuild after random ops" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let eng = E.Engine.create () in
      ignore
        (E.run_string eng
           {|
          (sort V)
          (function mk (i64) V)
          (function f (V V) V)
          (function measure (V) i64 :merge (max old new))
        |});
      let nodes = ref [] in
      for i = 0 to 9 do
        nodes := E.Engine.eval_call eng "mk" [ E.Value.VInt i ] :: !nodes
      done;
      let pick () = List.nth !nodes (Random.State.int rand (List.length !nodes)) in
      for _ = 1 to 40 do
        match Random.State.int rand 4 with
        | 0 -> nodes := E.Engine.eval_call eng "f" [ pick (); pick () ] :: !nodes
        | 1 -> ignore (E.Engine.union_values eng (pick ()) (pick ()))
        | 2 -> E.Engine.set_fact eng "measure" [ pick () ] (E.Value.VInt (Random.State.int rand 100))
        | _ -> E.Engine.rebuild eng
      done;
      E.Engine.rebuild eng;
      check_db_invariants eng)

let prop_congruence_vs_egraph =
  (* random unions over a term universe: the engine's rebuild and the
     e-graph's congruence closure must induce the same partition sizes *)
  QCheck2.Test.make ~name:"congruence closure = egraph on random unions" ~count:60
    QCheck2.Gen.(list_size (int_range 0 15) (pair (int_bound 9) (int_bound 9)))
    (fun unions ->
      let eng = E.Engine.create () in
      ignore (E.run_string eng "(sort V) (function mk (i64) V) (function g (V) V)");
      let base = Array.init 5 (fun i -> E.Engine.eval_call eng "mk" [ E.Value.VInt i ]) in
      let eg2 = Egraph.create () in
      let mk i = Egraph.add_term eg2 (Egraph.term_of_string (Printf.sprintf "(mk %d)" i)) in
      let base2 = Array.init 5 mk in
      let g2 = Array.map (fun b -> Egraph.add_node eg2 (Egraph.Op "g") [ b ]) base2 in
      let eg_univ = Array.append base2 g2 in
      let egg_univ =
        Array.append base (Array.map (fun v -> E.Engine.eval_call eng "g" [ v ]) base)
      in
      List.iter
        (fun (a, b) ->
          ignore (Egraph.union eg2 eg_univ.(a) eg_univ.(b));
          ignore (E.Engine.union_values eng egg_univ.(a) egg_univ.(b)))
        unions;
      Egraph.rebuild eg2;
      E.Engine.rebuild eng;
      (* compare the partitions over the universe *)
      let partition_sig find univ =
        let reps = Array.map find univ in
        let canon = Hashtbl.create 16 in
        Array.iter
          (fun r -> if not (Hashtbl.mem canon r) then Hashtbl.add canon r (Hashtbl.length canon))
          reps;
        Array.to_list (Array.map (Hashtbl.find canon) reps)
      in
      let egg_sig =
        partition_sig
          (fun v -> E.Value.to_string (E.Database.canon (E.Engine.database eng) v))
          egg_univ
      in
      let eg_sig = partition_sig (fun id -> string_of_int (Egraph.find eg2 id)) eg_univ in
      egg_sig = eg_sig)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_join_matches_brute_force;
        prop_egglog_matches_minidatalog;
        prop_egglog_matches_egraph;
        prop_db_invariants;
        prop_congruence_vs_egraph;
      ]
  in
  Alcotest.run "differential" [ ("properties", props) ]
