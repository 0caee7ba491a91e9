(* End-to-end tests of the egglog engine against the paper's examples
   (Figs. 1, 3, 4) and the semantics of §4 (congruence, rebuilding,
   merge expressions, semi-naïve equivalence). *)

let run = Egglog.run_program_string

let run_ok ?seminaive ?scheduler src =
  try Ok (Egglog.run_program_string ?seminaive ?scheduler src)
  with Egglog.Egglog_error msg -> Error msg

let expect_ok msg src =
  match run_ok src with
  | Ok outputs -> outputs
  | Error e -> Alcotest.failf "%s: unexpected error: %s" msg e

let expect_error msg src =
  match run_ok src with
  | Ok _ -> Alcotest.failf "%s: expected an error" msg
  | Error e -> e

(* ---- Fig. 3a: reachability ---- *)

let test_reachability () =
  let outputs =
    expect_ok "reachability"
      {|
      (relation edge (i64 i64))
      (relation path (i64 i64))
      (rule ((edge x y)) ((path x y)))
      (rule ((path x y) (edge y z)) ((path x z)))
      (edge 1 2) (edge 2 3) (edge 3 4)
      (run)
      (check (path 1 4))
      (fail (check (path 4 1)))
      (print-size path)
    |}
  in
  Alcotest.(check (list string))
    "outputs"
    [ "ran 4 iteration(s) (saturated); 9 tuples, 0 classes"; "check passed";
      "check failed as expected"; "path: 6" ]
    outputs

(* ---- Fig. 3b: shortest path with the min lattice ---- *)

let test_shortest_path () =
  let outputs =
    expect_ok "shortest path"
      {|
      (function edge (i64 i64) i64)
      (function path (i64 i64) i64 :merge (min old new))
      (rule ((= (edge x y) len)) ((set (path x y) len)))
      (rule ((= (path x y) xy) (= (edge y z) yz)) ((set (path x z) (+ xy yz))))
      (set (edge 1 2) 10) (set (edge 2 3) 10) (set (edge 1 3) 30)
      (run)
      (check (path 1 3))
    |}
  in
  Alcotest.(check string) "prints 20" "check passed: 20" (List.nth outputs 1)

(* ---- Fig. 4a: node contraction via unification ---- *)

let test_node_contraction () =
  let outputs =
    expect_ok "node contraction"
      {|
      (sort Node)
      (function mk (i64) Node)
      (relation edge (Node Node))
      (relation path (Node Node))
      (rule ((edge x y)) ((path x y)))
      (rule ((path x y) (edge y z)) ((path x z)))
      (edge (mk 1) (mk 2))
      (edge (mk 2) (mk 3))
      (edge (mk 5) (mk 6))
      (fail (check (path (mk 1) (mk 6))))
      (union (mk 3) (mk 5))
      (run)
      (check (edge (mk 3) (mk 6)))
      (check (path (mk 1) (mk 6)))
    |}
  in
  Alcotest.(check int) "all checks pass" 4 (List.length outputs)

(* ---- Fig. 4b: basic equality saturation ---- *)

let test_basic_eqsat () =
  let outputs =
    expect_ok "basic eqsat"
      {|
      (datatype Math (Num i64) (Var String) (Add Math Math) (Mul Math Math))
      (define expr1 (Mul (Num 2) (Add (Var "x") (Num 3))))
      (define expr2 (Add (Num 6) (Mul (Num 2) (Var "x"))))
      (rewrite (Add a b) (Add b a))
      (rewrite (Mul a (Add b c)) (Add (Mul a b) (Mul a c)))
      (rewrite (Add (Num a) (Num b)) (Num (+ a b)))
      (rewrite (Mul (Num a) (Num b)) (Num (* a b)))
      (run 10)
      (check (= expr1 expr2))
    |}
  in
  Alcotest.(check bool) "proved" true (List.exists (String.equal "check passed") outputs)

(* ---- congruence closure (§3.4, §5.1) ---- *)

let test_congruence () =
  (* f^3(x)=x and f^5(x)=x imply f(x)=x: a classic congruence test *)
  let outputs =
    expect_ok "f3 f5"
      {|
      (sort V)
      (function f (V) V)
      (sort Names)
      (function x () V)
      (union (f (f (f (x)))) (x))
      (union (f (f (f (f (f (x)))))) (x))
      (run 5)
      (check (= (f (x)) (x)))
    |}
  in
  Alcotest.(check bool) "f(x)=x derived" true (List.exists (String.equal "check passed") outputs)

let test_merge_cascade () =
  (* Unioning arguments must cascade through functional dependencies. *)
  let outputs =
    expect_ok "cascade"
      {|
      (sort V)
      (function g (i64) V)
      (function h (V) V)
      (define h1 (h (g 1)))
      (define h2 (h (g 2)))
      (fail (check (= h1 h2)))
      (union (g 1) (g 2))
      (run 1)
      (check (= h1 h2))
    |}
  in
  Alcotest.(check bool) "h(g1)=h(g2)" true (List.exists (String.equal "check passed") outputs)

(* ---- merge expressions beyond lattices ---- *)

let test_merge_expr_max () =
  let outputs =
    expect_ok "max merge"
      {|
      (function best () i64 :merge (max old new))
      (set (best) 3)
      (set (best) 10)
      (set (best) 7)
      (check (best))
    |}
  in
  Alcotest.(check string) "kept max" "check passed: 10" (List.hd outputs)

let test_merge_panic () =
  let err =
    expect_error "no merge on base type"
      {|
      (function f () i64)
      (set (f) 1)
      (set (f) 2)
    |}
  in
  Alcotest.(check bool) "mentions conflict" true
    (String.length err > 0 && String.exists (fun _ -> true) err)

(* ---- defaults: get-or-make-set (§3.3) ---- *)

let test_default_fresh () =
  let eng = Egglog.Engine.create () in
  ignore
    (Egglog.run_string eng {| (sort Node) (function mk (i64) Node) |});
  let v1 = Egglog.Engine.eval_call eng "mk" [ Egglog.Value.VInt 1 ] in
  let v1' = Egglog.Engine.eval_call eng "mk" [ Egglog.Value.VInt 1 ] in
  let v2 = Egglog.Engine.eval_call eng "mk" [ Egglog.Value.VInt 2 ] in
  Alcotest.(check bool) "same input same id" true (Egglog.Value.equal v1 v1');
  Alcotest.(check bool) "distinct inputs distinct ids" false (Egglog.Value.equal v1 v2)

let test_default_expr () =
  let outputs =
    expect_ok "default expr"
      {|
      (function counter (i64) i64 :default 0 :merge (max old new))
      (rule ((= (counter 5) c)) ((set (counter 5) (+ c 1))))
      (counter 5)
      (run 3)
      (check (counter 5))
    |}
  in
  Alcotest.(check string) "incremented to 3" "check passed: 3" (List.nth outputs 1)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_default_panic () =
  let err = expect_error "lookup of base type without default" {|
      (function f (i64) i64)
      (f 3)
    |} in
  Alcotest.(check bool) "error mentions not defined" true (contains_substring err "not defined")

(* ---- primitives ---- *)

let test_primitive_guards () =
  let outputs =
    expect_ok "guards"
      {|
      (relation num (i64))
      (relation big (i64))
      (rule ((num x) (> x 10)) ((big x)))
      (num 5) (num 15) (num 11)
      (run)
      (print-size big)
      (fail (check (big 5)))
      (check (big 15))
    |}
  in
  Alcotest.(check string) "two bigs" "big: 2" (List.nth outputs 1)

let test_primitive_computation_in_query () =
  let outputs =
    expect_ok "computed vars"
      {|
      (relation num (i64))
      (relation double (i64 i64))
      (rule ((num x) (= y (* x 2))) ((double x y)))
      (num 3) (num 4)
      (run)
      (check (double 3 6))
      (check (double 4 8))
      (fail (check (double 3 7)))
    |}
  in
  Alcotest.(check int) "checks" 4 (List.length outputs)

let test_neq_guard () =
  let outputs =
    expect_ok "!= on ids"
      {|
      (sort V)
      (function mk (i64) V)
      (relation distinct (V V))
      (rule ((= a (mk x)) (= b (mk y)) (!= a b)) ((distinct a b)))
      (mk 1) (mk 2)
      (run 2)
      (check (distinct (mk 1) (mk 2)))
      (fail (check (distinct (mk 1) (mk 1))))
    |}
  in
  ignore outputs;
  (* after unioning, the distinct fact involving them must collapse *)
  let outputs2 =
    expect_ok "!= respects union"
      {|
      (sort V)
      (function mk (i64) V)
      (relation r (V))
      (rule ((= a (mk x)) (= b (mk y)) (!= a b)) ((r a)))
      (mk 1)
      (union (mk 1) (mk 2))
      (run 2)
      (print-size r)
    |}
  in
  Alcotest.(check string) "no distinct pair exists" "r: 0" (List.nth outputs2 1)

let test_rational_primitives () =
  let outputs =
    expect_ok "rationals"
      {|
      (function v () Rational :merge (max old new))
      (set (v) 1/3)
      (set (v) 1/4)
      (check (v))
      (function w () Rational :merge (+ old new))
      (set (w) 1/3)
      (set (w) 1/6)
      (check (w))
    |}
  in
  Alcotest.(check string) "max kept 1/3" "check passed: 1/3" (List.nth outputs 0);
  Alcotest.(check string) "sum is 1/2" "check passed: 1/2" (List.nth outputs 1)

(* ---- set containers ---- *)

let test_sets () =
  let outputs =
    expect_ok "sets"
      {|
      (function fv (i64) (Set i64) :merge (set-intersect old new))
      (set (fv 0) (set-insert (set-insert (set-empty) 1) 2))
      (set (fv 0) (set-insert (set-insert (set-empty) 2) 3))
      (rule ((= (fv 0) s) (set-contains s 2)) ((set (fv 1) s)))
      (run)
      (check (= (fv 0) (set-singleton 2)))
      (check (fv 1))
    |}
  in
  Alcotest.(check bool) "intersection" true (List.exists (String.equal "check passed") outputs)

(* ---- checks, push/pop, delete ---- *)

let test_push_pop () =
  let outputs =
    expect_ok "push/pop"
      {|
      (sort V)
      (function mk (i64) V)
      (push)
      (union (mk 1) (mk 2))
      (check (= (mk 1) (mk 2)))
      (pop)
      (fail (check (= (mk 1) (mk 2))))
    |}
  in
  Alcotest.(check int) "both outputs" 2 (List.length outputs)

let test_delete () =
  let outputs =
    expect_ok "delete"
      {|
      (relation r (i64))
      (r 1)
      (check (r 1))
      (delete (r 1))
      (fail (check (r 1)))
    |}
  in
  Alcotest.(check int) "outputs" 2 (List.length outputs)

let test_ground_check_no_insert () =
  (* A failing check must not insert the term it mentions. *)
  let outputs =
    expect_ok "check does not insert"
      {|
      (datatype M (Num i64) (Add M M))
      (define e (Num 1))
      (fail (check (= e (Add (Num 1) (Num 1)))))
      (fail (check (Add (Num 1) (Num 1))))
    |}
  in
  Alcotest.(check int) "outputs" 2 (List.length outputs)

(* ---- static errors ---- *)

let test_type_errors () =
  let e1 = expect_error "arity" {| (relation r (i64)) (rule ((r x y)) ((r x))) |} in
  let e2 = expect_error "type clash" {|
    (relation r (i64))
    (relation s (String))
    (rule ((r x) (s x)) ((r x))) |} in
  let e3 = expect_error "unbound action var" {| (relation r (i64)) (rule ((r x)) ((r y))) |} in
  let e4 = expect_error "unknown function" {| (rule ((nope x)) ((nope x))) |} in
  let e5 = expect_error "union base types" {| (sort V) (rule ((= x 1)) ((union x x))) |} in
  List.iter
    (fun e -> Alcotest.(check bool) "nonempty error" true (String.length e > 0))
    [ e1; e2; e3; e4; e5 ]

let test_unsat_query () =
  let outputs = expect_ok "unsat check fails cleanly" {|
      (relation r (i64))
      (fail (check (= 1 2)))
    |} in
  Alcotest.(check int) "output" 1 (List.length outputs)


let test_rulesets_and_schedules () =
  let outputs =
    expect_ok "rulesets"
      {|
      (ruleset fold)
      (ruleset comm)
      (datatype M (Num i64) (Add M M))
      (rewrite (Add (Num a) (Num b)) (Num (+ a b)) :ruleset fold)
      (rewrite (Add a b) (Add b a) :ruleset comm)
      (define e (Add (Num 1) (Add (Num 2) (Num 3))))
      (run-schedule (saturate (run fold 1)))
      ;; folding alone computed e, but never commuted anything
      (check (= e (Num 6)))
      (fail (check (= (Add (Num 3) (Num 2)) (Num 5))))
      ;; now let commutativity create the flipped terms, then fold them
      (run-schedule (repeat 2 (run comm 1) (saturate (run fold 1))))
      (check (= (Add (Num 3) (Num 2)) (Num 5)))
    |}
  in
  Alcotest.(check bool) "three checks and two schedule reports" true (List.length outputs = 5)

let test_ruleset_errors () =
  let e1 = expect_error "unknown ruleset" {|
    (relation r (i64))
    (rule ((r x)) ((r x)) :ruleset nope) |} in
  let e2 = expect_error "duplicate ruleset" {| (ruleset a) (ruleset a) |} in
  List.iter (fun e -> Alcotest.(check bool) "reported" true (String.length e > 0)) [ e1; e2 ]

let test_run_default_excludes_named_rulesets () =
  (* (run n) runs only the default ruleset, as in egglog; named rulesets
     run through (run-schedule ...) *)
  let outputs =
    expect_ok "default run"
      {|
      (ruleset special)
      (relation a (i64))
      (relation b (i64))
      (rule ((a x)) ((b x)) :ruleset special)
      (a 1)
      (run 3)
      (fail (check (b 1)))
      (run-schedule (run special 2))
      (check (b 1))
    |}
  in
  Alcotest.(check bool) "scoping respected" true (List.length outputs = 4)

(* ---- semi-naïve = naïve (Theorem 4.1) ---- *)

let tc_program edges =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "(relation edge (i64 i64)) (relation path (i64 i64))";
  Buffer.add_string buf "(rule ((edge x y)) ((path x y)))";
  Buffer.add_string buf "(rule ((path x y) (edge y z)) ((path x z)))";
  List.iter (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "(edge %d %d)" a b)) edges;
  Buffer.add_string buf "(run 50)";
  Buffer.contents buf

let count_path outputs =
  ignore outputs;
  ()

let prop_seminaive_equals_naive_datalog =
  QCheck2.Test.make ~name:"semi-naive = naive (transitive closure)" ~count:60
    QCheck2.Gen.(list_size (int_range 0 25) (pair (int_range 0 9) (int_range 0 9)))
    (fun edges ->
      let size mode =
        let eng = Egglog.Engine.create ~seminaive:mode () in
        ignore (Egglog.run_string eng (tc_program edges));
        Egglog.Engine.table_size eng "path"
      in
      size true = size false)

(* Rewrites plus an interval analysis in the style of the Herbie case
   study: [lo]/[hi] merge with max/min, and the product rule joins five
   atoms, so delta variants, skipped empty deltas and generic trie joins
   all take part. *)
let eqsat_program seeds =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "(datatype M (Num i64) (Add M M) (Mul M M))";
  Buffer.add_string buf "(function lo (M) i64 :merge (max old new))";
  Buffer.add_string buf "(function hi (M) i64 :merge (min old new))";
  Buffer.add_string buf "(rewrite (Add a b) (Add b a))";
  Buffer.add_string buf "(rewrite (Add (Add a b) c) (Add a (Add b c)))";
  Buffer.add_string buf "(rewrite (Mul a (Add b c)) (Add (Mul a b) (Mul a c)))";
  Buffer.add_string buf "(rewrite (Add (Num a) (Num b)) (Num (+ a b)))";
  Buffer.add_string buf "(rule ((= e (Num n))) ((set (lo e) n) (set (hi e) n)))";
  Buffer.add_string buf
    "(rule ((= e (Add a b)) (= (lo a) la) (= (lo b) lb)) ((set (lo e) (+ la lb))))";
  Buffer.add_string buf
    "(rule ((= e (Add a b)) (= (hi a) ha) (= (hi b) hb)) ((set (hi e) (+ ha hb))))";
  Buffer.add_string buf
    "(rule ((= e (Mul a b)) (= (lo a) la) (= (hi a) ha) (= (lo b) lb) (= (hi b) hb))\
    \ ((set (lo e) (min (* la lb) (* ha hb))) (set (hi e) (max (* la lb) (* ha hb)))))";
  List.iteri
    (fun i s -> Buffer.add_string buf (Printf.sprintf "(define seed%d %s)" i s))
    seeds;
  Buffer.add_string buf "(run 4)";
  Buffer.contents buf

let gen_term =
  QCheck2.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 0 then map (fun i -> Printf.sprintf "(Num %d)" i) (int_range 0 3)
            else
              oneof
                [
                  map (fun i -> Printf.sprintf "(Num %d)" i) (int_range 0 3);
                  map2 (fun a b -> Printf.sprintf "(Add %s %s)" a b) (self (n / 2)) (self (n / 2));
                  map2 (fun a b -> Printf.sprintf "(Mul %s %s)" a b) (self (n / 2)) (self (n / 2));
                ])
          (min n 4)))

let prop_seminaive_equals_naive_eqsat =
  QCheck2.Test.make ~name:"semi-naive = naive (eqsat tuples and intervals, canonical dumps)" ~count:30
    QCheck2.Gen.(list_size (int_range 1 3) gen_term)
    (fun seeds ->
      let dump mode =
        let eng = Egglog.Engine.create ~seminaive:mode () in
        ignore (Egglog.run_string eng (eqsat_program seeds));
        Egglog.Serialize.dump_string eng
      in
      dump true = dump false)

(* ---- extraction ---- *)

let test_extract_optimal () =
  let outputs =
    expect_ok "extraction picks the cheaper representative"
      {|
      (datatype M (Num i64) (Add M M) (Mul M M))
      (define e (Add (Num 1) (Add (Num 1) (Add (Num 1) (Num 0)))))
      (rewrite (Add (Num a) (Num b)) (Num (+ a b)))
      (run 5)
      (extract e)
    |}
  in
  Alcotest.(check string) "constant folded" "(Num 3) : cost 1" (List.nth outputs 1)

let test_extract_cost_attr () =
  let outputs =
    expect_ok "respects :cost"
      {|
      (sort M)
      (function cheap () M)
      (function pricey () M :cost 100)
      (union (cheap) (pricey))
      (extract (pricey))
    |}
  in
  Alcotest.(check string) "picks cheap" "(cheap) : cost 1" (List.hd outputs)

(* ---- schedulers ---- *)

let test_backoff_bans () =
  (* An explosive rule gets banned under BackOff but not under Simple. *)
  let src =
    {|
    (datatype M (Num i64) (Add M M))
    (define e (Add (Num 1) (Num 2)))
    (rewrite (Add a b) (Add b a))
    (rewrite (Add a b) (Add (Add a b) (Num 0)))
    (run 5)
  |}
  in
  (* mainly: it must terminate and stay consistent under both *)
  let eng1 = Egglog.Engine.create ~scheduler:Egglog.Engine.Simple () in
  ignore (Egglog.run_string eng1 src);
  let eng2 = Egglog.Engine.create ~scheduler:(Egglog.Engine.Backoff { match_limit = 2; ban_length = 2 }) () in
  ignore (Egglog.run_string eng2 src);
  Alcotest.(check bool) "backoff explores less" true
    (Egglog.Engine.total_rows eng2 <= Egglog.Engine.total_rows eng1)

(* ---- canonicalization: what is already canonical is not copied ---- *)

let test_canon_contract () =
  let module D = Egglog.Database in
  let module V = Egglog.Value in
  let db = D.create () in
  let s = Egglog.Symbol.intern "S" in
  D.declare_sort db s;
  let a = D.fresh_id db s and b = D.fresh_id db s in
  Alcotest.(check bool) "a root comes back as it is" true (D.canon db a == a);
  let root = D.union db a b in
  let merged = if V.equal root a then b else a in
  Alcotest.(check bool) "the root is still itself" true (D.canon db root == root);
  Alcotest.(check bool) "a merged id comes back as its root" true
    (V.equal (D.canon db merged) root);
  let canonical = [| V.VInt 1; root; V.VStr (Egglog.Symbol.intern "x") |] in
  Alcotest.(check bool) "a canonical key comes back as it is" true
    (D.canon_key db canonical == canonical);
  let stale = [| V.VInt 1; merged; root |] in
  let fixed = D.canon_key db stale in
  Alcotest.(check bool) "a stale key comes back fresh" false (fixed == stale);
  Alcotest.(check bool) "with its cells canonical" true
    (Array.for_all2 V.equal fixed [| V.VInt 1; root; root |]);
  Alcotest.(check bool) "and the argument untouched" true
    (stale.(1) == merged && stale.(2) == root)

(* ---- the search cap: a rule's search stops at threshold + 1 ---- *)

module T = Egglog.Telemetry

(* Run [f] traced; return its result, the trace's [scheduler.ban] events
   and the [join.matches_yielded] count. Telemetry is global, so it is
   reset before and after. *)
let traced f =
  T.disable ();
  T.reset ();
  let lines = ref [] in
  T.enable ~sink:(fun line -> lines := line :: !lines) ();
  let result = Fun.protect ~finally:T.disable f in
  let yielded =
    Option.value ~default:0 (List.assoc_opt "join.matches_yielded" (T.snapshot ()).T.sn_counters)
  in
  T.reset ();
  let bans =
    List.filter
      (fun ev -> T.Json.member "name" ev = Some (T.Json.Str "scheduler.ban"))
      (List.rev_map T.Json.parse !lines)
  in
  (result, bans, yielded)

let int_member name ev =
  match T.Json.member name ev with
  | Some (T.Json.Int n) -> n
  | _ -> Alcotest.failf "scheduler.ban lacks int field %s" name

let backoff k = Egglog.Engine.Backoff { match_limit = k; ban_length = 2 }

let bans (report : Egglog.Engine.run_report) =
  List.fold_left (fun acc s -> acc + s.Egglog.Engine.rs_bans) 0 report.Egglog.Engine.rule_stats

(* One single-atom rule over [facts] rows of [r]: [facts] matches. *)
let single_atom_engine ~scheduler ~facts =
  let eng = Egglog.Engine.create ~scheduler () in
  ignore
    (Egglog.run_string eng
       "(relation r (i64)) (relation out (i64)) (rule ((r x)) ((out x)))");
  for i = 1 to facts do
    Egglog.Engine.set_fact eng "r" [ Egglog.Value.VInt i ] Egglog.Value.VUnit
  done;
  eng

let k = 3

let test_cap_exactly_k_applies () =
  let eng = single_atom_engine ~scheduler:(backoff k) ~facts:k in
  let report, ban_events, yielded = traced (fun () -> Egglog.Engine.run_iterations eng 1) in
  Alcotest.(check int) "not banned" 0 (bans report);
  Alcotest.(check int) "no ban event" 0 (List.length ban_events);
  Alcotest.(check int) "every match applied" k (Egglog.Engine.table_size eng "out");
  Alcotest.(check int) "searched to completion" k yielded

(* k + 1 matches ban the rule; with more, the search still stops at the
   k + 1th, and the ban reports k + 1. *)
let test_cap_k_plus_one_bans () =
  List.iter
    (fun facts ->
      let eng = single_atom_engine ~scheduler:(backoff k) ~facts in
      let report, ban_events, yielded = traced (fun () -> Egglog.Engine.run_iterations eng 1) in
      Alcotest.(check int) "banned" 1 (bans report);
      Alcotest.(check int) "nothing applied" 0 (Egglog.Engine.table_size eng "out");
      Alcotest.(check int) "the search stopped at k + 1" (k + 1) yielded;
      match ban_events with
      | [ ev ] ->
        Alcotest.(check int) "ban reports k + 1 matches" (k + 1) (int_member "matches" ev);
        Alcotest.(check int) "ban reports the threshold" k (int_member "threshold" ev)
      | evs -> Alcotest.failf "expected one scheduler.ban, got %d" (List.length evs))
    [ k + 1; k + 5 ]

(* Two delta variants, each yielding at most k, together more than k:
   the cap counts across variants, so the rule is banned, and its search
   stops at k + 1 yields. *)
let test_cap_counts_across_variants () =
  let k = 2 in
  let eng = Egglog.Engine.create ~scheduler:(backoff k) () in
  ignore
    (Egglog.run_string eng
       {|
       (relation a (i64)) (relation b (i64)) (relation out (i64))
       (rule ((a x) (b x)) ((out x)))
       (a 1) (b 1)
     |});
  let first = Egglog.Engine.run_iterations eng 1 in
  Alcotest.(check int) "one match, applied" 0 (bans first);
  List.iter
    (fun (f, i) -> Egglog.Engine.set_fact eng f [ Egglog.Value.VInt i ] Egglog.Value.VUnit)
    [ ("a", 2); ("a", 3); ("b", 2); ("b", 3) ];
  (* variant 0 (new a, all b) and variant 1 (all a, new b) yield 2 each *)
  let report, ban_events, yielded = traced (fun () -> Egglog.Engine.run_iterations eng 1) in
  Alcotest.(check int) "banned" 1 (bans report);
  Alcotest.(check int) "only the first run's match applied" 1 (Egglog.Engine.table_size eng "out");
  Alcotest.(check int) "stopped at k + 1 yields" (k + 1) yielded;
  match ban_events with
  | [ ev ] -> Alcotest.(check int) "ban reports k + 1" (k + 1) (int_member "matches" ev)
  | evs -> Alcotest.failf "expected one scheduler.ban, got %d" (List.length evs)

(* Pressure tier 1 shrinks the match limit 8x, and the shrunk threshold is
   the one that caps the search: k + 5 matches, under the configured
   limit 8k, ban the rule at k + 1. *)
let test_cap_under_pressure () =
  let eng = single_atom_engine ~scheduler:(backoff (8 * k)) ~facts:(k + 5) in
  (* modeled bytes at 75% of the limit: tier 1 (70%) but not tier 2 (85%) *)
  let memory_limit = Egglog.Engine.modeled_bytes eng * 4 / 3 in
  let report, ban_events, yielded =
    traced (fun () -> Egglog.Engine.run_iterations ~memory_limit eng 1)
  in
  Alcotest.(check int) "banned" 1 (bans report);
  Alcotest.(check int) "stopped at the shrunk k + 1" (k + 1) yielded;
  match ban_events with
  | [ ev ] ->
    Alcotest.(check int) "shrunk threshold" k (int_member "threshold" ev);
    Alcotest.(check int) "matches" (k + 1) (int_member "matches" ev);
    Alcotest.(check bool) "reason" true
      (T.Json.member "reason" ev = Some (T.Json.Str "memory-pressure"))
  | evs -> Alcotest.failf "expected one scheduler.ban, got %d" (List.length evs)

let test_saturation_detection () =
  let eng = Egglog.Engine.create () in
  ignore
    (Egglog.run_string eng
       {|
      (relation edge (i64 i64)) (relation path (i64 i64))
      (rule ((edge x y)) ((path x y)))
      (rule ((path x y) (edge y z)) ((path x z)))
      (edge 1 2) (edge 2 3)
    |});
  let report = Egglog.Engine.run_iterations eng 100 in
  Alcotest.(check bool) "saturates early" true (List.length report.Egglog.Engine.iterations < 10);
  Alcotest.(check bool) "flag set" true
    (report.Egglog.Engine.stop_reason = Egglog.Engine.Saturated)


(* ---- containers and newer commands ---- *)

let test_vectors () =
  let outputs =
    expect_ok "vectors"
      {|
      (function route (i64) (Vec i64) :merge new)
      (set (route 0) (vec-push (vec-push (vec-empty) 7) 8))
      (check (= (vec-length (route 0)) 2))
      (check (= (vec-get (route 0) 0) 7))
      (check (vec-contains (route 0) 8))
      (check (vec-not-contains (route 0) 9))
      (check (= (vec-append (vec-of 1) (vec-of 2)) (vec-push (vec-of 1) 2)))
    |}
  in
  Alcotest.(check int) "all checks" 5 (List.length outputs)

let test_string_primitives () =
  let outputs =
    expect_ok "strings"
      {|
      (function name () String :merge new)
      (set (name) (str-cat "foo" "bar"))
      (check (= (name) "foobar"))
      (check (= (str-length (name)) 6))
      (check (str-lt "abc" "abd"))
      (check (= (to-string 42) "42"))
    |}
  in
  Alcotest.(check int) "all checks" 4 (List.length outputs)

let test_simplify_command () =
  let outputs =
    expect_ok "simplify"
      {|
      (datatype M (Num i64) (Add M M))
      (rewrite (Add (Num a) (Num b)) (Num (+ a b)))
      (simplify 5 (Add (Num 20) (Add (Num 1) (Num 1))))
      (print-stats)
    |}
  in
  Alcotest.(check string) "folded" "(Num 22) : cost 1" (List.hd outputs);
  (* the scratch scope was popped: only declarations remain *)
  Alcotest.(check bool) "db not polluted" true
    (contains_substring (List.nth outputs 1) "0 tuples")

let test_extract_variants () =
  let outputs =
    expect_ok "variants"
      {|
      (datatype M (Num i64) (Add M M))
      (rewrite (Add a b) (Add b a))
      (define e (Add (Num 1) (Num 2)))
      (run 3)
      (extract e :variants 5)
    |}
  in
  let terms = List.filter (fun s -> String.length s > 0 && s.[0] = '(') outputs in
  Alcotest.(check bool) "several variants" true (List.length terms >= 2);
  Alcotest.(check bool) "commuted form present" true
    (List.mem "(Add (Num 2) (Num 1))" terms)

let test_merge_new_keeps_latest () =
  let outputs =
    expect_ok "merge new"
      {|
      (function latest () i64 :merge new)
      (set (latest) 1)
      (set (latest) 2)
      (set (latest) 3)
      (check (latest))
    |}
  in
  Alcotest.(check string) "latest wins" "check passed: 3" (List.hd outputs)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

(* Rules whose primitives mint fresh strings (str-cat / to-string) while
   the search phase runs. Search interns them directly, in discovery
   order, so two engines running the program dump byte-identically,
   including sets of strings, which sort by symbol id. *)
let fresh_symbol_prog =
  {|
  (relation seed (i64))
  (function tag (i64) String)
  (function bag (i64) (Set String) :merge (set-union old new))
  (rule ((seed x))
        ((set (tag x) (str-cat "n-" (to-string x)))))
  (rule ((seed x) (seed y) (< x y))
        ((set (bag (+ x y))
              (set-insert (set-singleton (str-cat (to-string x) (to-string y)))
                          (str-cat "p-" (to-string (* x y)))))))
  (seed 1) (seed 2) (seed 3) (seed 4) (seed 5) (seed 6)
  (seed 7) (seed 8) (seed 9) (seed 10) (seed 11) (seed 12)
  (run 4)
  |}

let test_fresh_interning_deterministic () =
  let dump () =
    let eng = Egglog.Engine.create () in
    ignore (Egglog.run_string eng fresh_symbol_prog);
    Alcotest.(check int) "every pair's bag is set" 21 (Egglog.Engine.table_size eng "bag");
    Egglog.Serialize.dump_string eng
  in
  let first = dump () in
  Alcotest.(check string) "second engine's dump == first" first (dump ())

(* A deterministic 48-bit LCG (drawing from the high bits — the low bits
   of a power-of-two LCG carry parity structure that would split the link
   graph into disjoint components) so the "random" graph is identical on
   every run and platform. *)
let make_lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
    (!state lsr 16) mod bound

let storm_nodes = 700

let storm_links =
  let rand = make_lcg 0x5EED in
  List.init 900 (fun _ ->
      let a = rand storm_nodes in
      let b = rand storm_nodes in
      (a, b))

(* One constructor per linked node and a rule that unions across every
   link: the Mk table ends up with several hundred rows, and the union
   storm forces multi-round congruence repair. Every equality a textbook
   union-find over the raw labels derives must hold in the engine, and
   every inequality must fail to check. *)
let test_merge_storm () =
  let module T = Egglog.Telemetry in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "(datatype N (Mk i64))\n\
     (relation link (i64 i64))\n\
     (rule ((link x y)) ((union (Mk x) (Mk y))))\n";
  List.iter (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "(link %d %d)\n" a b)) storm_links;
  let eng = Egglog.Engine.create () in
  let rounds =
    Fun.protect
      ~finally:(fun () ->
        T.disable ();
        T.reset ())
      (fun () ->
        T.reset ();
        T.enable ();
        ignore (Egglog.run_string eng (Buffer.contents buf));
        ignore (Egglog.Engine.run_iterations eng 3);
        T.disable ();
        Option.value ~default:0 (List.assoc_opt "rebuild.rounds" (T.snapshot ()).T.sn_counters))
  in
  Alcotest.(check bool) "storm forces congruence repair" true (rounds > 0);
  let parent = Array.init storm_nodes Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let touched = Array.make storm_nodes false in
  List.iter
    (fun (a, b) ->
      touched.(a) <- true;
      touched.(b) <- true;
      let ra = find a and rb = find b in
      if ra <> rb then parent.(ra) <- rb)
    storm_links;
  let rand = make_lcg 0xCAFE in
  let eq_probes = ref 0 and neq_probes = ref 0 in
  for _ = 1 to 300 do
    let a = rand storm_nodes in
    let b = rand storm_nodes in
    if touched.(a) && touched.(b) && a <> b then
      if find a = find b then begin
        incr eq_probes;
        ignore (Egglog.run_string eng (Printf.sprintf "(check (= (Mk %d) (Mk %d)))" a b))
      end
      else begin
        incr neq_probes;
        ignore (Egglog.run_string eng (Printf.sprintf "(fail (check (= (Mk %d) (Mk %d))))" a b))
      end
  done;
  Alcotest.(check bool) "probed equalities" true (!eq_probes > 10);
  Alcotest.(check bool) "probed inequalities" true (!neq_probes > 10)

let () =
  ignore count_path;
  ignore run;
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_seminaive_equals_naive_datalog; prop_seminaive_equals_naive_eqsat ]
  in
  Alcotest.run "engine"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "fig3a reachability" `Quick test_reachability;
          Alcotest.test_case "fig3b shortest path" `Quick test_shortest_path;
          Alcotest.test_case "fig4a node contraction" `Quick test_node_contraction;
          Alcotest.test_case "fig4b basic eqsat" `Quick test_basic_eqsat;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "congruence" `Quick test_congruence;
          Alcotest.test_case "merge cascade" `Quick test_merge_cascade;
          Alcotest.test_case "merge max" `Quick test_merge_expr_max;
          Alcotest.test_case "merge panic" `Quick test_merge_panic;
          Alcotest.test_case "default fresh" `Quick test_default_fresh;
          Alcotest.test_case "default expr" `Quick test_default_expr;
          Alcotest.test_case "default panic" `Quick test_default_panic;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "guards" `Quick test_primitive_guards;
          Alcotest.test_case "computed vars" `Quick test_primitive_computation_in_query;
          Alcotest.test_case "!= and union" `Quick test_neq_guard;
          Alcotest.test_case "rationals" `Quick test_rational_primitives;
          Alcotest.test_case "sets" `Quick test_sets;
        ] );
      ( "commands",
        [
          Alcotest.test_case "push/pop" `Quick test_push_pop;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "check no insert" `Quick test_ground_check_no_insert;
          Alcotest.test_case "type errors" `Quick test_type_errors;
          Alcotest.test_case "unsat query" `Quick test_unsat_query;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "optimal" `Quick test_extract_optimal;
          Alcotest.test_case "cost attr" `Quick test_extract_cost_attr;
          Alcotest.test_case "variants" `Quick test_extract_variants;
        ] );
      ( "features",
        [
          Alcotest.test_case "vectors" `Quick test_vectors;
          Alcotest.test_case "strings" `Quick test_string_primitives;
          Alcotest.test_case "simplify" `Quick test_simplify_command;
          Alcotest.test_case "merge new" `Quick test_merge_new_keeps_latest;
          Alcotest.test_case "rulesets" `Quick test_rulesets_and_schedules;
          Alcotest.test_case "ruleset errors" `Quick test_ruleset_errors;
          Alcotest.test_case "schedule scoping" `Quick test_run_default_excludes_named_rulesets;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "backoff" `Quick test_backoff_bans;
          Alcotest.test_case "saturation" `Quick test_saturation_detection;
          Alcotest.test_case "cap: k matches apply" `Quick test_cap_exactly_k_applies;
          Alcotest.test_case "cap: k + 1 matches ban" `Quick test_cap_k_plus_one_bans;
          Alcotest.test_case "cap: counted across delta variants" `Quick
            test_cap_counts_across_variants;
          Alcotest.test_case "cap: pressure's threshold" `Quick test_cap_under_pressure;
        ] );
      ("canonical", [ Alcotest.test_case "canon and canon_key" `Quick test_canon_contract ]);
      ( "determinism",
        [
          Alcotest.test_case "fresh strings interned in order" `Quick
            test_fresh_interning_deterministic;
          Alcotest.test_case "merge storm == naive union-find" `Quick test_merge_storm;
        ] );
      ("properties", props);
    ]
