(* The egg-style baseline: hashcons/congruence invariants, e-matching,
   extraction, analyses — and the crucial parity check that egg and
   egglogNI grow the same e-graph on the Fig. 7 workload. *)

let t = Egraph.term_of_string
let p = Egraph.pattern_of_string

let test_hashcons () =
  let eg = Egraph.create () in
  let a = Egraph.add_term eg (t "(+ x y)") in
  let b = Egraph.add_term eg (t "(+ x y)") in
  Alcotest.(check int) "same term same class" (Egraph.find eg a) (Egraph.find eg b);
  let c = Egraph.add_term eg (t "(+ y x)") in
  Alcotest.(check bool) "different terms differ" false (Egraph.equiv eg a c)

let test_congruence () =
  let eg = Egraph.create () in
  let fa = Egraph.add_term eg (t "(f a)") in
  let fb = Egraph.add_term eg (t "(f b)") in
  let a = Egraph.add_term eg (t "a") in
  let b = Egraph.add_term eg (t "b") in
  Alcotest.(check bool) "f(a) != f(b)" false (Egraph.equiv eg fa fb);
  ignore (Egraph.union eg a b);
  Egraph.rebuild eg;
  Alcotest.(check bool) "f(a) = f(b) after union" true (Egraph.equiv eg fa fb)

let test_congruence_chain () =
  (* f^3(x)=x, f^5(x)=x |- f(x)=x *)
  let eg = Egraph.create () in
  let x = Egraph.add_term eg (t "x") in
  let rec f n id = if n = 0 then id else f (n - 1) (Egraph.add_node eg (Egraph.Op "f") [ id ]) in
  let f3 = f 3 x and f5 = f 5 x in
  ignore (Egraph.union eg f3 x);
  ignore (Egraph.union eg f5 x);
  Egraph.rebuild eg;
  let f1 = f 1 x in
  Alcotest.(check bool) "f(x)=x" true (Egraph.equiv eg f1 x)

let test_ematch () =
  let eg = Egraph.create () in
  ignore (Egraph.add_term eg (t "(+ (g a) (g a))"));
  ignore (Egraph.add_term eg (t "(+ (g a) (g b))"));
  let matches = Egraph.ematch eg (p "(+ ?x ?x)") in
  Alcotest.(check int) "one nonlinear match" 1 (List.length matches);
  let matches = Egraph.ematch eg (p "(+ ?x ?y)") in
  Alcotest.(check int) "two linear matches" 2 (List.length matches)

let test_ematch_limit () =
  let eg = Egraph.create () in
  List.iter (fun s -> ignore (Egraph.add_term eg (t s))) [ "(f 1)"; "(f 2)"; "(f 3)" ];
  let count limit = List.length (Egraph.ematch ~limit eg (p "(f ?x)")) in
  Alcotest.(check int) "stops at the limit" 2 (count 2);
  Alcotest.(check int) "all when fewer" 3 (count 10)

let test_ematch_modulo () =
  let eg = Egraph.create () in
  ignore (Egraph.add_term eg (t "(+ (g a) (g b))"));
  let a = Egraph.add_term eg (t "a") and b = Egraph.add_term eg (t "b") in
  Alcotest.(check int) "no match yet" 0 (List.length (Egraph.ematch eg (p "(+ ?x ?x)")));
  ignore (Egraph.union eg a b);
  Egraph.rebuild eg;
  Alcotest.(check int) "match modulo equality" 1 (List.length (Egraph.ematch eg (p "(+ ?x ?x)")))

let test_run_and_extract () =
  let eg = Egraph.create () in
  let root = Egraph.add_term eg (t "(+ (* a 2) (* a 0))") in
  let rws =
    [
      Egraph.rewrite_of_strings ~name:"zero-mul" "(* ?a 0)" "0";
      Egraph.rewrite_of_strings ~name:"zero-add" "(+ ?a 0)" "?a";
    ]
  in
  let stats = Egraph.run eg rws 10 in
  Alcotest.(check bool) "saturated" true stats.Egraph.saturated;
  match Egraph.extract eg root with
  | Some (term, cost) ->
    Alcotest.(check string) "simplified" "(* a 2)" (Egraph.term_to_string term);
    Alcotest.(check int) "cost" 3 cost
  | None -> Alcotest.fail "no term extracted"

let test_const_folding_analysis () =
  let eg =
    Egraph.create
      ~const_ops:
        [
          ("+", fun xs -> match xs with [ a; b ] -> Some (a + b) | _ -> None);
          ("*", fun xs -> match xs with [ a; b ] -> Some (a * b) | _ -> None);
        ]
      ()
  in
  let root = Egraph.add_term eg (t "(+ (* 2 3) 4)") in
  Egraph.rebuild eg;
  Alcotest.(check (option int)) "folded to 10" (Some 10) (Egraph.class_const eg root);
  (match Egraph.extract eg root with
   | Some (term, _) -> Alcotest.(check string) "extracts 10" "10" (Egraph.term_to_string term)
   | None -> Alcotest.fail "no term");
  (* analysis must also flow through unions *)
  let v = Egraph.add_term eg (t "v") in
  let expr = Egraph.add_term eg (t "(+ v 1)") in
  ignore (Egraph.union eg v (Egraph.add_term eg (t "5")));
  Egraph.rebuild eg;
  Alcotest.(check (option int)) "v+1 folds after union" (Some 6) (Egraph.class_const eg expr)

let test_backoff_bans_explosive () =
  let eg = Egraph.create () in
  ignore (Egraph.add_term eg (t "(+ a (+ b (+ c (+ d e))))"));
  let rws =
    [
      Egraph.rewrite_of_strings ~name:"comm" "(+ ?a ?b)" "(+ ?b ?a)";
      Egraph.rewrite_of_strings ~name:"assoc" "(+ ?a (+ ?b ?c))" "(+ (+ ?a ?b) ?c)";
    ]
  in
  let unlimited = Egraph.run eg rws 6 in
  let eg2 = Egraph.create () in
  ignore (Egraph.add_term eg2 (t "(+ a (+ b (+ c (+ d e))))"));
  let limited =
    Egraph.run eg2 ~scheduler:(Egraph.Backoff { match_limit = 4; ban_length = 2 }) rws 6
  in
  let last stats = (List.hd (List.rev stats.Egraph.iters)).Egraph.is_nodes in
  Alcotest.(check bool) "backoff grows less" true (last limited <= last unlimited)

(* A rewrite banned at iteration i for ban_length b is searched again at
   i + b, as in egg's BackoffScheduler: 3 matches over a limit of 2 ban
   it at iteration 1, it is skipped at 2 and applied at 3 (the doubled
   limit, 4, admits the same 3 matches), and iteration 4 saturates. *)
let test_ban_length () =
  let eg = Egraph.create () in
  List.iter (fun s -> ignore (Egraph.add_term eg (t s))) [ "(f 1)"; "(f 2)"; "(f 3)" ];
  let stats =
    Egraph.run eg
      ~scheduler:(Egraph.Backoff { match_limit = 2; ban_length = 2 })
      [ Egraph.rewrite_of_strings ~name:"fg" "(f ?x)" "(g ?x)" ]
      10
  in
  Alcotest.(check (list int)) "matches applied per iteration" [ 0; 0; 3; 3 ]
    (List.map (fun s -> s.Egraph.is_applied) stats.Egraph.iters);
  Alcotest.(check bool) "saturated" true stats.Egraph.saturated

(* ---- parity: egg vs egglogNI on the Fig. 7 workload ---- *)

let egglog_math_tuples eng =
  List.fold_left
    (fun acc f -> acc + Egglog.Engine.table_size eng f)
    0
    [ "Num"; "Var"; "Add"; "Sub"; "Mul"; "Div"; "Pow"; "Ln"; "Sqrt"; "Diff"; "Integral" ]

let test_parity_with_egglog () =
  (* Run 6 iterations of the shared ruleset on both engines and compare
     e-graph sizes per iteration: e-nodes must match tuples exactly. *)
  let eg = Egraph.create () in
  List.iter (fun term -> ignore (Egraph.add_term eg term)) (Math_suite.egg_seed_terms ());
  let eng = Egglog.Engine.create ~seminaive:false () in
  ignore (Egglog.run_string eng (Math_suite.egglog_program ()));
  let egg_sizes = ref [] in
  let egglog_sizes = ref [] in
  for _ = 1 to 6 do
    let stats = Egraph.run eg (Math_suite.egg_rewrites ()) 1 in
    (match stats.Egraph.iters with
     | [ s ] -> egg_sizes := s.Egraph.is_nodes :: !egg_sizes
     | _ -> Alcotest.fail "expected one iteration");
    ignore (Egglog.Engine.run_iterations eng 1);
    egglog_sizes := egglog_math_tuples eng :: !egglog_sizes
  done;
  Alcotest.(check (list int)) "same growth" (List.rev !egg_sizes) (List.rev !egglog_sizes)


(* random workloads must leave the e-graph with clean invariants *)
let prop_audit_clean =
  QCheck2.Test.make ~name:"invariants hold after random rewriting" ~count:40
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, iters) ->
      let rand = Random.State.make [| seed |] in
      let eg = Egraph.create () in
      (* random seed terms from the suite *)
      List.iteri
        (fun i term -> if (i + seed) mod 2 = 0 then ignore (Egraph.add_term eg term))
        (Math_suite.egg_seed_terms ());
      if Egraph.n_classes eg = 0 then ignore (Egraph.add_term eg (t "(+ x y)"));
      (* a random subset of the rules *)
      let rules =
        List.filteri (fun i _ -> Random.State.bool rand || i = 0) (Math_suite.egg_rewrites ())
      in
      ignore (Egraph.run eg rules iters);
      (* plus some random unions between existing classes *)
      let a = Egraph.add_term eg (t "x") and b = Egraph.add_term eg (t "y") in
      ignore (Egraph.union eg a b);
      Egraph.rebuild eg;
      Egraph.audit eg = [])

let () =
  Alcotest.run "egraph"
    [
      ( "core",
        [
          Alcotest.test_case "hashcons" `Quick test_hashcons;
          Alcotest.test_case "congruence" `Quick test_congruence;
          Alcotest.test_case "congruence chain" `Quick test_congruence_chain;
        ] );
      ( "ematch",
        [
          Alcotest.test_case "patterns" `Quick test_ematch;
          Alcotest.test_case "modulo equality" `Quick test_ematch_modulo;
          Alcotest.test_case "limit" `Quick test_ematch_limit;
        ] );
      ( "runner",
        [
          Alcotest.test_case "run+extract" `Quick test_run_and_extract;
          Alcotest.test_case "const folding" `Quick test_const_folding_analysis;
          Alcotest.test_case "backoff" `Quick test_backoff_bans_explosive;
          Alcotest.test_case "ban length" `Quick test_ban_length;
        ] );
      ("parity", [ Alcotest.test_case "egg = egglogNI growth" `Quick test_parity_with_egglog ]);
      ("invariants", [ QCheck_alcotest.to_alcotest prop_audit_clean ]);
    ]
