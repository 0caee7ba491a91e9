(* Resource governance and fault containment: budgets + stop reasons
   (node/time/:until), transactional commands (rollback to a bit-identical
   pre-command state on any failure), structured errors, and the REPL's
   paren-balance reader. *)

module E = Egglog

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let run_ok eng src =
  try Ok (E.run_string eng src) with E.Egglog_error msg -> Error msg

let expect_ok eng msg src =
  match run_ok eng src with
  | Ok outputs -> outputs
  | Error e -> Alcotest.failf "%s: unexpected error: %s" msg e

let expect_error eng msg src =
  match run_ok eng src with
  | Ok _ -> Alcotest.failf "%s: expected an error" msg
  | Error e -> e

(* A deliberately explosive ruleset: commutativity + associativity churn the
   e-graph while a counting rule keeps injecting fresh leaves, so the
   database grows without bound and only a budget can stop the run. *)
let explosive_header =
  {|
    (datatype Math (Num i64) (Add Math Math))
    (birewrite (Add (Add a b) c) (Add a (Add b c)))
    (rewrite (Add a b) (Add b a))
    (rule ((= e (Num n))) ((Num (+ n 1)) (Num (* n 2))))
    (define seed (Add (Num 1) (Add (Num 2) (Num 3))))
  |}

let stop_reason_testable =
  Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (E.Engine.describe_stop_reason r))
    ( = )

(* ---- budgets ---- *)

let test_node_limit () =
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" explosive_header);
  let report = E.Engine.run_iterations ~node_limit:400 eng 1_000 in
  (match report.E.Engine.stop_reason with
   | E.Engine.Node_limit rows -> Alcotest.(check bool) "reported rows over limit" true (rows > 400)
   | r -> Alcotest.failf "expected Node_limit, got %s" (E.Engine.describe_stop_reason r));
  (* the budget is cooperative, not exact, but it must not run away: a single
     unchecked explosive iteration would be orders of magnitude larger *)
  Alcotest.(check bool) "stayed near the budget" true (E.Engine.total_rows eng < 40_000);
  (* the engine is still usable: the database is rebuilt and consistent *)
  ignore (expect_ok eng "still usable" "(check (= seed (Add (Num 1) (Add (Num 2) (Num 3)))))")

let test_node_limit_syntax () =
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" explosive_header);
  let outputs = expect_ok eng "run" "(run 1000 :node-limit 400)" in
  Alcotest.(check bool)
    "mentions node limit"
    true
    (match outputs with
     | [ line ] ->
       String.length line > 0
       && contains line "(stopped: node limit"
     | _ -> false)


let test_time_limit () =
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" explosive_header);
  let report = E.Engine.run_iterations ~time_limit:0.05 eng 1_000_000 in
  match report.E.Engine.stop_reason with
  | E.Engine.Time_limit dt -> Alcotest.(check bool) "elapsed over limit" true (dt > 0.05)
  | r -> Alcotest.failf "expected Time_limit, got %s" (E.Engine.describe_stop_reason r)

let test_rule_stats () =
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" explosive_header);
  let report = E.Engine.run_iterations ~node_limit:400 eng 1_000 in
  let total = List.fold_left (fun acc s -> acc + s.E.Engine.rs_matches) 0 report.E.Engine.rule_stats in
  Alcotest.(check bool) "some rule matched" true (total > 0);
  Alcotest.(check int) "four rules reported (birewrite = 2)" 4
    (List.length report.E.Engine.rule_stats)

(* :until stops exactly when the fact becomes derivable: the number of
   iterations must equal the first iteration after which a step-by-step
   reference run can derive it. *)
let reach_header =
  {|
    (relation edge (i64 i64)) (relation path (i64 i64))
    (rule ((edge x y)) ((path x y)))
    (rule ((path x y) (edge y z)) ((path x z)))
    (edge 1 2) (edge 2 3) (edge 3 4) (edge 4 5) (edge 5 6)
  |}

let first_iteration_deriving ~seminaive facts =
  let eng = E.Engine.create ~seminaive () in
  ignore (expect_ok eng "setup" reach_header);
  let rec go i =
    if i > 50 then Alcotest.fail "never derived"
    else if E.Engine.check_facts eng facts then i
    else begin
      ignore (E.Engine.run_iterations eng 1);
      go (i + 1)
    end
  in
  go 0

let test_until_exact () =
  let facts = [ E.Ast.Holds (E.Ast.Call ("path", [ E.Ast.Lit (E.Value.VInt 1); E.Ast.Lit (E.Value.VInt 6) ])) ] in
  let reference = first_iteration_deriving ~seminaive:true facts in
  Alcotest.(check bool) "needs several iterations" true (reference > 1);
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" reach_header);
  let report = E.Engine.run_iterations ~until:facts eng 50 in
  Alcotest.check stop_reason_testable "until satisfied" E.Engine.Until_satisfied
    report.E.Engine.stop_reason;
  Alcotest.(check int) "stopped exactly when derivable" reference
    (List.length report.E.Engine.iterations);
  Alcotest.(check bool) "fact holds" true (E.Engine.check_facts eng facts)

let test_until_satisfied_at_entry () =
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" reach_header);
  let facts = [ E.Ast.Holds (E.Ast.Call ("edge", [ E.Ast.Lit (E.Value.VInt 1); E.Ast.Lit (E.Value.VInt 2) ])) ] in
  let report = E.Engine.run_iterations ~until:facts eng 50 in
  Alcotest.check stop_reason_testable "until satisfied" E.Engine.Until_satisfied
    report.E.Engine.stop_reason;
  Alcotest.(check int) "zero iterations" 0 (List.length report.E.Engine.iterations)

(* Theorem 4.1 extended to budgeted runs: semi-naïve and naïve evaluation
   agree on the database at the Until_satisfied stop. *)
let test_until_modes_agree () =
  let facts = [ E.Ast.Holds (E.Ast.Call ("path", [ E.Ast.Lit (E.Value.VInt 1); E.Ast.Lit (E.Value.VInt 6) ])) ] in
  let run_mode seminaive =
    let eng = E.Engine.create ~seminaive () in
    ignore (expect_ok eng "setup" reach_header);
    let report = E.Engine.run_iterations ~until:facts eng 50 in
    (eng, report)
  in
  let eng_sn, report_sn = run_mode true in
  let eng_ni, report_ni = run_mode false in
  Alcotest.check stop_reason_testable "both until-satisfied" report_sn.E.Engine.stop_reason
    report_ni.E.Engine.stop_reason;
  Alcotest.(check int) "same iteration count"
    (List.length report_sn.E.Engine.iterations)
    (List.length report_ni.E.Engine.iterations);
  Alcotest.(check int) "same path size" (E.Engine.table_size eng_sn "path")
    (E.Engine.table_size eng_ni "path");
  Alcotest.(check string) "same database" (E.Serialize.dump_string eng_sn)
    (E.Serialize.dump_string eng_ni)

let test_until_textual () =
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" reach_header);
  let outputs = expect_ok eng "run until" "(run 50 :until (path 1 6))" in
  Alcotest.(check bool) "mentions until" true
    (match outputs with
     | [ line ] -> contains line "until condition satisfied"
     | _ -> false);
  ignore (expect_ok eng "holds" "(check (path 1 6))")

let test_run_option_errors () =
  let eng = E.Engine.create () in
  let syntax_error src =
    match E.run_string eng src with
    | _ -> Alcotest.failf "expected a syntax error for %s" src
    | exception E.Frontend.Syntax_error _ -> ()
  in
  syntax_error "(run 5 :nodes 100)";
  syntax_error "(run 5 :node-limit x)";
  syntax_error "(run 5 :time-limit \"soon\")";
  syntax_error "(run 5 :memory-limit x)";
  syntax_error "(run 5 :memory-limit -3)";
  syntax_error "(run 5 :until 3)"

(* Session-wide budgets (CLI --node-limit) bound schedules too, and
   saturate loops terminate once the budget trips. *)
let test_schedule_under_budget () =
  let outputs =
    E.run_program_string ~node_limit:400
      (explosive_header ^ "(run-schedule (saturate (run 1)))")
  in
  Alcotest.(check bool) "schedule terminated" true
    (match List.rev outputs with
     | last :: _ -> contains last "schedule ran"
     | [] -> false)

(* ---- memory governance ---- *)

let test_memory_limit () =
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" explosive_header);
  let report = E.Engine.run_iterations ~memory_limit:50_000 eng 1_000 in
  (match report.E.Engine.stop_reason with
   | E.Engine.Memory_limit bytes ->
     Alcotest.(check bool) "reported bytes over limit" true (bytes > 50_000);
     Alcotest.(check bool) "peak covers the stop" true
       (report.E.Engine.peak_memory_bytes >= bytes)
   | r -> Alcotest.failf "expected Memory_limit, got %s" (E.Engine.describe_stop_reason r));
  (* cooperative, not exact — but one unchecked explosive iteration would
     overshoot by orders of magnitude *)
  Alcotest.(check bool) "stayed near the budget" true (E.Engine.modeled_bytes eng < 5_000_000);
  ignore (expect_ok eng "still usable" "(check (= seed (Add (Num 1) (Add (Num 2) (Num 3)))))")

(* The acceptance criterion for deterministic governance: the budget is
   enforced against modeled bytes (a pure function of database contents),
   so the same program trips at the same iteration with byte-identical
   state on every run — allocator state never leaks in. *)
let test_memory_limit_deterministic_across_runs () =
  let run () =
    let eng = E.Engine.create () in
    ignore (expect_ok eng "setup" explosive_header);
    let report = E.Engine.run_iterations ~memory_limit:50_000 eng 1_000 in
    (report, E.Serialize.dump_string eng)
  in
  let r1, d1 = run () in
  let r4, d4 = run () in
  Alcotest.check stop_reason_testable "same stop (same byte payload)" r1.E.Engine.stop_reason
    r4.E.Engine.stop_reason;
  Alcotest.(check int) "same iteration count"
    (List.length r1.E.Engine.iterations)
    (List.length r4.E.Engine.iterations);
  Alcotest.(check int) "same modeled peak" r1.E.Engine.peak_memory_bytes
    r4.E.Engine.peak_memory_bytes;
  Alcotest.(check string) "byte-identical dumps" d1 d4

let test_memory_limit_syntax () =
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" explosive_header);
  let outputs = expect_ok eng "run" "(run 1000 :memory-limit 50000)" in
  Alcotest.(check bool) "mentions memory limit" true
    (match outputs with
     | [ line ] -> contains line "(stopped: memory limit"
     | _ -> false)

let test_memory_limit_roundtrip () =
  match E.Frontend.parse_program "(run 10 :node-limit 7 :memory-limit 4096)" with
  | [ cmd ] ->
    let printed = Sexpr.to_string (E.Frontend.sexp_of_command cmd) in
    Alcotest.(check bool) "prints :memory-limit" true (contains printed ":memory-limit 4096");
    Alcotest.(check bool) "round-trips" true
      (E.Frontend.command_of_sexp (E.Frontend.sexp_of_command cmd) = [ cmd ])
  | _ -> Alcotest.fail "expected one command"

(* Pressure tiers fire before the hard stop: past 70% and 85% of the limit
   the scheduler starts banning the biggest byte-growers (visible as
   rs_bans with per-rule rs_bytes attribution) while the run keeps going. *)
let test_memory_pressure_degrades () =
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" explosive_header);
  let report = E.Engine.run_iterations ~memory_limit:120_000 eng 40 in
  let bans = List.fold_left (fun acc s -> acc + s.E.Engine.rs_bans) 0 report.E.Engine.rule_stats in
  let bytes = List.fold_left (fun acc s -> acc + s.E.Engine.rs_bytes) 0 report.E.Engine.rule_stats in
  Alcotest.(check bool) "pressure banned at least one rule" true (bans > 0);
  Alcotest.(check bool) "byte growth attributed to rules" true (bytes > 0);
  Alcotest.(check bool) "peak tracked" true (report.E.Engine.peak_memory_bytes > 0);
  Alcotest.(check bool) "the bans kept the run under its hard stop" true
    (report.E.Engine.stop_reason = E.Engine.Iteration_limit)

(* Inside an open (push) scope the undo trail keeps every write's inverse
   until the pop, and the run budget counts them: a counter bumped once per
   iteration barely grows the database, yet the same limit that the run
   fits without a scope stops it with one. *)
let test_memory_limit_counts_scope_trail () =
  let counter () =
    let eng = E.Engine.create () in
    ignore
      (expect_ok eng "setup"
         {|
           (function cnt () i64 :merge (+ old new))
           (set (cnt) 0)
           (rule ((= x (cnt))) ((set (cnt) 1)))
         |});
    eng
  in
  let free = counter () in
  let before = E.Engine.modeled_bytes free in
  let grown = (E.Engine.run_iterations free 30).E.Engine.peak_memory_bytes - before in
  let limit = before + grown in
  let stop eng = (E.Engine.run_iterations ~memory_limit:limit eng 30).E.Engine.stop_reason in
  Alcotest.(check bool) "no scope: the run fits its limit" true
    (stop (counter ()) = E.Engine.Iteration_limit);
  let scoped = counter () in
  ignore (expect_ok scoped "push" "(push)");
  (match stop scoped with
   | E.Engine.Memory_limit b ->
     Alcotest.(check bool) "trail entries counted past the limit" true (b > limit)
   | r -> Alcotest.failf "expected Memory_limit, got %s" (E.Engine.describe_stop_reason r));
  ignore (expect_ok scoped "pop" "(pop)");
  Alcotest.(check int) "pop drops the kept trail" before (E.Engine.modeled_bytes scoped)

let test_modeled_bytes_exact_after_rollback () =
  let eng = E.Engine.create () in
  ignore
    (expect_ok eng "setup"
       {|
         (relation p (i64)) (relation q (i64))
         (rule ((p x)) ((q x) (panic "boom")))
         (p 1) (p 2)
       |});
  let before = E.Engine.modeled_bytes eng in
  Alcotest.(check bool) "nonzero footprint" true (before > 0);
  ignore (expect_error eng "fails" "(run 1)");
  (* the model is part of engine state: rollback restores it exactly, so
     quota accounting never drifts across failed requests *)
  Alcotest.(check int) "modeled bytes restored exactly" before (E.Engine.modeled_bytes eng);
  ignore (expect_ok eng "grows on insert" "(p 3)");
  Alcotest.(check bool) "insert grows the model" true (E.Engine.modeled_bytes eng > before)

(* ---- transactional commands ---- *)

(* State fingerprint: serialized database + check results + extraction. *)
let fingerprint eng probes =
  let dump = E.Serialize.dump_string eng in
  let checks =
    List.map
      (fun src -> match run_ok eng src with Ok outs -> String.concat "|" outs | Error e -> "err:" ^ e)
      probes
  in
  dump ^ "##" ^ String.concat "&&" checks

let test_rollback_mid_run_failure () =
  let eng = E.Engine.create () in
  ignore
    (expect_ok eng "setup"
       {|
         (relation p (i64)) (relation q (i64))
         (rule ((p x)) ((q x)))                       ; applied first: mutates
         (rule ((p x)) ((panic "boom")))              ; applied second: fails
         (p 1) (p 2) (p 3)
       |});
  let probes = [ "(print-size q)"; "(check (p 2))" ] in
  let before = fingerprint eng probes in
  let err = expect_error eng "run fails" "(run 5)" in
  Alcotest.(check bool) "panic surfaced" true (contains err "boom");
  Alcotest.(check string) "state rolled back bit-identically" before (fingerprint eng probes);
  (* and the session stays usable *)
  ignore (expect_ok eng "usable" "(p 4) (check (p 4))")

let test_rollback_merge_conflict () =
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" "(function f (i64) i64) (set (f 0) 1)");
  let probes = [ "(check (= (f 0) 1))" ] in
  let before = fingerprint eng probes in
  let err = expect_error eng "conflict" "(set (f 0) 2)" in
  Alcotest.(check bool) "structured merge error" true
    (contains err "merge conflict on function f");
  Alcotest.(check string) "rolled back" before (fingerprint eng probes)

let test_rollback_primitive_failure () =
  let eng = E.Engine.create () in
  ignore
    (expect_ok eng "setup"
       {|
         (function acc (i64) i64 :merge new)
         (relation seen (i64))
         (rule ((seen x)) ((set (acc x) (* x 2))))
         (rule ((seen x)) ((set (acc (+ x 100)) (/ 1 (- x x)))))  ; div by zero
         (seen 7)
       |});
  let before = fingerprint eng [ "(print-stats)" ] in
  let err = expect_error eng "run fails" "(run 3)" in
  Alcotest.(check bool) "division by zero surfaced" true
    (contains err "division by zero" || contains err "failed on");
  Alcotest.(check string) "rolled back" before (fingerprint eng [ "(print-stats)" ])

let test_rollback_under_nested_push () =
  let eng = E.Engine.create () in
  ignore
    (expect_ok eng "setup"
       {|
         (relation p (i64)) (relation q (i64))
         (rule ((p x)) ((q x)))
         (rule ((q x)) ((panic "nested boom")))
         (push)
         (p 1)
         (push)
         (p 2)
       |});
  let probes = [ "(print-size p)"; "(print-size q)" ] in
  let before = fingerprint eng probes in
  ignore (expect_error eng "fails" "(run 5)");
  Alcotest.(check string) "rolled back inside nested scopes" before (fingerprint eng probes);
  (* both pops still restore their snapshots *)
  ignore (expect_ok eng "pop inner" "(pop) (check (p 1)) (fail (check (p 2)))");
  ignore (expect_ok eng "pop outer" "(pop) (fail (check (p 1)))")

(* An (include ...) runs as one command, so its file can (pop) into the
   outer (push) scope — making a stack snapshot the live database — mutate
   it in every way a command can, and then fail. Rollback must undo those
   writes in the snapshot it popped into, and restore the stack with that
   snapshot still on it. *)
let test_rollback_include_pops_into_outer_scope () =
  let setup =
    {|
      (datatype M (Num i64) (Add M M))
      (function cost (i64) i64)
      (relation p (i64))
      (rewrite (Add (Num x) (Num y)) (Num (+ x y)))
      (p 1)
      (let a (Add (Num 1) (Num 2)))
      (push)
      (p 2)
      (union (Num 3) (Num 4))
    |}
  in
  let file = Filename.temp_file "pop_into_outer" ".egg" in
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        {|
          (pop)
          (p 5)
          (delete (p 1))
          (union (Num 1) (Num 5))
          (let b (Add (Num 5) (Num 5)))
          (function extra (i64) i64)
          (set (extra 1) 1)
          (set (cost 1) 1)
          (run 2)
          (set (cost 1) 2)
        |});
  let eng = E.Engine.create () and reference = E.Engine.create () in
  ignore (expect_ok eng "setup" setup);
  ignore (expect_ok reference "reference setup" setup);
  let err = expect_error eng "include fails" (Printf.sprintf "(include %S)" file) in
  Sys.remove file;
  Alcotest.(check bool)
    "merge conflict surfaced" true
    (contains err "merge conflict on function cost");
  Alcotest.(check int) "still one scope deep" 1 (E.Engine.scope_depth eng);
  Alcotest.(check string) "dump equals a run without the failed command"
    (E.Serialize.dump_string reference) (E.Serialize.dump_string eng);
  let pop engine = ignore (expect_ok engine "pop" "(pop)") in
  pop eng;
  pop reference;
  Alcotest.(check string) "dump after the later pop equals the reference"
    (E.Serialize.dump_string reference) (E.Serialize.dump_string eng);
  ignore
    (expect_ok eng "outer scope intact" "(check (p 1)) (fail (check (p 5))) (fail (check (p 2)))");
  ignore
    (expect_ok eng "names declared by the include are gone"
       "(function extra (i64) i64) (let b (Num 0))")

let test_failed_declaration_keeps_schema_clean () =
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" "(sort S)");
  (* datatype fails late: the sort is declared, then a variant references an
     unknown type — the whole declaration must unwind *)
  let _err = expect_error eng "bad datatype" "(datatype T (Mk Nonexistent))" in
  ignore (expect_ok eng "T reusable" "(datatype T (Mk i64)) (define t (Mk 3)) (check (= t (Mk 3)))")

let test_pop_on_empty_stack_is_safe () =
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" "(relation p (i64)) (p 1)");
  let before = fingerprint eng [ "(print-size p)" ] in
  ignore (expect_error eng "pop fails" "(pop)");
  Alcotest.(check string) "unchanged" before (fingerprint eng [ "(print-size p)" ]);
  ignore (expect_ok eng "usable" "(check (p 1))")

(* A pop undoes the declarations made in its scope, rulesets included. *)
let test_pop_forgets_scoped_ruleset () =
  let eng = E.Engine.create () in
  ignore (expect_ok eng "declare again after the pop" "(push) (ruleset r) (pop) (ruleset r)")

let test_pop_forgets_scoped_rules () =
  let eng = E.Engine.create () in
  ignore
    (expect_ok eng "setup"
       "(relation p (i64)) (p 1) (push) (ruleset r) (rule ((p x)) ((p (+ x 1))) :ruleset r) \
        (pop)");
  let err = expect_error eng "the popped ruleset is gone" "(run-schedule (run r 3))" in
  Alcotest.(check bool) "unknown ruleset" true (contains err "unknown ruleset r");
  Alcotest.(check int) "no rule ran" 1 (E.Engine.table_size eng "p")

(* A request pops a scope an earlier request opened, so the pop undoes the
   allocation of x's id; the request's next allocation reuses that id for
   another sort, then the request fails. The rollback must give the id its
   old sort back: the dump must equal one of an engine that never ran the
   request, before and after the reopened scope is popped. *)
let test_rollback_restores_reused_id_sort () =
  let setup = "(datatype A (a)) (datatype B (b)) (push) (let x (a))" in
  let request = [ "(pop)"; "(let y (b))"; "(panic \"fail\")" ] in
  let eng = E.Engine.create () and replay = E.Engine.create () in
  E.Engine.with_transaction eng (fun () -> ignore (expect_ok eng "setup" setup));
  ignore (expect_ok replay "setup" setup);
  (match
     E.Engine.with_transaction eng (fun () ->
         List.iter (fun c -> ignore (E.run_string eng c)) request)
   with
   | () -> Alcotest.fail "the request should fail"
   | exception E.Egglog_error _ -> ());
  Alcotest.(check string) "dump after the rollback" (E.Serialize.dump_string replay)
    (E.Serialize.dump_string eng);
  ignore (expect_ok eng "pop" "(pop)");
  ignore (expect_ok replay "pop" "(pop)");
  Alcotest.(check string) "dump after the pop" (E.Serialize.dump_string replay)
    (E.Serialize.dump_string eng)

let test_failed_check_rolls_back_side_effects () =
  (* a check on a get-or-default function would otherwise insert fresh ids *)
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" "(datatype M (Mk i64)) (sort S) (function g (M) S)");
  let before = E.Serialize.dump_string eng in
  ignore (expect_error eng "check fails" "(check (= (Mk 1) (Mk 2)))");
  Alcotest.(check string) "no residue" before (E.Serialize.dump_string eng)

(* ---- REPL paren-balance reader ---- *)

let balance_testable =
  Alcotest.testable
    (fun fmt b ->
      Format.pp_print_string fmt
        (match b with
         | E.Frontend.Balanced -> "Balanced"
         | E.Frontend.Incomplete -> "Incomplete"
         | E.Frontend.Unbalanced -> "Unbalanced"))
    ( = )

let test_paren_balance () =
  let check msg expected src =
    Alcotest.check balance_testable msg expected (E.Frontend.paren_balance src)
  in
  check "complete command" E.Frontend.Balanced "(check (p 1))";
  check "open paren" E.Frontend.Incomplete "(rule ((p x))";
  check "paren in string literal" E.Frontend.Balanced {|(panic "(")|};
  check "open paren in string does not hang" E.Frontend.Balanced {|(include "dir(1)/f.egg")|};
  check "unterminated string wants more input" E.Frontend.Incomplete {|(panic "oops|};
  check "escaped quote stays in string" E.Frontend.Incomplete {|(panic "a\"b|};
  check "paren in comment ignored" E.Frontend.Balanced "(p 1) ; (unclosed\n";
  check "comment ends at newline" E.Frontend.Incomplete "; (\n(p 1";
  check "stray close paren" E.Frontend.Unbalanced "(p 1))";
  check "stray close after balanced" E.Frontend.Unbalanced ")";
  check "empty input" E.Frontend.Balanced ""

(* ---- structured errors ---- *)

let test_structured_merge_conflict_payload () =
  let db = E.Database.create () in
  let f =
    {
      E.Schema.name = E.Symbol.intern "cnt";
      arg_tys = [| E.Ty.Int |];
      ret_ty = E.Ty.Int;
      merge = E.Schema.Merge_panic;
      default = E.Schema.Default_panic;
      cost = 1;
      is_relation = false;
    }
  in
  E.Database.declare_func db f;
  let table = Option.get (E.Database.find_func db (E.Symbol.intern "cnt")) in
  E.Database.set db table [| E.Value.VInt 0 |] (E.Value.VInt 1);
  match E.Database.set db table [| E.Value.VInt 0 |] (E.Value.VInt 2) with
  | () -> Alcotest.fail "expected Merge_conflict"
  | exception E.Database.Merge_conflict { func; old_value; new_value } ->
    Alcotest.(check string) "function name" "cnt" (E.Symbol.name func);
    Alcotest.(check bool) "payload values" true
      (old_value = E.Value.VInt 1 && new_value = E.Value.VInt 2)

let test_run_command_normalizes_internal_errors () =
  (* through the command layer the same failure is a plain Egglog_error *)
  let eng = E.Engine.create () in
  ignore (expect_ok eng "setup" "(function cnt (i64) i64) (set (cnt 0) 1)");
  let err = expect_error eng "conflict" "(set (cnt 0) 2)" in
  Alcotest.(check bool) "carries function name" true (contains err "cnt")

let () =
  Alcotest.run "robustness"
    [
      ( "budgets",
        [
          Alcotest.test_case "node limit stops an explosive ruleset" `Quick test_node_limit;
          Alcotest.test_case "node limit via (run :node-limit)" `Quick test_node_limit_syntax;
          Alcotest.test_case "time limit stops an explosive ruleset" `Quick test_time_limit;
          Alcotest.test_case "per-rule match statistics" `Quick test_rule_stats;
          Alcotest.test_case "until stops exactly when derivable" `Quick test_until_exact;
          Alcotest.test_case "until satisfied at entry" `Quick test_until_satisfied_at_entry;
          Alcotest.test_case "seminaive and naive agree at until-stop" `Quick test_until_modes_agree;
          Alcotest.test_case "until via textual syntax" `Quick test_until_textual;
          Alcotest.test_case "malformed run options are rejected" `Quick test_run_option_errors;
          Alcotest.test_case "schedules respect session budgets" `Quick test_schedule_under_budget;
        ] );
      ( "memory",
        [
          Alcotest.test_case "memory limit stops an explosive ruleset" `Quick test_memory_limit;
          Alcotest.test_case "memory stop is deterministic across runs" `Quick
            test_memory_limit_deterministic_across_runs;
          Alcotest.test_case "memory limit via (run :memory-limit)" `Quick
            test_memory_limit_syntax;
          Alcotest.test_case ":memory-limit round-trips through the printer" `Quick
            test_memory_limit_roundtrip;
          Alcotest.test_case "pressure tiers degrade before the stop" `Quick
            test_memory_pressure_degrades;
          Alcotest.test_case "rollback restores the byte model exactly" `Quick
            test_modeled_bytes_exact_after_rollback;
          Alcotest.test_case "run budget counts an open scope's trail" `Quick
            test_memory_limit_counts_scope_trail;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "mid-run failure rolls back" `Quick test_rollback_mid_run_failure;
          Alcotest.test_case "merge conflict rolls back" `Quick test_rollback_merge_conflict;
          Alcotest.test_case "primitive failure rolls back" `Quick test_rollback_primitive_failure;
          Alcotest.test_case "rollback under nested push/pop" `Quick test_rollback_under_nested_push;
          Alcotest.test_case "rollback after an include pops into an outer scope" `Quick
            test_rollback_include_pops_into_outer_scope;
          Alcotest.test_case "failed declaration unwinds" `Quick
            test_failed_declaration_keeps_schema_clean;
          Alcotest.test_case "pop on empty stack is safe" `Quick test_pop_on_empty_stack_is_safe;
          Alcotest.test_case "pop forgets a scoped ruleset" `Quick test_pop_forgets_scoped_ruleset;
          Alcotest.test_case "pop forgets a scoped ruleset's rules" `Quick
            test_pop_forgets_scoped_rules;
          Alcotest.test_case "rollback restores a reused id's sort" `Quick
            test_rollback_restores_reused_id_sort;
          Alcotest.test_case "failed check leaves no residue" `Quick
            test_failed_check_rolls_back_side_effects;
        ] );
      ( "repl",
        [ Alcotest.test_case "paren balance: strings, comments, strays" `Quick test_paren_balance ] );
      ( "errors",
        [
          Alcotest.test_case "merge conflict carries context" `Quick
            test_structured_merge_conflict_payload;
          Alcotest.test_case "command layer normalizes errors" `Quick
            test_run_command_normalizes_internal_errors;
        ] );
    ]
