(* The parallel search phase: pool mechanics, the determinism contract
   (dumps and reports byte-identical across jobs values), and domain-safe
   telemetry.

   The determinism stress runs a fig7-style workload — the math suite
   under the BackOff scheduler — because it exercises everything at once:
   many rules, semi-naïve delta variants, primitives, bans, and rebuilds
   between iterations. *)

module E = Egglog

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_pool_empty () =
  let pool = E.Pool.create ~workers:2 in
  Fun.protect
    ~finally:(fun () -> E.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check (array int)) "empty batch" [||] (E.Pool.run pool (fun x -> x) [||]);
      Alcotest.(check (array int)) "single task" [| 42 |] (E.Pool.run pool (fun x -> x * 2) [| 21 |]))

let test_pool_input_order () =
  let pool = E.Pool.create ~workers:3 in
  Fun.protect
    ~finally:(fun () -> E.Pool.shutdown pool)
    (fun () ->
      let tasks = Array.init 257 (fun i -> i) in
      let expect = Array.map (fun i -> i * i) tasks in
      for _ = 1 to 5 do
        Alcotest.(check (array int)) "results land at their task index" expect
          (E.Pool.run pool (fun i -> i * i) tasks)
      done)

let test_pool_exception_propagates () =
  let pool = E.Pool.create ~workers:2 in
  Fun.protect
    ~finally:(fun () -> E.Pool.shutdown pool)
    (fun () ->
      let f i = if i = 3 || i = 7 then failwith (Printf.sprintf "task %d" i) else i in
      (* lowest failing index wins, matching a serial loop's failure order *)
      (match E.Pool.run pool f (Array.init 10 (fun i -> i)) with
       | _ -> Alcotest.fail "expected the batch to raise"
       | exception Failure msg -> Alcotest.(check string) "lowest index's error" "task 3" msg);
      (* the pool survives a failed batch *)
      Alcotest.(check (array int)) "pool usable after failure" [| 0; 2; 4 |]
        (E.Pool.run pool (fun i -> 2 * i) [| 0; 1; 2 |]))

let test_pool_nested_rejected () =
  let pool = E.Pool.create ~workers:1 in
  Fun.protect
    ~finally:(fun () -> E.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "not in a task outside" false (E.Pool.in_task ());
      let results =
        E.Pool.run pool
          (fun _ ->
            if not (E.Pool.in_task ()) then `No_task_flag
            else
              match E.Pool.run pool (fun x -> x) [| 1 |] with
              | _ -> `Nested_ran
              | exception Invalid_argument _ -> `Rejected)
          [| 0; 1; 2 |]
      in
      Array.iter
        (fun r ->
          Alcotest.(check bool) "nested run raises Invalid_argument inside a task" true
            (r = `Rejected))
        results)

(* ------------------------------------------------------------------ *)
(* Determinism stress: fig7-style workload across jobs values          *)
(* ------------------------------------------------------------------ *)

(* Everything in a run_report except wall-clock noise. *)
let report_fingerprint (r : E.Engine.run_report) =
  ( List.map
      (fun (s : E.Engine.iteration_stat) ->
        (s.it_index, s.it_rows, s.it_classes, s.it_changed, s.it_matches, s.it_delta_rows))
      r.iterations,
    r.stop_reason,
    r.rule_stats )

let math_run ~jobs ~iters =
  let eng = E.Engine.create ~scheduler:E.Engine.backoff_default ~jobs () in
  ignore (E.run_string eng (Math_suite.egglog_program ()));
  let report = E.Engine.run_iterations eng iters in
  (E.Serialize.dump_string eng, report)

let test_determinism_stress () =
  let iters = 5 in
  let serial_dump, serial_report = math_run ~jobs:1 ~iters in
  Alcotest.(check int) "serial report records jobs=1" 1 serial_report.E.Engine.jobs;
  Alcotest.(check bool) "workload is non-trivial" true (String.length serial_dump > 1000);
  let serial_fp = report_fingerprint serial_report in
  for rep = 1 to 10 do
    List.iter
      (fun jobs ->
        let dump, report = math_run ~jobs ~iters in
        let label what = Printf.sprintf "rep %d jobs %d: %s == serial" rep jobs what in
        Alcotest.(check bool) (label "dump bytes") true (dump = serial_dump);
        Alcotest.(check bool)
          (label "per-iteration and per-rule match counts")
          true
          (report_fingerprint report = serial_fp);
        Alcotest.(check int) "report records resolved jobs" jobs report.E.Engine.jobs)
      [ 2; 4; 8 ]
  done

let test_jobs_zero_resolves () =
  (* jobs 0 = one domain per core; still deterministic, report shows the
     resolved count *)
  let serial_dump, _ = math_run ~jobs:1 ~iters:3 in
  let dump, report = math_run ~jobs:0 ~iters:3 in
  Alcotest.(check bool) "jobs 0 dump == serial" true (dump = serial_dump);
  Alcotest.(check bool) "jobs 0 resolves to >= 1" true (report.E.Engine.jobs >= 1)

let test_negative_jobs_rejected () =
  (match E.Engine.create ~jobs:(-1) () with
   | _ -> Alcotest.fail "create ~jobs:(-1) should raise"
   | exception E.Egglog_error _ -> ());
  let eng = E.Engine.create () in
  ignore (E.run_string eng "(relation r (i64)) (r 1)");
  match E.Engine.run_iterations ~jobs:(-3) eng 1 with
  | _ -> Alcotest.fail "run_iterations ~jobs:(-3) should raise"
  | exception E.Egglog_error _ -> ()

let test_jobs_keyword_roundtrip () =
  (* (run ... :jobs N) parses, runs, and survives the printer round-trip *)
  let eng = E.Engine.create () in
  let out =
    E.run_string eng
      {|
      (relation edge (i64 i64))
      (relation path (i64 i64))
      (rule ((edge x y)) ((path x y)))
      (rule ((path x y) (edge y z)) ((path x z)))
      (edge 1 2) (edge 2 3) (edge 3 4)
      (run 10 :jobs 4)
      (check (path 1 4))
    |}
  in
  ignore out;
  Alcotest.(check int) "transitive closure complete" 6 (E.Engine.table_size eng "path");
  (* rejected at parse time, like a malformed :node-limit *)
  (match E.run_string (E.Engine.create ()) "(run 1 :jobs -2)" with
   | _ -> Alcotest.fail "negative :jobs should be rejected"
   | exception E.Frontend.Syntax_error _ -> ());
  let printed =
    String.concat " " (List.map E.Frontend.command_to_string (E.Frontend.parse_program "(run 3 :jobs 2)"))
  in
  Alcotest.(check string) ":jobs survives the printer round-trip" printed
    (String.concat " " (List.map E.Frontend.command_to_string (E.Frontend.parse_program printed)))

(* ------------------------------------------------------------------ *)
(* Telemetry: sharded counters                                         *)
(* ------------------------------------------------------------------ *)

let test_sharded_counter_sum () =
  let pool = E.Pool.create ~workers:3 in
  Fun.protect
    ~finally:(fun () ->
      E.Telemetry.disable ();
      E.Telemetry.reset ();
      E.Pool.shutdown pool)
    (fun () ->
      E.Telemetry.reset ();
      E.Telemetry.enable ();
      let c = E.Telemetry.counter "test.sharded" in
      let n_tasks = 100 in
      (* every task bumps from whichever domain runs it; the snapshot must
         see the exact total regardless of how chunks were distributed *)
      ignore (E.Pool.run pool (fun i -> E.Telemetry.bump c (i + 1)) (Array.init n_tasks Fun.id));
      E.Telemetry.disable ();
      let snap = E.Telemetry.snapshot () in
      let value name = Option.value ~default:0 (List.assoc_opt name snap.E.Telemetry.sn_counters) in
      Alcotest.(check int) "shards sum to the serial total" (n_tasks * (n_tasks + 1) / 2)
        (value "test.sharded");
      Alcotest.(check int) "pool.tasks counted every task" n_tasks (value "pool.tasks"))

(* Counters whose totals are scheduling-independent: the engine does the
   same logical work at any jobs value, and every join-cache entry is
   built or patched once, by whichever search asks first, so these must
   match serial runs exactly. Each is non-zero on this workload. *)
let stable_counters =
  [ "engine.iterations"; "engine.matches_applied"; "engine.tuples_inserted";
    "join.matches_yielded"; "db.unions"; "rebuild.rounds"; "join.tuples_scanned";
    "join.index_builds"; "join.trie_builds"; "join.cache_lookups"; "join.cache_hits";
    "join.cache_misses"; "join.index_patched"; "join.rows_retracted" ]

let test_engine_counters_match_serial () =
  let measure ~jobs =
    E.Telemetry.reset ();
    E.Telemetry.enable ();
    ignore (math_run ~jobs ~iters:4);
    E.Telemetry.disable ();
    let snap = E.Telemetry.snapshot () in
    List.map
      (fun name -> (name, Option.value ~default:0 (List.assoc_opt name snap.E.Telemetry.sn_counters)))
      stable_counters
  in
  Fun.protect
    ~finally:(fun () ->
      E.Telemetry.disable ();
      E.Telemetry.reset ())
    (fun () ->
      let serial = measure ~jobs:1 in
      let parallel = measure ~jobs:4 in
      List.iter2
        (fun (name, a) (_, b) ->
          Alcotest.(check int) (Printf.sprintf "%s equal at jobs 1 and 4" name) a b;
          Alcotest.(check bool) (Printf.sprintf "%s is non-zero" name) true (a > 0))
        serial parallel)

(* ------------------------------------------------------------------ *)
(* Fresh symbol interning during parallel search                       *)
(* ------------------------------------------------------------------ *)

(* Rules whose primitives mint fresh strings (str-cat / to-string) while
   the search phase runs — under parallel search those interns happen on
   worker domains against thread-local speculative tables and get their
   real ids assigned in canonical merge order, so dumps (including sets of
   strings, which sort by symbol id) must be byte-identical at any jobs
   value. This was the documented caveat of the first parallel-search PR;
   it is now a hard guarantee. *)
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
  let dump ~jobs =
    let eng = E.Engine.create ~jobs () in
    ignore (E.Engine.run_program eng (E.Frontend.parse_program fresh_symbol_prog));
    E.Serialize.dump_string eng
  in
  let serial = dump ~jobs:1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "fresh-symbol dump at jobs %d == serial" jobs)
        serial (dump ~jobs))
    [ 2; 4; 0 ]

(* ------------------------------------------------------------------ *)
(* Merge storm: jobs 1/2/4 vs a naive reference closure                *)
(* ------------------------------------------------------------------ *)

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
   storm forces multi-round congruence repair after the parallel search. *)
let storm_prog =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "(datatype N (Mk i64))\n\
     (relation link (i64 i64))\n\
     (rule ((link x y)) ((union (Mk x) (Mk y))))\n";
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "(link %d %d)\n" a b))
    storm_links;
  Buffer.contents buf

(* Run the storm and capture everything the differential needs: final
   bytes, the report fingerprint, and the scheduling-independent rebuild
   round count. *)
let storm_run ~jobs =
  E.Telemetry.reset ();
  E.Telemetry.enable ();
  let eng = E.Engine.create ~jobs () in
  ignore (E.run_string eng storm_prog);
  let report = E.Engine.run_iterations eng 3 in
  E.Telemetry.disable ();
  let snap = E.Telemetry.snapshot () in
  let counter name = List.assoc_opt name snap.E.Telemetry.sn_counters in
  (eng, E.Serialize.dump_string eng, report_fingerprint report, counter)

let test_merge_storm () =
  Fun.protect
    ~finally:(fun () ->
      E.Telemetry.disable ();
      E.Telemetry.reset ())
    (fun () ->
      let _, serial_dump, serial_fp, serial_counter = storm_run ~jobs:1 in
      let serial_rounds = Option.value ~default:0 (serial_counter "rebuild.rounds") in
      Alcotest.(check bool) "storm forces congruence repair" true (serial_rounds > 0);
      let eng4 =
        List.fold_left
          (fun _ jobs ->
            let eng, dump, fp, counter = storm_run ~jobs in
            let label what = Printf.sprintf "jobs %d: %s == serial" jobs what in
            Alcotest.(check bool) (label "dump bytes") true (dump = serial_dump);
            Alcotest.(check bool) (label "report fingerprint") true (fp = serial_fp);
            Alcotest.(check int) (label "rebuild round count") serial_rounds
              (Option.value ~default:0 (counter "rebuild.rounds"));
            eng)
          (E.Engine.create ())
          [ 2; 4 ]
      in
      (* Naive reference closure: a textbook union-find over the raw i64
         labels, fed the same link list. Every equality it derives must
         hold in the engine, and every inequality must fail to check. *)
      let parent = Array.init storm_nodes Fun.id in
      let rec find i = if parent.(i) = i then i else begin
        let r = find parent.(i) in
        parent.(i) <- r;
        r
      end in
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
            ignore (E.run_string eng4 (Printf.sprintf "(check (= (Mk %d) (Mk %d)))" a b))
          end
          else begin
            incr neq_probes;
            ignore (E.run_string eng4 (Printf.sprintf "(fail (check (= (Mk %d) (Mk %d))))" a b))
          end
      done;
      Alcotest.(check bool) "probed equalities" true (!eq_probes > 10);
      Alcotest.(check bool) "probed inequalities" true (!neq_probes > 10))

let test_domains_used_gauge () =
  Fun.protect
    ~finally:(fun () ->
      E.Telemetry.disable ();
      E.Telemetry.reset ())
    (fun () ->
      E.Telemetry.reset ();
      E.Telemetry.enable ();
      ignore (math_run ~jobs:4 ~iters:2);
      E.Telemetry.disable ();
      let snap = E.Telemetry.snapshot () in
      match List.assoc_opt "search.domains_used" snap.E.Telemetry.sn_counters with
      | Some n -> Alcotest.(check int) "gauge records the resolved jobs" 4 n
      | None -> Alcotest.fail "search.domains_used missing from snapshot")

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "empty and single batches" `Quick test_pool_empty;
          Alcotest.test_case "results in input order" `Quick test_pool_input_order;
          Alcotest.test_case "exception propagates, pool survives" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "nested run rejected" `Quick test_pool_nested_rejected;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig7-style stress: jobs 2/4/8 == serial (10 reps)" `Slow
            test_determinism_stress;
          Alcotest.test_case "jobs 0 resolves to core count" `Quick test_jobs_zero_resolves;
          Alcotest.test_case "negative jobs rejected" `Quick test_negative_jobs_rejected;
          Alcotest.test_case ":jobs keyword parses, runs, round-trips" `Quick
            test_jobs_keyword_roundtrip;
          Alcotest.test_case "fresh symbol interning deterministic across jobs" `Quick
            test_fresh_interning_deterministic;
          Alcotest.test_case "merge storm: jobs 2/4 == serial == naive closure" `Slow
            test_merge_storm;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "sharded counters sum exactly" `Quick test_sharded_counter_sum;
          Alcotest.test_case "scheduling-independent counters match serial" `Quick
            test_engine_counters_match_serial;
          Alcotest.test_case "search.domains_used gauge" `Quick test_domains_used_gauge;
        ] );
    ]
