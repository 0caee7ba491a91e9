(* The telemetry subsystem: deterministic fake clock, span begin/end
   balance (including across exceptions), counter exactness on a program
   whose match counts are derivable by hand, JSONL round-trips through the
   JSON printer/parser, and the fully disabled path recording nothing. *)

module E = Egglog
module T = Egglog.Telemetry
module J = T.Json

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Every test starts from a clean slate and leaves one behind: the module
   state is global, exactly like Fault's. *)
let fresh () =
  T.disable ();
  T.reset ();
  T.use_default_clock ()

(* A clock that advances one second per reading. *)
let install_ticker () =
  let t = ref 0.0 in
  T.set_clock (fun () ->
      t := !t +. 1.0;
      !t)

let with_sink f =
  let events = ref [] in
  T.enable ~sink:(fun line -> events := line :: !events) ();
  f ();
  T.disable ();
  List.rev_map J.parse !events

let field name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "event %s lacks field %s" (J.to_string j) name

let str_field name j =
  match field name j with
  | J.Str s -> s
  | _ -> Alcotest.failf "field %s is not a string in %s" name (J.to_string j)

let int_field name j =
  match field name j with
  | J.Int n -> n
  | _ -> Alcotest.failf "field %s is not an int in %s" name (J.to_string j)

(* ---- fake clock ---- *)

let test_fake_clock () =
  fresh ();
  install_ticker ();
  (* disabled timed_span reads the clock exactly twice *)
  let dt, v = T.timed_span "t" (fun () -> 41 + 1) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check (float 1e-9)) "duration is one tick" 1.0 dt;
  (* now() keeps ticking deterministically *)
  let a = T.now () and b = T.now () in
  Alcotest.(check (float 1e-9)) "one tick apart" 1.0 (b -. a);
  fresh ()

(* ---- span nesting and balance ---- *)

let test_span_balance () =
  fresh ();
  install_ticker ();
  let events =
    with_sink (fun () ->
        T.span "outer" (fun () ->
            T.span "inner" (fun () -> ());
            (try T.span "boom" (fun () -> raise Exit) with Exit -> ())))
  in
  let sig_of e = (str_field "ev" e, str_field "name" e, int_field "depth" e) in
  Alcotest.(check (list (triple string string int)))
    "b/e pairing and depth"
    [
      ("b", "outer", 0);
      ("b", "inner", 1);
      ("e", "inner", 1);
      ("b", "boom", 1);
      ("e", "boom", 1);  (* closed even though the body raised *)
      ("e", "outer", 0);
    ]
    (List.map sig_of events);
  (* timestamps never go backwards *)
  let ts =
    List.map (fun e -> match field "t" e with J.Float t -> t | J.Int t -> float_of_int t | _ -> nan) events
  in
  let rec sorted = function a :: (b :: _ as rest) -> a <= b && sorted rest | _ -> true in
  Alcotest.(check bool) "timestamps nondecreasing" true (sorted ts);
  fresh ()

(* ---- counter exactness ---- *)

(* Three-edge chain, transitive closure. Semi-naïve, by hand:
   iter 1: base rule fires on the 3 edges (3 matches, 3 inserts);
   iter 2: the 3 new paths join edges at 2 places (2 matches, 2 inserts);
   iter 3: 1 match, 1 insert;  iter 4: nothing — saturated.
   Totals: 4 iterations, 6 matches, 6 inserts, 0 duplicates, 0 unions. *)
let path_program =
  {|
  (relation edge (i64 i64))
  (relation path (i64 i64))
  (rule ((edge a b)) ((path a b)))
  (rule ((path a b) (edge b c)) ((path a c)))
  (edge 1 2) (edge 2 3) (edge 3 4)
  (run 10)
|}

let counter_value snap name =
  match List.assoc_opt name snap.T.sn_counters with Some n -> n | None -> 0

let test_counters_hand_counted () =
  fresh ();
  T.enable ();
  let eng = E.Engine.create () in
  ignore (E.run_string eng path_program);
  T.disable ();
  let snap = T.snapshot () in
  let check name expected =
    Alcotest.(check int) name expected (counter_value snap name)
  in
  check "engine.iterations" 4;
  check "engine.matches_applied" 6;
  check "engine.tuples_inserted" 6;
  check "engine.matches_deduplicated" 0;
  check "db.unions" 0;
  check "scheduler.bans" 0;
  (* the span histograms exist: one iteration observation per iteration,
     and search time fits inside iteration time *)
  let hist name = List.assoc_opt name snap.T.sn_hists in
  (match (hist "engine.iteration_s", hist "engine.search_s") with
   | Some it, Some se ->
     Alcotest.(check int) "iteration count" 4 it.T.hs_count;
     Alcotest.(check int) "iteration count = engine.iterations"
       (counter_value snap "engine.iterations") it.T.hs_count;
     Alcotest.(check bool) "search fits in iteration" true (se.T.hs_sum <= it.T.hs_sum)
   | _ -> Alcotest.fail "missing engine span histograms");
  fresh ()

(* ---- one observation per span ---- *)

let span_hist name = T.hist_snap_of (T.histogram (name ^ "_s"))

(* Each span adds exactly one observation, its own duration, to the
   histogram named after it: a second recorder of the same duration
   would show up as a doubled count. Under the ticker every span lasts
   one tick per clock read inside it, plus one. *)
let test_one_observation_per_span () =
  fresh ();
  install_ticker ();
  T.enable ();
  T.span "test.plain" (fun () -> ());
  let dt, () = T.timed_span "test.timed" (fun () -> ignore (T.now ())) in
  (try T.span "test.raising" (fun () -> raise Exit) with Exit -> ());
  T.disable ();
  List.iter
    (fun (name, expected) ->
      let hs = span_hist name in
      Alcotest.(check int) (name ^ " count") 1 hs.T.hs_count;
      Alcotest.(check (float 0.0)) (name ^ " sum") expected hs.T.hs_sum)
    [ ("test.plain", 1.0); ("test.timed", 2.0); ("test.raising", 1.0) ];
  Alcotest.(check (float 0.0)) "timed_span returns the recorded duration" 2.0 dt;
  (* one search span per iteration *)
  fresh ();
  T.enable ();
  ignore (E.run_string (E.Engine.create ()) path_program);
  T.disable ();
  let snap = T.snapshot () in
  Alcotest.(check int) "engine.search_s count = engine.iterations"
    (counter_value snap "engine.iterations") (span_hist "engine.search").T.hs_count;
  fresh ()

(* Transaction counters: a committed command replays nothing; a failed one
   counts one rollback and exactly the inverses its writes recorded. *)
let test_txn_counters_hand_counted () =
  fresh ();
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       {|
  (relation p (i64))
  (relation q (i64))
  (relation r (i64))
  (rule ((p x)) ((q x) (r x) (panic "boom")))
|});
  T.enable ();
  ignore (E.run_string eng "(p 1)");
  let committed = T.snapshot () in
  Alcotest.(check int) "commit: no rollback" 0 (counter_value committed "txn.rollbacks");
  Alcotest.(check int) "commit: nothing undone" 0 (counter_value committed "txn.undone");
  (match E.run_string eng "(run 1)" with
   | _ -> Alcotest.fail "the run should panic"
   | exception E.Engine.Egglog_error _ -> ());
  T.disable ();
  let failed = T.snapshot () in
  Alcotest.(check int) "failure: one rollback" 1 (counter_value failed "txn.rollbacks");
  (* the iteration's timestamp bump (1), then the match's two inserts
     before the panic, each inverting its row and the change counter (2 x 2) *)
  Alcotest.(check int) "failure: hand-counted inverses" 5 (counter_value failed "txn.undone");
  Alcotest.(check int) "rolled back" 0 (E.Engine.table_size eng "q");
  fresh ()

(* Duplicate derivations: a second rule re-deriving the same base paths
   must count as matches that deduplicate, not as inserts. *)
let test_deduplicated_matches () =
  fresh ();
  T.enable ();
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       {|
  (relation edge (i64 i64))
  (relation path (i64 i64))
  (rule ((edge a b)) ((path a b)))
  (rule ((edge x y)) ((path x y)))
  (edge 1 2) (edge 2 3) (edge 3 4)
|});
  let report = E.Engine.run_iterations eng 10 in
  T.disable ();
  let snap = T.snapshot () in
  Alcotest.(check int) "matches" 6 (counter_value snap "engine.matches_applied");
  Alcotest.(check int) "inserted" 3 (counter_value snap "engine.tuples_inserted");
  Alcotest.(check int) "deduplicated" 3 (counter_value snap "engine.matches_deduplicated");
  let total_dedup =
    List.fold_left (fun acc (r : E.Engine.rule_stat) -> acc + r.rs_deduplicated) 0
      report.E.Engine.rule_stats
  in
  Alcotest.(check int) "rule_stats agree on dedup" 3 total_dedup;
  let total_inserted =
    List.fold_left (fun acc (r : E.Engine.rule_stat) -> acc + r.rs_inserted) 0
      report.E.Engine.rule_stats
  in
  Alcotest.(check int) "rule_stats agree on inserts" 3 total_inserted;
  fresh ()

(* ---- run_report printer ---- *)

let test_report_printer () =
  fresh ();
  let eng = E.Engine.create () in
  ignore (E.run_string eng "(relation edge (i64 i64)) (edge 1 2)");
  (* no rules at all: the report must not print a dangling rule table *)
  let report = E.Engine.run_iterations eng 3 in
  let out = Format.asprintf "%a" E.Engine.pp_run_report report in
  Alcotest.(check bool) "no empty rule table" false (contains out "rule");
  Alcotest.(check bool) "has summary" true (contains out "iteration(s)");
  (* with rules, the table appears with the new columns *)
  let eng2 = E.Engine.create () in
  ignore (E.run_string eng2 path_program) |> ignore;
  ignore
    (E.run_string eng2 "(edge 4 5)");
  let report2 = E.Engine.run_iterations eng2 10 in
  let out2 = Format.asprintf "%a" E.Engine.pp_run_report report2 in
  Alcotest.(check bool) "rule table present" true (contains out2 "matches");
  Alcotest.(check bool) "dedup column present" true (contains out2 "dedup");
  fresh ()

(* ---- JSONL round-trip ---- *)

let test_jsonl_roundtrip () =
  fresh ();
  install_ticker ();
  let events =
    with_sink (fun () ->
        let eng = E.Engine.create () in
        ignore (E.run_string eng path_program);
        T.flush_counters ())
  in
  Alcotest.(check bool) "produced events" true (List.length events > 10);
  (* with the integer-stepping fake clock every float is exactly
     representable, so print -> parse is the identity *)
  List.iter
    (fun e ->
      let reparsed = J.parse (J.to_string e) in
      if reparsed <> e then
        Alcotest.failf "round-trip changed %s into %s" (J.to_string e) (J.to_string reparsed))
    events;
  (* every event carries the envelope fields *)
  List.iter
    (fun e ->
      ignore (str_field "ev" e);
      ignore (str_field "name" e))
    events;
  (* the flush included counters and aggregates *)
  let kinds = List.map (fun e -> str_field "ev" e) events in
  Alcotest.(check bool) "has counter flush" true (List.mem "c" kinds);
  Alcotest.(check bool) "has histogram flush" true (List.mem "h" kinds);
  fresh ()

let test_json_parser () =
  fresh ();
  let roundtrip j = Alcotest.(check bool) (J.to_string j) true (J.parse (J.to_string j) = j) in
  roundtrip (J.Obj [ ("a", J.List [ J.Int 1; J.Float 2.5; J.Null; J.Bool true ]) ]);
  roundtrip (J.Str "quote\" slash\\ newline\n tab\t");
  roundtrip (J.List []);
  roundtrip (J.Obj []);
  Alcotest.(check bool) "unicode escape" true (J.parse {|"A"|} = J.Str "A");
  (match J.parse "{\"x\": [1, {\"y\": null}]}" with
   | J.Obj _ -> ()
   | _ -> Alcotest.fail "nested parse");
  List.iter
    (fun bad ->
      match J.parse bad with
      | exception J.Parse_error _ -> ()
      | j -> Alcotest.failf "accepted %S as %s" bad (J.to_string j))
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ];
  fresh ()

(* A finite float prints as a decimal that parses back to the same float:
   as [Float], or as [Int] when the printed form is integral. *)
let json_float_round_trips x =
  match J.parse (J.to_string (J.Float x)) with
  | J.Float y -> y = x
  | J.Int n -> float_of_int n = x
  | _ -> false

let prop_json_float_round_trip =
  let gen =
    QCheck2.Gen.(
      oneof
        [
          float;
          map (fun (a, b) -> float_of_int a /. float_of_int b) (pair int (int_range 1 1000));
          map (fun e -> Float.ldexp 1.0 e) (int_range (-1074) 1023);
          map float_of_int int;
        ])
  in
  QCheck2.Test.make ~name:"finite floats round-trip through Json.to_string/parse" ~count:2000
    ~print:(Printf.sprintf "%h") gen (fun x ->
      QCheck2.assume (Float.is_finite x);
      json_float_round_trips x)

let test_json_float_exact () =
  List.iter
    (fun x -> Alcotest.(check bool) (Printf.sprintf "%h round-trips" x) true (json_float_round_trips x))
    [ Float.ldexp 1.0 (-20); 1.0 /. 3.0; Float.ldexp 1.0 40; 0.1; -0.0; Float.max_float; Float.min_float ];
  for b = 0 to 127 do
    let le = T.hist_bucket_le b in
    Alcotest.(check bool) (Printf.sprintf "bucket %d bound round-trips" b) true
      (json_float_round_trips le)
  done;
  Alcotest.(check string) "integral floats print without a point" "3" (J.to_string (J.Float 3.0));
  Alcotest.(check string) "non-finite prints as null" "null" (J.to_string (J.Float infinity))

(* ---- disabled path ---- *)

let test_disabled_records_nothing () =
  fresh ();
  (* capture events while enabled, then disable and keep poking *)
  let live = ref 0 in
  T.enable ~sink:(fun _ -> incr live) ();
  T.bump (T.counter "probe") 1;
  T.flush_counters ();
  let while_enabled = !live in
  Alcotest.(check bool) "sink saw the flush" true (while_enabled > 0);
  T.disable ();
  T.reset ();
  T.flightrec_clear ();
  let c = T.counter "test.disabled" in
  T.bump c 5;
  T.hist_record (T.histogram "test.hist") 1.0;
  T.instant "test.instant" [ ("x", J.Int 1) ];
  T.span "test.span" (fun () -> ());
  ignore (T.timed_span "test.timed" (fun () -> ()));
  T.flush_counters ();
  Alcotest.(check int) "no events after disable" while_enabled !live;
  let snap = T.snapshot () in
  Alcotest.(check int) "no counters" 0 (List.length snap.T.sn_counters);
  Alcotest.(check bool) "no hist observations" true
    (List.for_all (fun (_, h) -> h.T.hs_count = 0) snap.T.sn_hists);
  Alcotest.(check int) "flight recorder stays empty" 0
    (List.length (T.flightrec_events ()));
  Alcotest.(check bool) "reports disabled" false (T.is_enabled ());
  (* pp_table prints nothing at all for an empty snapshot *)
  Alcotest.(check string) "empty table" "" (Format.asprintf "%a" T.pp_table snap);
  fresh ()

(* ---- snapshot JSON ---- *)

let test_snapshot_json () =
  fresh ();
  T.enable ();
  T.bump (T.counter "alpha") 2;
  T.span "beta" (fun () -> ());
  T.disable ();
  let j = T.snapshot_to_json (T.snapshot ()) in
  (match j with
   | J.Obj fields ->
     Alcotest.(check (list string)) "top-level keys" [ "counters"; "hists" ] (List.map fst fields)
   | _ -> Alcotest.fail "snapshot JSON is not an object");
  (match J.member "counters" j with
   | Some (J.Obj [ ("alpha", J.Int 2) ]) -> ()
   | other ->
     Alcotest.failf "unexpected counters: %s"
       (match other with Some o -> J.to_string o | None -> "<missing>"));
  (match J.member "hists" j with
   | Some (J.Obj [ ("beta_s", obj) ]) -> Alcotest.(check int) "count" 1 (int_field "count" obj)
   | other ->
     Alcotest.failf "unexpected hists: %s"
       (match other with Some o -> J.to_string o | None -> "<missing>"));
  (* the rendered snapshot parses back to the same value *)
  Alcotest.(check bool) "snapshot JSON round-trips" true (J.parse (J.to_string j) = j);
  fresh ()

(* ---- join cache: stamp windows, patching, and accounting ---- *)

(* Empty deltas are the common case at a fixpoint: the log must report zero
   entries past the newest stamp and the change feed since a fresh mark
   must be empty. *)
let test_empty_delta_iteration () =
  fresh ();
  let eng = E.Engine.create () in
  ignore (E.run_string eng "(relation r (i64))");
  let db = E.Engine.database eng in
  let t =
    match E.Database.find_func db (E.Symbol.intern "r") with
    | Some t -> t
    | None -> Alcotest.fail "no table r"
  in
  let start = E.Table.mark t in
  ignore (E.run_string eng "(r 1) (r 2)");
  let now = E.Database.timestamp db in
  Alcotest.(check int) "no entries past the newest stamp" 0 (E.Table.entries_since t (now + 1));
  Alcotest.(check bool) "all entries from stamp zero" true (E.Table.entries_since t 0 >= 2);
  let changes m =
    match E.Table.changes_since t m with
    | Some changes -> Array.to_list changes
    | None -> Alcotest.fail "no inverse ran, yet the feed was cut"
  in
  Alcotest.(check int) "the feed since a fresh mark is empty" 0
    (List.length (changes (E.Table.mark t)));
  Alcotest.(check bool) "no write since a fresh mark" true
    (E.Table.unchanged_since t (E.Table.mark t));
  let since_start = changes start in
  Alcotest.(check int) "the feed since the start adds every surviving row" 2
    (List.length since_start);
  Alcotest.(check bool) "additions only" true
    (List.for_all
       (fun (c : E.Table.change) -> c.retracted = None && Option.is_some c.current)
       since_start);
  fresh ()

(* Every cached structure request resolves to exactly one hit or one miss,
   including runs past saturation where all deltas are empty. *)
let test_cache_accounting () =
  fresh ();
  T.enable ();
  let eng = E.Engine.create () in
  ignore (E.run_string eng path_program);
  ignore (E.Engine.run_iterations eng 3);
  T.disable ();
  let snap = T.snapshot () in
  let v = counter_value snap in
  Alcotest.(check int) "hits + misses = lookups" (v "join.cache_lookups")
    (v "join.cache_hits" + v "join.cache_misses");
  Alcotest.(check bool) "lookups happened" true (v "join.cache_lookups" > 0);
  Alcotest.(check bool) "patches are hits" true (v "join.index_patched" <= v "join.cache_hits");
  Alcotest.(check bool) "plans were built" true (v "join.plans_built" > 0);
  fresh ()

(* Append-only growth between runs patches the cached full-table structures
   forward instead of rebuilding them. *)
let test_index_patching () =
  fresh ();
  T.enable ();
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       {|
  (relation e (i64 i64))
  (relation out (i64 i64))
  (rule ((e x y) (e y z)) ((out x z)))
|});
  for i = 1 to 6 do
    E.Engine.set_fact eng "e" [ E.Value.VInt i; E.Value.VInt (i + 1) ] E.Value.VUnit
  done;
  ignore (E.Engine.run_iterations eng 3);
  let before = counter_value (T.snapshot ()) "join.index_patched" in
  for i = 10 to 14 do
    E.Engine.set_fact eng "e" [ E.Value.VInt i; E.Value.VInt (i + 1) ] E.Value.VUnit
  done;
  ignore (E.Engine.run_iterations eng 3);
  T.disable ();
  let snap = T.snapshot () in
  let v = counter_value snap in
  Alcotest.(check bool) "second run patched cached structures" true
    (v "join.index_patched" > before);
  Alcotest.(check int) "hits + misses = lookups" (v "join.cache_lookups")
    (v "join.cache_hits" + v "join.cache_misses");
  (* patched structures answer correctly: both chains contribute their
     two-step pairs and nothing else *)
  Alcotest.(check int) "two-step pairs" 9 (E.Engine.table_size eng "out")

(* A rebuild feeds the join cache, which patches instead of rebuilding.
   [edge] has 40 rows, ten per id; the union makes the ten rows of the
   losing id stale. The next search finds the full-table index on [edge]
   one patch away — ten entries out, ten canonical ones in, no build.
   The [ok] fact that comes with the union makes the [ok]-delta variant,
   which probes that index, run at all (an empty-delta variant is
   skipped). The edge-delta variant reads [ok] by lookup — an edge row
   binds its whole key — so no index on [ok] exists to patch. The rebuild's
   stale scan checks the 48 rows of the three tables with an id column
   (Mk, edge, out) and skips the eleven rows of the i64-only [ok]. *)
let test_patch_after_rebuild () =
  fresh ();
  let eng = E.Engine.create () in
  let facts =
    String.concat "\n"
      (List.init 39 (fun i -> Printf.sprintf "(edge %d (Mk %d))" i (i mod 4))
      @ List.init 10 (fun i -> Printf.sprintf "(ok %d)" i))
  in
  ignore
    (E.run_string eng
       ({|
  (datatype N (Mk i64))
  (relation edge (i64 N))
  (relation ok (i64))
  (relation out (N))
  (rule ((edge i n) (ok i)) ((out n)))
|}
       ^ facts));
  (* the first run builds the index on edge; the fortieth edge makes the
     second run search the edge-delta variant, which looks [ok] up *)
  ignore (E.Engine.run_iterations eng 1);
  ignore (E.run_string eng "(edge 39 (Mk 3))");
  ignore (E.Engine.run_iterations eng 1);
  Alcotest.(check int) "out holds the four ids" 4 (E.Engine.table_size eng "out");
  T.enable ();
  let v0 = counter_value (T.snapshot ()) in
  ignore (E.run_string eng "(union (Mk 0) (Mk 1)) (ok 10)");
  let v1 = counter_value (T.snapshot ()) in
  ignore (E.Engine.run_iterations eng 1);
  T.disable ();
  let v2 = counter_value (T.snapshot ()) in
  Alcotest.(check int) "one rebuild round" 1 (v1 "rebuild.rounds" - v0 "rebuild.rounds");
  Alcotest.(check int) "stale rows: ten in edge, one in Mk, one in out" 12
    (v1 "rebuild.tuples_canonicalized" - v0 "rebuild.tuples_canonicalized");
  Alcotest.(check int) "rows checked: Mk 4 + edge 40 + out 4, not ok" 48
    (v1 "rebuild.rows_checked" - v0 "rebuild.rows_checked");
  Alcotest.(check int) "no index built" 0 (v2 "join.index_builds" - v1 "join.index_builds");
  Alcotest.(check int) "the index on edge patched" 1
    (v2 "join.index_patched" - v1 "join.index_patched");
  Alcotest.(check int) "k entries retracted" 10 (v2 "join.rows_retracted" - v1 "join.rows_retracted");
  Alcotest.(check int) "out merged two ids" 3 (E.Engine.table_size eng "out");
  fresh ()

(* Planning and searching only what can run, counted by hand. [tri] is a
   three-atom (generic trie) rule and [ab] a two-atom rule. Each rule has
   one plan, lowered when it first runs and reused by every delta variant
   after, whatever the tables grow to. Once both ran, [c] alone grows: of
   the five delta variants only [tri]'s c-delta can match, so the other
   four are skipped — no cache lookup — and the one that runs asks for
   exactly its three tries. *)
let test_skip_empty_deltas () =
  fresh ();
  T.enable ();
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       {|
  (relation a (i64 i64))
  (relation b (i64 i64))
  (relation c (i64 i64))
  (relation tri (i64 i64 i64))
  (relation ab (i64 i64))
  (rule ((a x y) (b y z) (c z x)) ((tri x y z)))
  (rule ((a x y) (b y z)) ((ab x z)))
  (a 1 2) (a 2 3) (b 2 3) (b 3 1) (c 3 1)
|});
  let v0 = counter_value (T.snapshot ()) in
  let one_plan_per_rule step v =
    Alcotest.(check int) (step ^ ": one plan per rule") 2 (v "join.plans_built" - v0 "join.plans_built")
  in
  (* the first iteration runs each rule's full query *)
  ignore (E.Engine.run_iterations eng 1);
  let v1 = counter_value (T.snapshot ()) in
  one_plan_per_rule "first run" v1;
  Alcotest.(check int) "the full query skips nothing" 0
    (v1 "join.variants_skipped" - v0 "join.variants_skipped");
  (* nothing the rules read grew: all 3 + 2 delta variants are skipped *)
  ignore (E.Engine.run_iterations eng 1);
  let v2 = counter_value (T.snapshot ()) in
  Alcotest.(check int) "every variant skipped" 5
    (v2 "join.variants_skipped" - v1 "join.variants_skipped");
  Alcotest.(check int) "no lookup at all" 0 (v2 "join.cache_lookups" - v1 "join.cache_lookups");
  one_plan_per_rule "all skipped" v2;
  ignore (E.run_string eng "(c 1 2)");
  ignore (E.Engine.run_iterations eng 1);
  let v3 = counter_value (T.snapshot ()) in
  Alcotest.(check int) "four empty-delta variants skipped" 4
    (v3 "join.variants_skipped" - v2 "join.variants_skipped");
  one_plan_per_rule "c grew" v3;
  Alcotest.(check int) "three tries requested, by the one variant that ran" 3
    (v3 "join.cache_lookups" - v2 "join.cache_lookups");
  Alcotest.(check int) "no index built" 0 (v3 "join.index_builds" - v2 "join.index_builds");
  Alcotest.(check bool) "at most one trie per atom of that variant" true
    (v3 "join.trie_builds" - v2 "join.trie_builds" <= 3);
  Alcotest.(check int) "the new triangle" 2 (E.Engine.table_size eng "tri");
  (* now a and b grow: both variants of the two-atom rule run, and only
     tri's c-delta variant is skipped *)
  ignore (E.run_string eng "(a 3 1) (b 1 2)");
  ignore (E.Engine.run_iterations eng 1);
  let v4 = counter_value (T.snapshot ()) in
  Alcotest.(check int) "one variant skipped" 1
    (v4 "join.variants_skipped" - v3 "join.variants_skipped");
  one_plan_per_rule "a and b grew" v4;
  Alcotest.(check int) "the two-atom rule's pairs" 3 (E.Engine.table_size eng "ab");
  (* a, b and c each grow from at most four rows past eight: no variant
     is skipped, and the plans stay *)
  for i = 0 to 9 do
    ignore
      (E.run_string eng
         (Printf.sprintf "(a %d %d) (b %d %d) (c %d %d)" (100 + i) (200 + i) (200 + i) (300 + i)
            (300 + i) (100 + i)))
  done;
  ignore (E.Engine.run_iterations eng 1);
  let v5 = counter_value (T.snapshot ()) in
  T.disable ();
  Alcotest.(check int) "no variant skipped" 0
    (v5 "join.variants_skipped" - v4 "join.variants_skipped");
  one_plan_per_rule "a, b and c grew past eight rows" v5;
  Alcotest.(check int) "ten more triangles" 12 (E.Engine.table_size eng "tri");
  fresh ()

(* A [check] stops its search at the first match by raising; the rows
   its driver scanned up to there still count. [(r 7 x)] holds at the
   third of r's five rows. The two-atom [(r a b) (s b)] builds the index
   on r (five rows) and drives from the smaller s, whose one row
   matches. *)
let test_check_counts_early_exit () =
  fresh ();
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng "(relation r (i64 i64)) (relation s (i64)) (r 5 1) (r 6 2) (r 7 3) (r 8 4) (r 9 5) (s 3)");
  T.enable ();
  let scanned program =
    let before = counter_value (T.snapshot ()) "join.tuples_scanned" in
    ignore (E.run_string eng program);
    counter_value (T.snapshot ()) "join.tuples_scanned" - before
  in
  Alcotest.(check int) "single atom: scanned to the third row" 3 (scanned "(check (r 7 x))");
  Alcotest.(check int) "two atoms: index on r, then one driver row" 6
    (scanned "(check (r a b) (s b))");
  T.disable ();
  fresh ()

(* Pop replaces the database object: cached structures for the popped
   incarnation must never serve the restored one. *)
let test_popped_scope_invalidation () =
  fresh ();
  T.enable ();
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       {|
  (relation e (i64 i64))
  (relation out (i64 i64))
  (rule ((e x y) (e y z)) ((out x z)))
  (e 1 2) (e 2 3)
  (run 2)
|});
  Alcotest.(check int) "base join" 1 (E.Engine.table_size eng "out");
  ignore (E.run_string eng "(push) (e 3 4) (run 2)");
  Alcotest.(check int) "scoped join" 2 (E.Engine.table_size eng "out");
  ignore (E.run_string eng "(pop)");
  Alcotest.(check int) "pop restores" 1 (E.Engine.table_size eng "out");
  (* rerunning against the restored incarnation must rebuild, not resurrect
     the scoped (3 4) edge *)
  ignore (E.run_string eng "(e 5 6) (run 2)");
  Alcotest.(check int) "post-pop join unchanged" 1 (E.Engine.table_size eng "out");
  T.disable ();
  let snap = T.snapshot () in
  let v = counter_value snap in
  Alcotest.(check int) "hits + misses = lookups across push/pop" (v "join.cache_lookups")
    (v "join.cache_hits" + v "join.cache_misses");
  fresh ()

(* ---- log-bucketed histograms ---- *)

let test_hist_buckets () =
  fresh ();
  T.enable ();
  let h = T.hist_create () in
  (* one value per interesting class *)
  List.iter (T.hist_record h) [ 0.5; 1.0; 3.0; 0.0; -2.0; infinity; neg_infinity; nan ];
  let s = T.hist_snap_of h in
  (* nan dropped; everything else counted *)
  Alcotest.(check int) "count drops nan only" 7 s.T.hs_count;
  (* sum adds only the finite values: 0.5 + 1 + 3 + 0 - 2 *)
  Alcotest.(check (float 1e-9)) "finite sum" 2.5 s.T.hs_sum;
  (* bucket upper bounds are exact powers of two; quantiles walk the merged
     buckets: rank 4 of 7 lands on the (0.25, 0.5] bucket *)
  Alcotest.(check (float 0.0)) "p50 is a bucket bound" 0.5 (T.hist_snap_quantile s 0.5);
  Alcotest.(check (float 0.0)) "p99 reaches the +inf bucket" (Float.ldexp 1.0 63)
    (T.hist_snap_quantile s 0.99);
  Alcotest.(check (float 0.0)) "1.0 bucket le" 1.0 (T.hist_bucket_le 64);
  Alcotest.(check (float 0.0)) "(2,4] bucket le" 4.0 (T.hist_bucket_le 66);
  (* empty snapshot: quantile 0, json has only count/sum *)
  let empty = T.hist_snap_of (T.hist_create ()) in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (T.hist_snap_quantile empty 0.99);
  (match T.hist_snap_to_json empty with
   | J.Obj [ ("count", J.Int 0); ("sum", J.Float 0.0) ] -> ()
   | j -> Alcotest.failf "empty hist json: %s" (J.to_string j));
  (* non-empty json carries quantiles and buckets *)
  (match J.member "p99" (T.hist_snap_to_json s) with
   | Some (J.Float _) -> ()
   | _ -> Alcotest.fail "p99 missing");
  fresh ()

(* The per-rule/per-phase histograms are value-based for rule matches, so
   the snapshot is byte-identical from run to run. *)
let test_hist_across_runs () =
  let snap () =
    fresh ();
    T.enable ();
    let eng = E.Engine.create () in
    ignore (E.run_string eng path_program);
    let j =
      J.to_string (T.hist_snap_to_json (T.hist_snap_of (T.histogram "engine.rule_matches")))
    in
    T.disable ();
    j
  in
  let j1 = snap () in
  let j2 = snap () in
  Alcotest.(check string) "second run = first run" j1 j2;
  Alcotest.(check bool) "hist is populated" true (contains j1 "buckets");
  fresh ()

(* ---- flight recorder ---- *)

let test_flightrec_ring () =
  fresh ();
  T.flightrec_configure ~capacity:8;
  T.enable ();
  for i = 1 to 20 do
    T.instant (Printf.sprintf "ev%d" i) []
  done;
  T.disable ();
  let events = T.flightrec_events () in
  Alcotest.(check int) "ring holds capacity" 8 (List.length events);
  let names = List.map (fun l -> str_field "name" (J.parse l)) events in
  Alcotest.(check (list string)) "oldest-first window of the tail"
    [ "ev13"; "ev14"; "ev15"; "ev16"; "ev17"; "ev18"; "ev19"; "ev20" ]
    names;
  T.flightrec_clear ();
  Alcotest.(check int) "clear empties the ring" 0 (List.length (T.flightrec_events ()));
  (* capacity 0 disables capture entirely *)
  T.flightrec_configure ~capacity:0;
  T.enable ();
  T.instant "dropped" [];
  T.disable ();
  Alcotest.(check int) "capacity 0 records nothing" 0 (List.length (T.flightrec_events ()));
  T.flightrec_configure ~capacity:512;
  fresh ()

let test_flightrec_dump () =
  fresh ();
  T.flightrec_configure ~capacity:64;
  install_ticker ();
  T.enable ();
  T.with_trace_id "t-000042" (fun () ->
      T.span "req" (fun () -> T.span "inner" (fun () -> ())));
  T.disable ();
  let path = Filename.temp_file "egglog_flightrec" ".jsonl" in
  let n = T.flightrec_dump ~path in
  Alcotest.(check int) "dumped every ring event" 4 n;
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Sys.remove path;
  Alcotest.(check int) "file has one line per event" n (List.length lines);
  let events = List.map J.parse lines in
  (* spans balance: every begin has its end, depth never goes negative *)
  let depth = ref 0 in
  List.iter
    (fun e ->
      (match str_field "ev" e with
       | "b" -> incr depth
       | "e" -> decr depth
       | _ -> ());
      if !depth < 0 then Alcotest.fail "unbalanced spans in dump")
    events;
  Alcotest.(check int) "spans balance" 0 !depth;
  (* every event carries the ambient trace id *)
  List.iter
    (fun e -> Alcotest.(check string) "tid tag" "t-000042" (str_field "tid" e))
    events;
  (* dumping an empty ring writes no file *)
  T.flightrec_clear ();
  let path2 = Filename.concat (Filename.get_temp_dir_name ()) "egglog_flightrec_empty.jsonl" in
  Alcotest.(check int) "empty ring dumps nothing" 0 (T.flightrec_dump ~path:path2);
  Alcotest.(check bool) "no file created" false (Sys.file_exists path2);
  T.flightrec_configure ~capacity:512;
  fresh ()

let test_trace_id_scoping () =
  fresh ();
  Alcotest.(check (option string)) "no ambient id" None (T.current_trace_id ());
  T.with_trace_id "outer" (fun () ->
      Alcotest.(check (option string)) "set" (Some "outer") (T.current_trace_id ());
      T.with_trace_id "inner" (fun () ->
          Alcotest.(check (option string)) "nested" (Some "inner") (T.current_trace_id ()));
      Alcotest.(check (option string)) "restored" (Some "outer") (T.current_trace_id ()));
  (try T.with_trace_id "boom" (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check (option string)) "restored on exception" None (T.current_trace_id ());
  fresh ()

(* ---- non-finite floats never reach the JSON ---- *)

let test_nonfinite_json () =
  fresh ();
  T.enable ();
  let h = T.histogram "bad.hist" in
  T.hist_record h infinity;
  T.hist_record h nan;
  T.disable ();
  let s = J.to_string (T.snapshot_to_json (T.snapshot ())) in
  Alcotest.(check bool) "snapshot JSON has no null" false (contains s "null");
  (match J.parse s with J.Obj _ -> () | _ -> Alcotest.fail "snapshot unparseable");
  fresh ()

let () =
  Alcotest.run "telemetry"
    [
      ( "clock",
        [
          Alcotest.test_case "fake clock is deterministic" `Quick test_fake_clock;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting, balance, exceptions" `Quick test_span_balance;
          Alcotest.test_case "one observation per span" `Quick test_one_observation_per_span;
        ] );
      ( "counters",
        [
          Alcotest.test_case "hand-counted program" `Quick test_counters_hand_counted;
          Alcotest.test_case "deduplicated matches" `Quick test_deduplicated_matches;
          Alcotest.test_case "transaction rollbacks and undone writes" `Quick
            test_txn_counters_hand_counted;
          Alcotest.test_case "run report printer" `Quick test_report_printer;
        ] );
      ( "json",
        [
          Alcotest.test_case "trace JSONL round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "parser accepts/rejects" `Quick test_json_parser;
          Alcotest.test_case "snapshot schema" `Quick test_snapshot_json;
          QCheck_alcotest.to_alcotest prop_json_float_round_trip;
          Alcotest.test_case "exact floats and bucket bounds" `Quick test_json_float_exact;
        ] );
      ( "join cache",
        [
          Alcotest.test_case "empty delta iteration" `Quick test_empty_delta_iteration;
          Alcotest.test_case "hit/miss accounting" `Quick test_cache_accounting;
          Alcotest.test_case "append-only patching" `Quick test_index_patching;
          Alcotest.test_case "patch after rebuild" `Quick test_patch_after_rebuild;
          Alcotest.test_case "empty-delta variants skipped" `Quick test_skip_empty_deltas;
          Alcotest.test_case "check counts rows scanned to its match" `Quick
            test_check_counts_early_exit;
          Alcotest.test_case "popped-scope invalidation" `Quick test_popped_scope_invalidation;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "buckets and quantiles" `Quick test_hist_buckets;
          Alcotest.test_case "byte-identical across runs" `Quick test_hist_across_runs;
          Alcotest.test_case "non-finite floats never reach JSON" `Quick test_nonfinite_json;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "ring wraps and clears" `Quick test_flightrec_ring;
          Alcotest.test_case "dump balances spans and tags trace ids" `Quick
            test_flightrec_dump;
          Alcotest.test_case "trace id scoping" `Quick test_trace_id_scoping;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "records nothing" `Quick test_disabled_records_nothing;
        ] );
    ]
