(* Database snapshots: dump a saturated database, reload into a fresh
   engine with the same schema, and see identical behaviour. *)

module E = Egglog

let schema =
  {|
  (datatype Math (Num i64) (Var String) (Add Math Math))
  (relation edge (i64 i64))
  (function best (i64) i64 :merge (max old new))
  (function tags (i64) (Set String) :merge (set-union old new))
  |}

let test_roundtrip_tables () =
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       (schema
       ^ {|
    (edge 1 2) (edge 2 3)
    (set (best 0) 5) (set (best 0) 9) (set (best 1) 2)
    (set (tags 0) (set-singleton "a"))
    (set (tags 0) (set-singleton "b"))
    (Add (Num 1) (Var "x")) ;; materialize a term
  |}));
  let snapshot = E.Serialize.dump_string eng in
  let eng2 = E.Engine.create () in
  ignore (E.run_string eng2 schema);
  E.Serialize.load_string eng2 snapshot;
  Alcotest.(check int) "edge size" 2 (E.Engine.table_size eng2 "edge");
  Alcotest.(check (option string)) "lattice value preserved" (Some "9")
    (Option.map E.Value.to_string (E.Engine.lookup_fact eng2 "best" [ E.Value.VInt 0 ]));
  (match E.Engine.lookup_fact eng2 "tags" [ E.Value.VInt 0 ] with
   | Some (E.Value.VSet elems) -> Alcotest.(check int) "set merged" 2 (List.length elems)
   | _ -> Alcotest.fail "tags missing");
  Alcotest.(check int) "same total rows" (E.Engine.total_rows eng)
    (E.Engine.total_rows eng2)

let test_roundtrip_equivalences () =
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       (schema
       ^ {|
    (union (Add (Num 1) (Num 2)) (Add (Num 2) (Num 1)))
    (run 1)
  |}));
  let snapshot = E.Serialize.dump_string eng in
  let eng2 = E.Engine.create () in
  ignore (E.run_string eng2 schema);
  E.Serialize.load_string eng2 snapshot;
  (* terms that were equal stay equal; congruence still works *)
  Alcotest.(check bool) "a = b survives" true
    (E.Engine.check_facts eng2
       [ E.Ast.Eq
           ( E.Ast.Call ("Add", [ E.Ast.Call ("Num", [ E.Ast.Lit (E.Value.VInt 1) ]); E.Ast.Call ("Num", [ E.Ast.Lit (E.Value.VInt 2) ]) ]),
             E.Ast.Call ("Add", [ E.Ast.Call ("Num", [ E.Ast.Lit (E.Value.VInt 2) ]); E.Ast.Call ("Num", [ E.Ast.Lit (E.Value.VInt 1) ]) ]) ) ]);
  Alcotest.(check int) "same classes" (E.Engine.n_classes eng) (E.Engine.n_classes eng2)

let test_resaturation_after_load () =
  (* rules added after loading continue from the snapshot *)
  let eng = E.Engine.create () in
  ignore (E.run_string eng (schema ^ {| (edge 1 2) (edge 2 3) (edge 3 4) |}));
  let snapshot = E.Serialize.dump_string eng in
  let eng2 = E.Engine.create () in
  ignore (E.run_string eng2 schema);
  E.Serialize.load_string eng2 snapshot;
  ignore
    (E.run_string eng2
       {|
    (relation path (i64 i64))
    (rule ((edge x y)) ((path x y)))
    (rule ((path x y) (edge y z)) ((path x z)))
    (run)
    (check (path 1 4))
  |});
  Alcotest.(check int) "closure computed" 6 (E.Engine.table_size eng2 "path")

let test_load_errors () =
  let eng = E.Engine.create () in
  (match E.Serialize.load_string eng "(database (ids (0 Nope)))" with
   | exception E.Serialize.Load_error _ -> ()
   | () -> Alcotest.fail "expected unknown-sort error");
  match E.Serialize.load_string eng "(not-a-database)" with
  | exception E.Serialize.Load_error _ -> ()
  | () -> Alcotest.fail "expected shape error"

let prop_roundtrip_random =
  QCheck2.Test.make ~name:"dump/load roundtrip on random math e-graphs" ~count:40
    QCheck2.Gen.(list_size (int_range 1 6) (int_range 0 5))
    (fun nums ->
      let eng = E.Engine.create () in
      ignore (E.run_string eng schema);
      List.iteri
        (fun _i n ->
          ignore
            (E.run_string eng
               (Printf.sprintf "(Add (Num %d) (Add (Num %d) (Var \"v\")))" n (n + 1))))
        nums;
      ignore (E.run_string eng "(rewrite (Add a b) (Add b a)) (run 3)");
      let snapshot = E.Serialize.dump_string eng in
      let eng2 = E.Engine.create () in
      ignore (E.run_string eng2 schema);
      E.Serialize.load_string eng2 snapshot;
      E.Engine.total_rows eng = E.Engine.total_rows eng2
      && E.Engine.n_classes eng = E.Engine.n_classes eng2)

(* ---- canonical bytes over every base value type ----

   The dump renumbers ids by content, so it must be byte-stable under both
   a reload (fresh id allocation) and a different insertion order (different
   union-find representatives). The ops below are all order-independent at
   the content level — relations cannot conflict, [f_int] merges with
   [max], unions close the same equivalence — so applying them in any order
   must serialize to the same bytes. *)

let value_schema =
  {|
  (sort S)
  (function mk (i64) S)
  (function link (S S) S)
  (function f_int (i64) i64 :merge (max old new))
  (relation r_str (String String))
  (relation r_rat (Rational Rational))
  (relation r_unit (i64))
  |}

type op =
  | OInt of int * int
  | OStr of string * string
  | ORat of (int * int) * (int * int)
  | OUnit of int
  | OMk of int
  | OLink of int * int
  | OUnion of int * int

let apply_op eng op =
  let v x = E.Value.VInt x in
  let s x = E.Value.VStr (E.Symbol.intern x) in
  let q (n, d) = E.Value.VRat (Rat.of_ints n d) in
  let mk k = E.Engine.eval_call eng "mk" [ v k ] in
  match op with
  | OInt (k, x) -> E.Engine.set_fact eng "f_int" [ v k ] (v x)
  | OStr (a, b) -> E.Engine.set_fact eng "r_str" [ s a; s b ] E.Value.VUnit
  | ORat (a, b) -> E.Engine.set_fact eng "r_rat" [ q a; q b ] E.Value.VUnit
  | OUnit k -> E.Engine.set_fact eng "r_unit" [ v k ] E.Value.VUnit
  | OMk k -> ignore (mk k)
  | OLink (a, b) -> ignore (E.Engine.eval_call eng "link" [ mk a; mk b ])
  | OUnion (a, b) -> ignore (E.Engine.union_values eng (mk a) (mk b))

let gen_op =
  let open QCheck2.Gen in
  let small = int_range 0 7 in
  (* arbitrary bytes, including quotes, backslashes and control characters:
     the printer escapes them and the reader must bring them back *)
  let str = string_size (int_range 0 6) ~gen:(map Char.chr (int_range 0 255)) in
  let rat = pair (int_range (-20) 20) (int_range 1 9) in
  oneof
    [
      map2 (fun k x -> OInt (k, x)) small (int_range (-50) 50);
      map2 (fun a b -> OStr (a, b)) str str;
      map2 (fun a b -> ORat (a, b)) rat rat;
      map (fun k -> OUnit k) small;
      map (fun k -> OMk k) small;
      map2 (fun a b -> OLink (a, b)) small small;
      map2 (fun a b -> OUnion (a, b)) small small;
    ]

let engine_with ops order =
  let eng = E.Engine.create () in
  ignore (E.run_string eng value_schema);
  List.iter (apply_op eng) (order ops);
  eng

let show_op = function
  | OInt (k, x) -> Printf.sprintf "OInt(%d,%d)" k x
  | OStr (a, b) -> Printf.sprintf "OStr(%S,%S)" a b
  | ORat ((a, b), (c, d)) -> Printf.sprintf "ORat(%d/%d,%d/%d)" a b c d
  | OUnit k -> Printf.sprintf "OUnit(%d)" k
  | OMk k -> Printf.sprintf "OMk(%d)" k
  | OLink (a, b) -> Printf.sprintf "OLink(%d,%d)" a b
  | OUnion (a, b) -> Printf.sprintf "OUnion(%d,%d)" a b

let show_ops ops = String.concat "; " (List.map show_op ops)

let prop_dump_load_dump_bytes =
  QCheck2.Test.make ~name:"dump -> load -> dump is byte-identical" ~count:100
    ~print:show_ops
    QCheck2.Gen.(list_size (int_range 1 25) gen_op)
    (fun ops ->
      let eng = engine_with ops Fun.id in
      let d1 = E.Serialize.dump_string eng in
      let eng2 = E.Engine.create () in
      ignore (E.run_string eng2 value_schema);
      E.Serialize.load_string eng2 d1;
      String.equal d1 (E.Serialize.dump_string eng2))

let prop_dump_order_independent =
  QCheck2.Test.make ~name:"dump bytes independent of insertion order" ~count:100
    QCheck2.Gen.(list_size (int_range 1 25) gen_op)
    (fun ops ->
      String.equal
        (E.Serialize.dump_string (engine_with ops Fun.id))
        (E.Serialize.dump_string (engine_with ops List.rev)))

(* ---- versioned snapshot files ---- *)

let with_temp f =
  let path = Filename.temp_file "egglog_snap" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let contains ~substr msg =
  let n = String.length substr and m = String.length msg in
  let rec go i = i + n <= m && (String.equal (String.sub msg i n) substr || go (i + 1)) in
  go 0

let expect_load_error ~substr f =
  match f () with
  | () -> Alcotest.failf "expected Load_error mentioning %S" substr
  | exception E.Serialize.Load_error msg ->
    if not (contains ~substr msg) then
      Alcotest.failf "Load_error %S does not mention %S" msg substr

let populated_engine () =
  let eng = E.Engine.create () in
  ignore (E.run_string eng (value_schema ^ {| (r_unit 1) (r_unit 2) |}));
  List.iter (apply_op eng) [ OUnion (0, 1); OInt (0, 42); OStr ("a", "b") ];
  eng

let test_snapshot_file_roundtrip () =
  with_temp (fun path ->
      let eng = populated_engine () in
      E.Serialize.write_snapshot eng path;
      let eng2 = E.Engine.create () in
      ignore (E.run_string eng2 value_schema);
      E.Serialize.load_snapshot eng2 path;
      Alcotest.(check string) "same canonical bytes" (E.Serialize.dump_string eng)
        (E.Serialize.dump_string eng2))

let test_snapshot_rejects_legacy () =
  with_temp (fun path ->
      let eng = populated_engine () in
      (* a pre-versioned snapshot: the bare dump text, no header *)
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (E.Serialize.dump_string eng));
      let eng2 = E.Engine.create () in
      ignore (E.run_string eng2 value_schema);
      expect_load_error ~substr:"magic" (fun () -> E.Serialize.load_snapshot eng2 path))

let test_snapshot_rejects_future_version () =
  with_temp (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "egglog-snapshot 999\n3 00000000\nxyz");
      let eng = E.Engine.create () in
      expect_load_error ~substr:"version" (fun () -> E.Serialize.load_snapshot eng path))

let test_snapshot_rejects_corruption () =
  with_temp (fun path ->
      let eng = populated_engine () in
      E.Serialize.write_snapshot eng path;
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      (* flip one payload byte; the checksum must catch it *)
      let b = Bytes.of_string bytes in
      let i = Bytes.length b - 2 in
      Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      let eng2 = E.Engine.create () in
      ignore (E.run_string eng2 value_schema);
      expect_load_error ~substr:"checksum" (fun () -> E.Serialize.load_snapshot eng2 path);
      (* truncation is caught by the length field *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub bytes 0 (String.length bytes - 5)));
      expect_load_error ~substr:"truncated" (fun () -> E.Serialize.load_snapshot eng2 path))

let test_load_requires_empty () =
  let eng = populated_engine () in
  let snapshot = E.Serialize.dump_string (populated_engine ()) in
  expect_load_error ~substr:"non-empty" (fun () -> E.Serialize.load_string eng snapshot)

(* ---- checkpoints ---- *)

(* A checkpoint payload as recovery reads it: the first record of a
   journal written at [path]. *)
let checkpoint_via_journal path payload =
  E.Journal.close (E.Journal.create path ~checkpoint:payload);
  E.Serialize.parse_checkpoint (E.Journal.read path).E.Journal.checkpoint

(* An engine rebuilt from a checkpoint as recovery does it: replay the
   declarations into a fresh engine, then load the data. *)
let engine_of_checkpoint (ck : E.Serialize.checkpoint) =
  let eng = E.Engine.create () in
  List.iter (fun cmd -> ignore (E.Engine.run_command eng cmd)) ck.E.Serialize.ck_program;
  E.Serialize.load eng ck.E.Serialize.ck_database;
  eng

(* value_schema plus a rule, so the checkpoint's program carries more than
   declarations and congruence merges ids before the write *)
let program_with ops =
  let eng = engine_with ops Fun.id in
  ignore (E.run_string eng "(rewrite (link a b) (link b a)) (run 2)");
  eng

let prop_checkpoint_roundtrip =
  QCheck2.Test.make ~name:"checkpoint -> read -> load gives the same dump" ~count:100
    ~print:show_ops
    QCheck2.Gen.(list_size (int_range 1 25) gen_op)
    (fun ops ->
      let eng = program_with ops in
      with_temp (fun path ->
          let ck =
            checkpoint_via_journal path
              (E.Serialize.checkpoint_payload eng ~committed:(List.length ops))
          in
          ck.E.Serialize.ck_committed = List.length ops
          && String.equal (E.Serialize.dump_string eng)
               (E.Serialize.dump_string (engine_of_checkpoint ck))))

(* The checkpoint printer writes straight into a buffer. Its oracle is the
   tree it replaces: the (checkpoint ...) s-expression built value by
   value, with the ids' sorts and the rows in table order, printed by
   [Sexpr.to_string]. *)
let rec oracle_value (v : E.Value.t) : Sexpr.t =
  match v with
  | E.Value.VUnit -> Sexpr.List [ Sexpr.Atom "unit" ]
  | E.Value.VBool b -> Sexpr.Atom (string_of_bool b)
  | E.Value.VInt i -> Sexpr.Int i
  | E.Value.VRat r -> Sexpr.List [ Sexpr.Atom "rat"; Sexpr.String (Rat.to_string r) ]
  | E.Value.VStr s -> Sexpr.String (E.Symbol.name s)
  | E.Value.VId i -> Sexpr.List [ Sexpr.Atom "id"; Sexpr.Int i ]
  | E.Value.VSet xs -> Sexpr.List (Sexpr.Atom "set" :: List.map oracle_value xs)
  | E.Value.VVec xs -> Sexpr.List (Sexpr.Atom "vec" :: List.map oracle_value xs)

let oracle_checkpoint eng ~committed =
  E.Engine.rebuild eng;
  let db = E.Engine.database eng in
  let sorts = Hashtbl.create 16 and tables = ref [] in
  let rec note = function
    | E.Value.VId id -> (
      match E.Database.sort_of_id db id with
      | E.Ty.Sort s -> Hashtbl.replace sorts id (E.Symbol.name s)
      | _ -> ())
    | E.Value.VSet xs | E.Value.VVec xs -> List.iter note xs
    | _ -> ()
  in
  E.Database.iter_tables db (fun table ->
      let rows = ref [] in
      E.Table.iter
        (fun key row ->
          Array.iter note key;
          note row.E.Table.value;
          rows :=
            Sexpr.List
              [
                Sexpr.List (Array.to_list (Array.map oracle_value key));
                oracle_value row.E.Table.value;
              ]
            :: !rows)
        table;
      if !rows <> [] then
        tables :=
          Sexpr.List
            (Sexpr.Atom "table" :: Sexpr.Atom (E.Symbol.name (E.Table.func table).E.Schema.name)
           :: List.rev !rows)
          :: !tables);
  let ids =
    Hashtbl.fold (fun id sort acc -> (id, sort) :: acc) sorts []
    |> List.sort compare
    |> List.map (fun (id, sort) -> Sexpr.List [ Sexpr.Int id; Sexpr.Atom sort ])
  in
  Sexpr.to_string
    (Sexpr.List
       [
         Sexpr.Atom "checkpoint";
         Sexpr.List [ Sexpr.Atom "committed"; Sexpr.Int committed ];
         Sexpr.List
           (Sexpr.Atom "program"
           :: List.map E.Frontend.sexp_of_command (E.Engine.decl_commands eng));
         Sexpr.List
           (Sexpr.Atom "database" :: Sexpr.List (Sexpr.Atom "ids" :: ids) :: List.rev !tables);
       ])
  ^ "\n"

(* Every value kind a cell can hold, in keys and outputs: unit, bool,
   i64 (negative, min_int, max_int), rational, a string with quotes,
   a backslash and a newline, ids (merged, so representatives), sets and
   vectors of ids. *)
let every_kind_engine () =
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       {|
  (sort S)
  (function mk (i64) S)
  (function f_unit (i64) Unit)
  (function f_bool (bool) bool)
  (function f_int (i64) i64)
  (function f_rat (Rational) Rational)
  (function f_str (String) String)
  (function f_set (i64) (Set S))
  (function f_vec (S) (Vec S))
  (function empty () i64)
  (rewrite (mk 1) (mk 2))
  |});
  let i n = E.Value.VInt n and str x = E.Value.VStr (E.Symbol.intern x) in
  let mk k = E.Engine.eval_call eng "mk" [ i k ] in
  E.Engine.set_fact eng "f_unit" [ i (-1) ] E.Value.VUnit;
  E.Engine.set_fact eng "f_bool" [ E.Value.VBool true ] (E.Value.VBool false);
  E.Engine.set_fact eng "f_int" [ i min_int ] (i max_int);
  E.Engine.set_fact eng "f_int" [ i (-42) ] (i 0);
  let rat n d = E.Value.VRat (Rat.of_ints n d) in
  E.Engine.set_fact eng "f_rat" [ rat (-3) 7 ] (rat 5 2);
  E.Engine.set_fact eng "f_str" [ str "say \"hi\"\nback\\slash" ] (str "");
  E.Engine.set_fact eng "f_set" [ i 0 ] (E.Value.mk_set [ mk 1; mk 3 ]);
  E.Engine.set_fact eng "f_set" [ i 1 ] (E.Value.VSet []);
  E.Engine.set_fact eng "f_vec" [ mk 4 ] (E.Value.VVec [ mk 3; mk 2; mk 3 ]);
  ignore (E.Engine.union_values eng (mk 3) (mk 5));
  ignore (E.run_string eng "(run 2)");
  eng

let test_checkpoint_bytes () =
  let check name eng ~committed =
    let expected = oracle_checkpoint eng ~committed in
    Alcotest.(check string) name expected (E.Serialize.checkpoint_payload eng ~committed)
  in
  check "every value kind" (every_kind_engine ()) ~committed:7;
  check "no data" (E.Engine.create ()) ~committed:0;
  check "merged ids and rules"
    (program_with
       (List.init 12 (fun k -> OLink (k mod 8, k * 3 mod 8))
       @ [ OUnion (1, 2); OStr ("a\nb", "\"q\""); ORat ((-3, 7), (5, 2)); OInt (4, -9); OUnit 3 ]))
    ~committed:3

(* The every-kind engine through the durable path: a checkpoint, then
   recovery from it, dumps what the engine dumps. *)
let test_checkpoint_recovers () =
  let dir = Filename.temp_dir "egglog_ckpt" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let journal_path = Filename.concat dir "journal" in
      let eng = every_kind_engine () in
      let d = E.Durable.attach eng ~journal_path ~checkpoint_every:None in
      E.Durable.checkpoint d;
      E.Durable.close d;
      let expected = E.Serialize.dump_string eng in
      let eng2 = E.Engine.create () in
      let d2, report = E.Durable.recover eng2 ~journal_path ~checkpoint_every:None in
      E.Durable.close d2;
      Alcotest.(check int) "restored from the checkpoint alone" 0 report.E.Durable.rc_replayed;
      Alcotest.(check string) "recovered dump" expected (E.Serialize.dump_string eng2))

(* Files written before machine formats printed flat: the payload is the
   [Format] layout, line breaks included, of a canonically numbered dump.
   The container header is built by hand. *)
let write_container path ~header payload =
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "%s\n%d %s\n%s" header (String.length payload)
        (E.Checksum.to_hex (E.Checksum.crc32 payload))
        payload)

let laid_out e = Format.asprintf "%a" Sexpr.pp e ^ "\n"

let test_old_layout_loads () =
  let eng =
    program_with
      (List.init 12 (fun k -> OLink (k mod 8, k * 3 mod 8))
      @ [ OUnion (1, 2); OStr ("a\nb", "\"q\""); ORat ((-3, 7), (5, 2)); OInt (4, -9) ])
  in
  let expected = E.Serialize.dump_string eng in
  let database = E.Serialize.dump eng in
  let snapshot = laid_out database in
  Alcotest.(check bool) "old layout breaks lines" true
    (String.contains (String.trim snapshot) '\n');
  with_temp (fun path ->
      write_container path ~header:"egglog-snapshot 1" snapshot;
      let eng2 = E.Engine.create () in
      ignore (E.run_string eng2 value_schema);
      E.Serialize.load_snapshot eng2 path;
      Alcotest.(check string) "snapshot loads to the same dump" expected
        (E.Serialize.dump_string eng2));
  with_temp (fun path ->
      let program = List.map E.Frontend.sexp_of_command (E.Engine.decl_commands eng) in
      let ck =
        checkpoint_via_journal path
          (laid_out
             (Sexpr.List
                [
                  Sexpr.Atom "checkpoint";
                  Sexpr.List [ Sexpr.Atom "committed"; Sexpr.Int 7 ];
                  Sexpr.List (Sexpr.Atom "program" :: program);
                  database;
                ]))
      in
      Alcotest.(check int) "committed" 7 ck.E.Serialize.ck_committed;
      Alcotest.(check string) "checkpoint loads to the same dump" expected
        (E.Serialize.dump_string (engine_of_checkpoint ck)))

let () =
  Alcotest.run "serialize"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "tables" `Quick test_roundtrip_tables;
          Alcotest.test_case "equivalences" `Quick test_roundtrip_equivalences;
          Alcotest.test_case "resaturation" `Quick test_resaturation_after_load;
          Alcotest.test_case "errors" `Quick test_load_errors;
        ] );
      ( "files",
        [
          Alcotest.test_case "snapshot file roundtrip" `Quick test_snapshot_file_roundtrip;
          Alcotest.test_case "legacy format rejected" `Quick test_snapshot_rejects_legacy;
          Alcotest.test_case "future version rejected" `Quick test_snapshot_rejects_future_version;
          Alcotest.test_case "corruption rejected" `Quick test_snapshot_rejects_corruption;
          Alcotest.test_case "load requires empty db" `Quick test_load_requires_empty;
          Alcotest.test_case "old layout still loads" `Quick test_old_layout_loads;
          Alcotest.test_case "checkpoint bytes equal the tree printer's" `Quick
            test_checkpoint_bytes;
          Alcotest.test_case "a checkpoint of every value kind recovers" `Quick
            test_checkpoint_recovers;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip_random;
          QCheck_alcotest.to_alcotest prop_dump_load_dump_bytes;
          QCheck_alcotest.to_alcotest prop_dump_order_independent;
          QCheck_alcotest.to_alcotest prop_checkpoint_roundtrip;
        ] );
    ]
