(* Live heap words by component (ROADMAP item 4): what the deterministic
   memory model does not see. Two engines, each measured after a
   [Gc.compact]: the math-eqsat program after 35 BackOff iterations, and
   the Progen size-200 points-to program at its fixpoint. [Obj.reachable_words]
   is exact and repeats from run to run for a given program.

   A database record reaches the whole engine through its merge-hook
   closure, so the tables, the union-find and the proof forest are measured
   as fields. The join cache shares its key cells with the tables, so its
   rows read words(tables, cache) - words(tables). *)

let words x = Obj.reachable_words (Obj.repr x)

let components eng =
  let db = Egglog.Engine.database eng in
  let tables = ref [] in
  Egglog.Database.iter_tables db (fun t -> tables := t :: !tables);
  let w = Egglog.Join.own_words (Egglog.Engine.join_cache eng) ~shared:!tables in
  [
    ("tables", words !tables);
    ("join-cache", w.Egglog.Join.cache_words);
    ("join-tries", w.Egglog.Join.trie_words);
    ("join-indexes", w.Egglog.Join.index_words);
    ("union-find", words (Egglog.Database.union_find db));
    ("proofs", words (Egglog.Database.proof_forest db));
    ("engine", words eng);
  ]

let math_eqsat () =
  let eng = Egglog.Engine.create ~scheduler:Egglog.Engine.backoff_default () in
  ignore (Egglog.run_string eng (Math_suite.egglog_program ()));
  ignore (Egglog.Engine.run_iterations eng 35);
  eng

let pointsto () = fst (Pointsto.Egglog_enc.analyze (Pointsto.Progen.generate ~size:200 ~seed:1 ()))

let run () =
  Printf.printf "\n=== Memory: live words by component, after Gc.compact ===\n%!";
  List.iter
    (fun (name, make) ->
      let eng = make () in
      Gc.compact ();
      let rows = Egglog.Engine.total_rows eng in
      Printf.printf "%s: %d rows\n" name rows;
      List.iter
        (fun (component, n) ->
          Printf.printf "  %-34s %12d words\n" (Printf.sprintf "memory/%s/%s" name component) n)
        (components eng))
    [ ("math-eqsat", math_eqsat); ("pointsto", pointsto) ];
  flush stdout
