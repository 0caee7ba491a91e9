(* Every metric the benchmark reports, with its unit. Regression bounds are
   not here: they live in BENCHMARK.json at the root of the repository,
   the one place a comparison reads them from. *)

module J = Egglog.Telemetry.Json

type better = Lower | Higher

(* End-to-end metrics: measured with telemetry off, reported for every
   workload. An operation is the workload's unit of work: an iteration
   (math-eqsat, pointsto, pointsto-j2), one improved expression
   (herbie-sound), one command (text-load) or one request
   (serve-incremental). *)
let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("run_s", "s", Lower);
    ("peak_rss_mb", "MB", Lower);
    ("op_p90_ms", "ms", Lower);
  ]

(* Per-layer metrics: from a traced rep. [exact] marks the counts that
   repeat exactly from run to run of a workload and seed; the rest are
   times, shares of time, or depend on how domains were scheduled. *)
type layer_metric = { name : string; unit_ : string; exact : bool }

let m ?(exact = true) unit_ name = { name; unit_; exact }
let count = m "count"
let time = m ~exact:false "s"

let per_layer =
  [
    time "frontend.parse_s";
    m "bytes" "frontend.bytes";
    time "engine.txn_empty_s";
    time "engine.search_s";
    time "engine.apply_s";
    time "engine.rebuild_s";
    count "engine.iterations";
    count "engine.matches_applied";
    count "engine.matches_deduplicated";
    count "engine.tuples_inserted";
    m "ratio" "engine.insert_ratio";
    count "join.tuples_scanned";
    count "join.matches_yielded";
    m "ratio" "join.yield_ratio";
    count "join.index_builds";
    count "join.trie_builds";
    count "join.index_patched";
    m "ratio" "join.cache_hit_ratio";
    count "join.plans_built";
    count "join.replans";
    count "join.interp_fallbacks";
    count "db.unions";
    count "rebuild.rounds";
    count "rebuild.tuples_canonicalized";
    count "db.rows_final";
    count "db.classes_final";
    m "bytes" "memory.modeled_bytes_peak";
    count "pool.tasks";
    m ~exact:false "count" "pool.steals";
    count "apply.staged_commits";
    count "apply.staged_fallbacks";
    m "ratio" "apply.staged_commit_ratio";
    count "search.domains_used";
    count "apply.domains_used";
    count "rebuild.domains_used";
    count "extract.terms";
    count "journal.appends";
    m "bytes" "journal.append_bytes";
    count "checkpoint.writes";
    count "server.requests";
    count "server.error_replies";
    count "server.sheds";
    count "trace.spans";
    m ~exact:false "ratio" "trace.overhead_ratio";
  ]
  @ List.map (fun l -> m ~exact:false "ratio" (l ^ ".self_share")) Trace.layers

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) end_to_end with
  | Some (_, u, _) -> u
  | None -> (
    match List.find_opt (fun l -> l.name = name) per_layer with Some l -> l.unit_ | None -> "")

(* ---- BENCHMARK.json ------------------------------------------------- *)

(* BENCHMARK.json, read from the working directory, which is the root of
   the repository. Exits 1 when it cannot be read: every mode that reads it
   checks against it. *)
let spec () =
  try J.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all)
  with Sys_error e | J.Parse_error e ->
    prerr_endline ("benchmark: cannot read BENCHMARK.json; run from the root of the repository: " ^ e);
    exit 1

let entries key spec = match J.member key spec with Some (J.List ms) -> ms | _ -> []
let str key j = match J.member key j with Some (J.Str s) -> s | _ -> ""

(* Every metric name the spec declares, end-to-end and per-layer. *)
let declared spec = List.map (str "name") (entries "end_to_end" spec @ entries "per_layer" spec)

(* name -> (lower is better, bound) for every end-to-end metric. *)
let bounds spec =
  List.map
    (fun m ->
      let bound =
        match J.member "bound" m with
        | Some (J.Float b) -> b
        | Some (J.Int b) -> float_of_int b
        | _ ->
          prerr_endline ("benchmark: BENCHMARK.json gives no bound for " ^ str "name" m);
          exit 1
      in
      (str "name" m, (str "better" m = "lower", bound)))
    (entries "end_to_end" spec)

let run_seconds spec =
  match J.member "run_seconds" spec with
  | Some (J.Int s) -> float_of_int s
  | _ ->
    prerr_endline "benchmark: BENCHMARK.json has no whole number run_seconds";
    exit 1
