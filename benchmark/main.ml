(* The benchmark of record for this egglog engine. See README.md.

     main.exe --workload W --seed N --seconds S --trace 0|1
         one measured run of one workload; the last stdout line is the
         result object (end-to-end metrics with --trace 0, per-layer
         metrics with --trace 1)
     main.exe benchmark [--seed N] [--runs R] [--seconds S] [--workload W]... [--quick]
         R runs of every workload, round-robin, then one traced run each;
         prints every metric and writes BENCH_benchmark.json
     main.exe compare A.json B.json
         the verdict per metric and workload, against the bounds in
         BENCHMARK.json
     main.exe rep --workload W --seed N [--traced] [--quick]
         one rep in this process (the runs above start one child per rep)

   Every rep runs in a fresh child process, so that no rep inherits
   another's heap, and the peak resident set is the rep's own. *)

module E = Egglog
module T = E.Telemetry
module J = T.Json
module W = Workloads

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("benchmark: " ^ s); exit 2) fmt

(* ---- arguments ------------------------------------------------------ *)

type args = {
  positional : string list;
  workloads : string list;
  seed : int;
  seconds : float option;  (** BENCHMARK.json's run_seconds when absent *)
  runs : int;
  trace : bool;
  traced : bool;
  quick : bool;
}

let parse_args argv =
  let int_arg flag v = match int_of_string_opt v with Some n -> n | None -> die "%s wants an integer, got %S" flag v in
  let rec go a = function
    | [] -> { a with positional = List.rev a.positional; workloads = List.rev a.workloads }
    | "--workload" :: v :: rest -> go { a with workloads = v :: a.workloads } rest
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
      let s = int_arg "--seconds" v in
      if s < 1 then die "--seconds wants a positive integer";
      go { a with seconds = Some (float_of_int s) } rest
    | "--runs" :: v :: rest ->
      let r = int_arg "--runs" v in
      if r < 1 then die "--runs wants a positive integer";
      go { a with runs = r } rest
    | "--trace" :: v :: rest -> (
      match v with
      | "0" -> go { a with trace = false } rest
      | "1" -> go { a with trace = true } rest
      | _ -> die "--trace wants 0 or 1, got %S" v)
    | "--traced" :: rest -> go { a with traced = true } rest
    | "--quick" :: rest -> go { a with quick = true } rest
    | flag :: _ when String.length flag > 1 && flag.[0] = '-' -> die "unknown or incomplete flag %s" flag
    | p :: rest -> go { a with positional = p :: a.positional } rest
  in
  go
    {
      positional = [];
      workloads = [];
      seed = 1;
      seconds = None;
      runs = 5;
      trace = false;
      traced = false;
      quick = false;
    }
    argv

let workload name = match W.find name with Some w -> w | None -> die "unknown workload %S" name

let selected a =
  match a.workloads with [] -> W.all | names -> List.map workload names

let seconds a =
  match a.seconds with Some s -> s | None -> Metrics.run_seconds (Metrics.spec ())

(* ---- one rep, in this process --------------------------------------- *)

(* Every per-layer metric of a traced rep: the ones computed here, and for
   every other name the telemetry counter of that name. *)
let layer_values (r : W.rep) (tr : Trace.t) =
  let snap = T.snapshot () in
  let c name = float_of_int (Option.value (List.assoc_opt name snap.T.sn_counters) ~default:0) in
  let hist_sum name =
    match List.assoc_opt name snap.T.sn_hists with Some h -> h.T.hs_sum | None -> 0.0
  in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let computed =
    [
      ("frontend.parse_s", tr.Trace.parse_s);
      ("frontend.bytes", float_of_int !W.parsed_bytes);
      ("engine.txn_empty_s", r.W.txn_empty_s);
      ("engine.search_s", hist_sum "engine.search_s");
      ("engine.apply_s", hist_sum "engine.apply_s");
      ("engine.rebuild_s", hist_sum "engine.rebuild_s");
      ("engine.insert_ratio", ratio (c "engine.tuples_inserted") (c "engine.matches_applied"));
      ("join.yield_ratio", ratio (c "join.matches_yielded") (c "join.tuples_scanned"));
      ("join.cache_hit_ratio", ratio (c "join.cache_hits") (c "join.cache_lookups"));
      ( "apply.staged_commit_ratio",
        ratio (c "apply.staged_commits") (c "apply.staged_commits" +. c "apply.staged_fallbacks") );
      ("db.rows_final", float_of_int r.W.rows);
      ("db.classes_final", float_of_int r.W.classes);
      ("extract.terms", float_of_int !W.extracted_terms);
      ("trace.spans", float_of_int tr.Trace.spans);
    ]
    @ List.map (fun (l, s) -> (l ^ ".self_share", ratio s tr.Trace.rep_s)) tr.Trace.self_s
  in
  List.map
    (fun (l : Metrics.layer_metric) ->
      let n = l.Metrics.name in
      (n, match List.assoc_opt n computed with Some v -> v | None -> c n))
    Metrics.per_layer

(* Run one rep and print its result as one JSON line, every time in it
   scaled by the machine-speed yardstick (see {!Yardstick}). A traced rep
   buffers every trace event in memory and writes them to
   BENCH_trace_<W>.jsonl once the rep is over. *)
let rep_main a =
  let w = match a.workloads with [ n ] -> workload n | _ -> die "rep wants exactly one --workload" in
  (* a hung rep dies by SIGALRM and counts as failed, so a run always ends *)
  ignore (Unix.alarm 60);
  let events = ref [] in
  if a.traced then begin
    T.reset ();
    T.enable ~sink:(fun line -> events := line :: !events) ()
  end;
  let before = Yardstick.measure ~domains:w.W.domains in
  (* free the yardstick's tables: the rep reports its own peak resident set *)
  Gc.full_major ();
  let r = w.W.run ~quick:a.quick ~seed:a.seed ~traced:a.traced in
  let yardstick_s = (before +. Yardstick.measure ~domains:w.W.domains) /. 2.0 in
  let scale = Yardstick.reference_s /. yardstick_s in
  let scaled (n, v) = (n, if Metrics.unit_of n = "s" then v *. scale else v) in
  let layers =
    if not a.traced then []
    else begin
      T.flush_counters ();
      T.disable ();
      let lines = List.rev !events in
      Out_channel.with_open_text (Printf.sprintf "BENCH_trace_%s.jsonl" w.W.name) (fun oc ->
          List.iter (fun l -> output_string oc l; output_char oc '\n') lines);
      let tr = Trace.analyse lines in
      if not tr.Trace.balanced then prerr_endline "benchmark: trace spans are not balanced";
      if tr.Trace.min_self_s < -1e-9 then prerr_endline "benchmark: a span's children exceed it";
      [
        ("trace_ok", J.Bool (tr.Trace.balanced && tr.Trace.min_self_s >= -1e-9));
        ("layers", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) (List.map scaled (layer_values r tr))));
      ]
    end
  in
  let checks = r.W.check () in
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  List.iter (fun (name, _) -> Printf.eprintf "benchmark: %s: check failed: %s\n%!" w.W.name name) failed;
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("setup_s", J.Float (r.W.setup_s *. scale));
             ("run_s", J.Float (r.W.run_s *. scale));
             ("raw_run_s", J.Float r.W.run_s);
             ("yardstick_s", J.Float yardstick_s);
             ("rss_mb", J.Float r.W.rss_mb);
             ("ops_ms", J.List (List.map (fun x -> J.Float (x *. scale)) r.W.ops_ms));
             ("attempted", J.Int (List.length r.W.ops_ms + List.length checks));
             ("failed", J.Int (r.W.op_failures + List.length failed));
           ]
          @ layers)))

(* ---- one run: one workload for --seconds ---------------------------- *)

let run_main a =
  let w = match a.workloads with [ n ] -> workload n | _ -> die "give exactly one --workload" in
  let r = Reps.run ~w ~seed:a.seed ~seconds:(seconds a) ~quick:a.quick ~trace:a.trace in
  let values =
    if a.trace then begin
      let layers = Reps.per_layer ~traced:r.Reps.traced ~untraced:r.Reps.untraced in
      List.iter (fun (n, v) -> Printf.printf "%-32s %14.6g %s\n" n v (Metrics.unit_of n)) layers;
      layers
    end
    else begin
      let e2e = Reps.end_to_end r.Reps.untraced in
      List.iter (fun (n, v) -> Printf.printf "%-14s %12.6g %s\n" n v (Metrics.unit_of n)) e2e;
      let ops, beyond = Reps.operations r.Reps.untraced in
      Printf.printf "%d operations, %d beyond the 90th percentile\n" ops beyond;
      e2e
    end
  in
  let expected = if a.trace then List.length Metrics.per_layer else List.length Metrics.end_to_end in
  let complete =
    List.length values = expected && List.for_all (fun (_, v) -> Float.is_finite v) values
  in
  Printf.printf "%s: %d untraced and %d traced reps in %.1f s\n" w.W.name (List.length r.Reps.untraced)
    (List.length r.Reps.traced) r.Reps.elapsed_s;
  let per_rep label f rs =
    Printf.printf "%s per rep: %s\n" label (String.concat " " (List.map (fun x -> Printf.sprintf "%.6g" (f x)) rs))
  in
  per_rep "untraced run_s" (fun x -> x.Reps.run_s) r.Reps.untraced;
  per_rep "untraced raw_run_s" (fun x -> x.Reps.raw_run_s) r.Reps.untraced;
  per_rep "untraced yardstick_s" (fun x -> x.Reps.yardstick_s) r.Reps.untraced;
  per_rep "untraced setup_s" (fun x -> x.Reps.setup_s) r.Reps.untraced;
  if a.trace then per_rep "traced run_s" (fun x -> x.Reps.run_s) r.Reps.traced;
  let failed = Reps.failed r in
  let correct =
    failed = 0 && complete && List.for_all (fun x -> x.Reps.trace_ok) (r.Reps.untraced @ r.Reps.traced)
  in
  let metric (n, v) = (n, J.Obj [ ("value", J.Float v); ("unit", J.Str (Metrics.unit_of n)) ]) in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int (max 1 (Reps.attempted r)));
            ("failed", J.Int failed);
            ("metrics", J.Obj (List.map metric (List.filter (fun (_, v) -> Float.is_finite v) values)));
          ]))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "rep" :: rest -> rep_main (parse_args rest)
  | "benchmark" :: rest ->
    let a = parse_args rest in
    Sweep.main ~workloads:(selected a) ~seed:a.seed ~seconds:(seconds a) ~runs:(if a.quick then 1 else a.runs)
      ~quick:a.quick
  | "compare" :: rest -> (
    let a = parse_args rest in
    match a.positional with
    | [ before; after ] -> Compare.main before after
    | _ -> die "compare wants two BENCH_benchmark.json files")
  | rest -> run_main (parse_args rest)
