(* Every selected workload in one command, as runs of the single-run mode:
   [runs] untraced runs per workload, round-robin across the workloads (run
   1 of each, then run 2 of each, ...) so that drift of the machine spreads
   evenly over them, run i with seed [seed + i - 1]; then one traced run
   per workload. A metric's value per run is exactly what the single run
   reports, and the workload's value is the median over runs with the
   runs' quartiles. Prints every metric with
   its unit and writes BENCH_benchmark.json, the input of [compare].

   With --quick: runs of one rep at small sizes, and a self-check that
   every metric BENCHMARK.json declares is reported for every workload, that
   no operation failed and that the trace spans balance. *)

module J = Egglog.Telemetry.Json
module W = Workloads

let summary_json unit_ (s : Stats.summary) values =
  J.Obj
    [
      ("unit", J.Str unit_);
      ("median", J.Float s.Stats.median);
      ("q1", J.Float s.Stats.q1);
      ("q3", J.Float s.Stats.q3);
      ("n", J.Int s.Stats.n);
      ("values", J.List (List.map (fun v -> J.Float v) values));
    ]

(* The end-to-end block of one workload: per metric, the summary over runs
   of each run's value. *)
let end_to_end_json (runs : Reps.run list) =
  let per_run = List.map (fun (r : Reps.run) -> Reps.end_to_end r.Reps.untraced) runs in
  List.filter_map
    (fun (name, unit_, _) ->
      match List.filter_map (List.assoc_opt name) per_run with
      | [] -> None
      | values -> Some (name, summary_json unit_ (Stats.summarize values) values))
    Metrics.end_to_end

(* The operations of the run with the fewest, and how many of them lie
   beyond the 90th percentile. *)
let fewest_operations (runs : Reps.run list) =
  List.fold_left
    (fun (n, b) (r : Reps.run) ->
      let n', b' = Reps.operations r.Reps.untraced in
      if n' < n then (n', b') else (n, b))
    (max_int, 0) runs

let print_workload (w : W.t) e2e layers ~attempted ~failed ~ops =
  Printf.printf "\n== %s\n" w.W.name;
  Printf.printf "   %d operations and checks attempted, %d failed (fail ratio %g)\n" attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  Printf.printf "   %d operations in the smallest run, %d beyond its 90th percentile\n" (fst ops) (snd ops);
  List.iter
    (fun (name, j) ->
      let f k = match J.member k j with Some v -> Reps.num v | None -> nan in
      let i k = match J.member k j with Some (J.Int n) -> n | _ -> 0 in
      Printf.printf "   %-14s %12.6g %-3s  q1 %-10.6g q3 %-10.6g runs %d\n" name (f "median")
        (Metrics.unit_of name) (f "q1") (f "q3") (i "n"))
    e2e;
  List.iter
    (fun (l : Metrics.layer_metric) ->
      match List.assoc_opt l.Metrics.name layers with
      | Some v ->
        Printf.printf "   %-32s %14.6g %s%s\n" l.Metrics.name v l.Metrics.unit_
          (if l.Metrics.exact then "  exact" else "")
      | None -> ())
    Metrics.per_layer

let main ~workloads ~seed ~seconds ~runs ~quick =
  let declared = Metrics.declared (Metrics.spec ()) in
  let untraced = Hashtbl.create 8 in
  for i = 1 to runs do
    List.iter
      (fun (w : W.t) ->
        let seed = seed + i - 1 in
        let r = Reps.run ~w ~seed ~seconds ~quick ~trace:false in
        Printf.printf "run %d of %s, seed %d: %d reps in %.1f s\n%!" i w.W.name seed
          (List.length r.Reps.untraced) r.Reps.elapsed_s;
        Hashtbl.replace untraced w.W.name (r :: Option.value (Hashtbl.find_opt untraced w.W.name) ~default:[]))
      workloads
  done;
  let problems = ref [] in
  let blocks =
    List.map
      (fun (w : W.t) ->
        let traced = Reps.run ~w ~seed ~seconds ~quick ~trace:true in
        let untraced = List.rev (Hashtbl.find untraced w.W.name) in
        let all = traced :: untraced in
        let attempted = List.fold_left (fun n r -> n + Reps.attempted r) 0 all in
        let failed = List.fold_left (fun n r -> n + Reps.failed r) 0 all in
        let e2e = end_to_end_json untraced in
        let ops = fewest_operations untraced in
        let layers = Reps.per_layer ~traced:traced.Reps.traced ~untraced:traced.Reps.untraced in
        print_workload w e2e layers ~attempted ~failed ~ops;
        let problem fmt = Printf.ksprintf (fun s -> problems := (w.W.name ^ ": " ^ s) :: !problems) fmt in
        if failed > 0 then problem "%d of %d failed" failed attempted;
        if not (List.for_all (fun (r : Reps.result) -> r.Reps.trace_ok) traced.Reps.traced) then
          problem "trace spans unbalanced, or children exceed a parent";
        List.iter
          (fun n ->
            let finite = match List.assoc_opt n layers with Some v -> Float.is_finite v | None -> false in
            if not (List.mem_assoc n e2e || finite) then problem "metric %s missing" n)
          declared;
        J.Obj
          [
            ("name", J.Str w.W.name);
            ("runs", J.Int (List.length untraced));
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("operations", J.Int (fst ops));
            ("beyond_p90", J.Int (snd ops));
            ("end_to_end", J.Obj e2e);
            ( "per_layer",
              J.Obj
                (List.map
                   (fun (l : Metrics.layer_metric) ->
                     ( l.Metrics.name,
                       J.Obj
                         [
                           ("unit", J.Str l.Metrics.unit_);
                           ("value", J.Float (Option.value (List.assoc_opt l.Metrics.name layers) ~default:nan));
                           ("exact", J.Bool l.Metrics.exact);
                         ] ))
                   Metrics.per_layer) );
          ])
      workloads
  in
  J.write_file "BENCH_benchmark.json"
    (J.Obj
       [
         ("schema", J.Str "egglog-benchmark");
         ("version", J.Int 2);
         ("seed", J.Int seed);
         ("seconds", J.Float seconds);
         ("quick", J.Bool quick);
         ("workloads", J.List blocks);
       ]);
  print_endline "\nwrote BENCH_benchmark.json and one BENCH_trace_<workload>.jsonl per workload";
  match !problems with
  | [] -> if quick then print_endline "self-check passed"
  | ps ->
    List.iter (fun p -> prerr_endline ("benchmark: " ^ p)) (List.rev ps);
    exit 1
