(* Benchmark harness: one entry per figure in the paper's evaluation, plus
   bechamel micro-benchmarks for the engine's hot paths (§5.3). Each figure
   bench also writes a machine-readable BENCH_<name>.json (see
   {!Bench_report}) so CI validates results without scraping stdout.

     dune exec bench/main.exe            -- run everything (reduced sizes)
     dune exec bench/main.exe -- fig7    -- just one figure
     dune exec bench/main.exe -- smoke   -- tiny parameters for CI
     dune exec bench/main.exe -- full    -- paper-scale parameters (slow)

   [--jobs N] (or --jobs=N) fans the engine benches' search phases across
   N domains (0 = one per core); results are bit-identical to --jobs 1, so
   the jobs-matrix CI job compares envelopes across values. Any other
   argument is a usage error (exit 2). *)

let usage_error msg =
  Printf.eprintf "bench: %s\n" msg;
  exit 2

(* Strip --jobs from the argument list so figure selection ([want] below)
   still sees only figure names. *)
let rec split_jobs acc = function
  | [] -> (List.rev acc, 1)
  | "--jobs" :: v :: rest ->
    (match int_of_string_opt v with
     | Some j when j >= 0 -> (List.rev_append acc rest, j)
     | _ -> usage_error (Printf.sprintf "--jobs wants a non-negative integer, got %S" v))
  | [ "--jobs" ] -> usage_error "--jobs wants a value (0 = one domain per core)"
  | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
    let v = String.sub a 7 (String.length a - 7) in
    (match int_of_string_opt v with
     | Some j when j >= 0 -> (List.rev_append acc rest, j)
     | _ -> usage_error (Printf.sprintf "--jobs wants a non-negative integer, got %S" v))
  | a :: rest -> split_jobs (a :: acc) rest

let figures = [ "micro"; "fig7"; "fig8"; "fig11"; "fig12"; "serve" ]

let () =
  let args, jobs = split_jobs [] (Array.to_list Sys.argv |> List.tl) in
  List.iter
    (fun a ->
      if not (List.mem a ("smoke" :: "full" :: figures)) then
        usage_error
          (Printf.sprintf "unknown argument %S (expected smoke, full, --jobs N or one of: %s)" a
             (String.concat ", " figures)))
    args;
  let smoke = List.mem "smoke" args in
  let full = List.mem "full" args in
  if smoke then begin
    (* CI gate: exercise every reporting path in seconds, not minutes. *)
    Bench_micro.run ~quota:0.05 ();
    Bench_fig7.run ~iters:5 ~reps:1 ~jobs ();
    Bench_fig8.run_smoke ~jobs ();
    Bench_serve.run_smoke ()
  end
  else begin
    let want name = args = [] || List.mem name args || full in
    if want "micro" then Bench_micro.run ();
    if want "fig7" then
      if full then Bench_fig7.run ~iters:60 ~reps:5 ~jobs ()
      else Bench_fig7.run ~iters:35 ~reps:3 ~jobs ();
    if want "fig8" then Bench_fig8.run ~jobs ~full ();
    if want "fig11" || want "fig12" then Bench_herbie.run ~full ();
    if want "serve" then Bench_serve.run ()
  end;
  print_endline "\nAll requested benchmarks finished."
