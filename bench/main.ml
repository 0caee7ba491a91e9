(* Benchmark harness: one entry per figure in the paper's evaluation, plus
   bechamel micro-benchmarks for the engine's hot paths (§5.3). Every
   figure prints its table to stdout and writes no file; the exact work
   counters and the regression gate live in the benchmark of record
   (benchmark/).

     dune exec bench/main.exe            -- run everything (reduced sizes)
     dune exec bench/main.exe -- fig7    -- just one figure
     dune exec bench/main.exe -- memory  -- live heap words by component
     dune exec bench/main.exe -- smoke   -- tiny parameters for CI
     dune exec bench/main.exe -- full    -- paper-scale parameters (slow)

   Any other argument is a usage error (exit 2). *)

let usage_error msg =
  Printf.eprintf "bench: %s\n" msg;
  exit 2

let figures = [ "micro"; "fig7"; "fig8"; "fig11"; "fig12"; "memory" ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  List.iter
    (fun a ->
      if not (List.mem a ("smoke" :: "full" :: figures)) then
        usage_error
          (Printf.sprintf "unknown argument %S (expected smoke, full or one of: %s)" a
             (String.concat ", " figures)))
    args;
  let smoke = List.mem "smoke" args in
  let full = List.mem "full" args in
  if smoke then begin
    (* CI gate: exercise every figure's printing path in seconds, not minutes. *)
    Bench_micro.run ~quota:0.05 ();
    Bench_fig7.run ~iters:5 ~reps:1 ();
    Bench_fig8.run_smoke ();
    Bench_memory.run ()
  end
  else begin
    let want name = args = [] || List.mem name args || full in
    if want "micro" then Bench_micro.run ();
    if want "fig7" then
      if full then Bench_fig7.run ~iters:60 ~reps:5 ()
      else Bench_fig7.run ~iters:35 ~reps:3 ();
    if want "fig8" then Bench_fig8.run ~full ();
    if want "fig11" || want "fig12" then Bench_herbie.run ~full ();
    if want "memory" then Bench_memory.run ()
  end;
  print_endline "\nAll requested benchmarks finished."
