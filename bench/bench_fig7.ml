(* Fig. 7: performance of egglog vs egglogNI vs egg on the math workload.
   All three systems are seeded with egg's math test-suite terms and run
   under the BackOff scheduler on the analysis-free ruleset (§5.3).

   We report, per iteration, the e-graph size (e-nodes / math tuples) and
   cumulative wall-clock time, then the paper's two headline numbers:
   the speedup of egglogNI and egglog over egg at comparable e-graph
   sizes. Each system is run [reps] times; per-iteration times are
   medians. *)

type series = { label : string; sizes : int array; cum_seconds : float array }

let median xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length sorted / 2)

let run_egg ~iters () =
  let eg = Egraph.create () in
  List.iter (fun term -> ignore (Egraph.add_term eg term)) (Math_suite.egg_seed_terms ());
  let stats = Egraph.run eg ~scheduler:Egraph.backoff_default (Math_suite.egg_rewrites ()) iters in
  List.map (fun (s : Egraph.iter_stat) -> (s.is_nodes, s.is_seconds)) stats.Egraph.iters

let math_tables =
  [ "Num"; "Var"; "Add"; "Sub"; "Mul"; "Div"; "Pow"; "Ln"; "Sqrt"; "Diff"; "Integral" ]

let run_egglog ~seminaive ~jobs ~iters () =
  let eng = Egglog.Engine.create ~seminaive ~scheduler:Egglog.Engine.backoff_default ~jobs () in
  ignore (Egglog.run_string eng (Math_suite.egglog_program ()));
  let report = Egglog.Engine.run_iterations eng iters in
  (* report sizes as math tuples so they are comparable with egg e-nodes *)
  let cum = ref 0 in
  ignore cum;
  List.map
    (fun (s : Egglog.Engine.iteration_stat) -> (s.it_rows, s.it_seconds))
    report.Egglog.Engine.iterations
  |> fun stats ->
  (* it_rows counts all tuples incl. defines; subtract the seed aliases *)
  let alias_rows = List.length Math_suite.seeds in
  List.map (fun (rows, dt) -> (rows - alias_rows, dt)) stats

let collect label ~reps runner ~iters =
  let runs = List.init reps (fun _ -> runner ~iters ()) in
  let len = List.fold_left (fun acc r -> min acc (List.length r)) max_int runs in
  let sizes = Array.make len 0 and cum_seconds = Array.make len 0.0 in
  let cum = ref 0.0 in
  for i = 0 to len - 1 do
    let at_i = List.map (fun r -> List.nth r i) runs in
    sizes.(i) <- fst (List.hd at_i);
    cum := !cum +. median (List.map snd at_i);
    cum_seconds.(i) <- !cum
  done;
  { label; sizes; cum_seconds }

(* Per-phase profile: the seminaive workload run in its own telemetry
   region, reporting wall seconds spent in each engine phase: the sum of
   the phase span's [<name>_s] histogram, keyed by the span name. Emitted for
   jobs 1 and a parallel jobs value side by side so the envelope carries
   the serial-vs-parallel split of each phase (only search fans out). *)
let phase_names = [ "engine.search"; "engine.apply"; "engine.rebuild" ]

let phase_profile ~jobs ~iters () =
  Egglog.Telemetry.reset ();
  Egglog.Telemetry.enable ();
  ignore (run_egglog ~seminaive:true ~jobs ~iters ());
  Egglog.Telemetry.disable ();
  let snap = Egglog.Telemetry.snapshot () in
  List.map
    (fun name ->
      ( name,
        match List.assoc_opt (name ^ "_s") snap.Egglog.Telemetry.sn_hists with
        | Some h -> h.Egglog.Telemetry.hs_sum
        | None -> 0.0 ))
    phase_names

let phases_json phases =
  Egglog.Telemetry.Json.Obj
    (List.map (fun (name, s) -> (name, Egglog.Telemetry.Json.Float s)) phases)

let print_phase_split ~parallel_jobs serial parallel =
  Printf.printf "\nper-phase seconds, serial vs jobs=%d:\n" parallel_jobs;
  List.iter2
    (fun (name, s) (_, p) ->
      Printf.printf "  %-16s %8.4fs -> %8.4fs (%.2fx)\n" name s p
        (if p > 0.0 then s /. p else nan))
    serial parallel

(* Time a system needs to first reach [size], linearly interpolated. *)
let time_to_size (s : series) size =
  let n = Array.length s.sizes in
  let rec go i =
    if i >= n then None
    else if s.sizes.(i) >= size then
      if i = 0 then Some s.cum_seconds.(0)
      else begin
        let s0 = float_of_int s.sizes.(i - 1) and s1 = float_of_int s.sizes.(i) in
        let t0 = s.cum_seconds.(i - 1) and t1 = s.cum_seconds.(i) in
        let frac = (float_of_int size -. s0) /. (s1 -. s0) in
        Some (t0 +. (frac *. (t1 -. t0)))
      end
    else go (i + 1)
  in
  go 0

let run ?(iters = 40) ?(reps = 3) ?(jobs = 1) () =
  Printf.printf "=== Fig. 7: egglog vs egglogNI vs egg (math suite, BackOff) ===\n";
  Printf.printf
    "iterations=%d repetitions=%d jobs=%d (median per-iteration times)\n%!" iters reps jobs;
  (* Collect engine counters over the whole measured region; the snapshot
     lands in BENCH_fig7.json so a regression in e.g. tuples scanned is
     visible without rerunning under --trace. *)
  Egglog.Telemetry.reset ();
  Egglog.Telemetry.enable ();
  let egg = collect "egg" ~reps (fun ~iters () -> run_egg ~iters ()) ~iters in
  let ni =
    collect "egglogNI" ~reps
      (fun ~iters () -> run_egglog ~seminaive:false ~jobs ~iters ())
      ~iters
  in
  let sn =
    collect "egglog" ~reps
      (fun ~iters () -> run_egglog ~seminaive:true ~jobs ~iters ())
      ~iters
  in
  Egglog.Telemetry.disable ();
  let telemetry = Egglog.Telemetry.snapshot_to_json (Egglog.Telemetry.snapshot ()) in
  (* Serial-vs-parallel phase split, in its own telemetry regions (the main
     snapshot above is already taken). *)
  let parallel_jobs = if jobs > 1 then jobs else 4 in
  let serial_phases = phase_profile ~jobs:1 ~iters () in
  let parallel_phases = phase_profile ~jobs:parallel_jobs ~iters () in
  Egglog.Telemetry.reset ();
  Printf.printf "%6s  %22s  %22s  %22s\n" "iter" "egg (nodes, cum s)" "egglogNI (tuples, s)"
    "egglog (tuples, s)";
  let len = min (Array.length egg.sizes) (min (Array.length ni.sizes) (Array.length sn.sizes)) in
  for i = 0 to len - 1 do
    if i < 5 || (i + 1) mod 5 = 0 then
      Printf.printf "%6d  %12d %9.3f  %12d %9.3f  %12d %9.3f\n" (i + 1) egg.sizes.(i)
        egg.cum_seconds.(i) ni.sizes.(i) ni.cum_seconds.(i) sn.sizes.(i) sn.cum_seconds.(i)
  done;
  (* Speedups at the largest e-graph size all three systems reached
     (BackOff ban timing makes the final sizes drift apart slightly). *)
  let final s = s.sizes.(Array.length s.sizes - 1) in
  let target = min (final egg) (min (final ni) (final sn)) in
  let egg_time = Option.get (time_to_size egg target) in
  Printf.printf "\ncommon target size: %d e-nodes; egg needs %.3fs\n" target egg_time;
  let ni_time = time_to_size ni target and sn_time = time_to_size sn target in
  (match ni_time with
   | Some t ->
     Printf.printf "egglogNI reaches %d tuples in %.3fs -> %.2fx speedup over egg (paper: 3.34x)\n"
       target t (egg_time /. t)
   | None -> Printf.printf "egglogNI never reached %d tuples in %d iterations\n" target iters);
  (match sn_time with
   | Some t ->
     Printf.printf "egglog   reaches %d tuples in %.3fs -> %.2fx speedup over egg (paper: 9.27x)\n"
       target t (egg_time /. t)
   | None -> Printf.printf "egglog never reached %d tuples in %d iterations\n" target iters);
  let egg_final_size = final egg in
  let sn_final = sn.sizes.(Array.length sn.sizes - 1) in
  Printf.printf
    "egglog final e-graph: %d tuples (vs egg %d): larger space explored, as in the paper\n%!"
    sn_final egg_final_size;
  print_phase_split ~parallel_jobs serial_phases parallel_phases;
  let module J = Egglog.Telemetry.Json in
  let series_json s =
    J.Obj
      [
        ("label", J.Str s.label);
        ("sizes", Bench_report.int_array s.sizes);
        ("cum_seconds", Bench_report.float_array s.cum_seconds);
      ]
  in
  let speedup = function
    | Some t when t > 0.0 -> J.Float (egg_time /. t)
    | Some _ | None -> J.Null
  in
  Bench_report.write ~telemetry ~bench:"fig7"
    ~params:
      (J.Obj
         [
           ("iters", J.Int iters);
           ("reps", J.Int reps);
           ("jobs", J.Int jobs);
         ])
    ~data:
      (J.Obj
         [
           ("series", J.List (List.map series_json [ egg; ni; sn ]));
           ("target_size", J.Int target);
           ("egg_seconds_to_target", J.Float egg_time);
           ("speedup_egglogNI_over_egg", speedup ni_time);
           ("speedup_egglog_over_egg", speedup sn_time);
           ( "phase_profile",
             J.Obj
               [
                 ("parallel_jobs", J.Int parallel_jobs);
                 ("serial", phases_json serial_phases);
                 ("parallel", phases_json parallel_phases);
               ] );
         ])
    ()
