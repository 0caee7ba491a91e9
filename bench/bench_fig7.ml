(* Fig. 7: performance of egglog vs egglogNI vs egg on the math workload.
   All three systems are seeded with egg's math test-suite terms and run
   under the BackOff scheduler on the analysis-free ruleset (§5.3).

   We report, per iteration, the e-graph size (e-nodes / math tuples) and
   cumulative wall-clock time, then the paper's two headline numbers:
   the speedup of egglogNI and egglog over egg at comparable e-graph
   sizes. Each system is run [reps] times; per-iteration times are
   medians. *)

type series = { sizes : int array; cum_seconds : float array }

let median xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length sorted / 2)

let run_egg ~iters () =
  let eg = Egraph.create () in
  List.iter (fun term -> ignore (Egraph.add_term eg term)) (Math_suite.egg_seed_terms ());
  let stats = Egraph.run eg ~scheduler:Egraph.backoff_default (Math_suite.egg_rewrites ()) iters in
  List.map (fun (s : Egraph.iter_stat) -> (s.is_nodes, s.is_seconds)) stats.Egraph.iters

let run_egglog ~seminaive ~iters () =
  let eng = Egglog.Engine.create ~seminaive ~scheduler:Egglog.Engine.backoff_default () in
  ignore (Egglog.run_string eng (Math_suite.egglog_program ()));
  let report = Egglog.Engine.run_iterations eng iters in
  (* report sizes as math tuples so they are comparable with egg e-nodes:
     it_rows counts all tuples incl. defines, so subtract the seed aliases *)
  let alias_rows = List.length Math_suite.seeds in
  List.map
    (fun (s : Egglog.Engine.iteration_stat) -> (s.it_rows - alias_rows, s.it_seconds))
    report.Egglog.Engine.iterations

let collect ~reps runner ~iters =
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
  { sizes; cum_seconds }

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

let run ?(iters = 40) ?(reps = 3) () =
  Printf.printf "=== Fig. 7: egglog vs egglogNI vs egg (math suite, BackOff) ===\n";
  Printf.printf "iterations=%d repetitions=%d (median per-iteration times)\n%!" iters reps;
  let egg = collect ~reps run_egg ~iters in
  let ni = collect ~reps (run_egglog ~seminaive:false) ~iters in
  let sn = collect ~reps (run_egglog ~seminaive:true) ~iters in
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
  (match time_to_size ni target with
   | Some t ->
     Printf.printf "egglogNI reaches %d tuples in %.3fs -> %.2fx speedup over egg (paper: 3.34x)\n"
       target t (egg_time /. t)
   | None -> Printf.printf "egglogNI never reached %d tuples in %d iterations\n" target iters);
  (match time_to_size sn target with
   | Some t ->
     Printf.printf "egglog   reaches %d tuples in %.3fs -> %.2fx speedup over egg (paper: 9.27x)\n"
       target t (egg_time /. t)
   | None -> Printf.printf "egglog never reached %d tuples in %d iterations\n" target iters);
  Printf.printf
    "egglog final e-graph: %d tuples (vs egg %d): larger space explored, as in the paper\n%!"
    (final sn) (final egg)
