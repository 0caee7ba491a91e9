(* Ablations over the engine's design choices (the knobs DESIGN.md calls
   out): semi-naïve evaluation, the single/two-atom join lowerings (off:
   every plan lowers to the generic trie join), and cross-iteration index
   caching. Each configuration runs the Fig. 7 math workload and the
   Steensgaard workload; times are wall clock for a fixed iteration
   budget. *)

type config = {
  label : string;
  seminaive : bool;
  fast_paths : bool;
  index_caching : bool;
}

let configs =
  [
    { label = "full engine"; seminaive = true; fast_paths = true; index_caching = true };
    {
      label = "generic lowering only";
      seminaive = true;
      fast_paths = false;
      index_caching = true;
    };
    { label = "no index cache"; seminaive = true; fast_paths = true; index_caching = false };
    { label = "naive (egglogNI)"; seminaive = false; fast_paths = true; index_caching = true };
    {
      label = "naive, generic lowering only";
      seminaive = false;
      fast_paths = false;
      index_caching = true;
    };
  ]

let run_math (c : config) ~iters =
  let eng =
    Egglog.Engine.create ~seminaive:c.seminaive ~fast_paths:c.fast_paths
      ~index_caching:c.index_caching ~scheduler:Egglog.Engine.backoff_default ()
  in
  ignore (Egglog.run_string eng (Math_suite.egglog_program ()));
  let t0 = Egglog.Telemetry.now () in
  ignore (Egglog.Engine.run_iterations eng iters);
  (Egglog.Telemetry.now () -. t0, Egglog.Engine.total_rows eng)

let run_pointsto (c : config) ~size =
  let p = Pointsto.Progen.generate ~size ~seed:1 () in
  let t0 = Egglog.Telemetry.now () in
  let eng =
    Pointsto.Egglog_enc.load ~seminaive:c.seminaive ~fast_paths:c.fast_paths
      ~index_caching:c.index_caching p
  in
  ignore (Egglog.Engine.run_iterations eng 1000);
  (Egglog.Telemetry.now () -. t0, Egglog.Engine.total_rows eng)

let run ~full () =
  let iters = if full then 35 else 25 in
  let size = if full then 3000 else 1000 in
  Printf.printf "\n=== Ablations (math: %d iterations; points-to: size %d) ===\n%!" iters size;
  Printf.printf "%-30s %16s %16s\n" "configuration" "math (s, rows)" "points-to (s)";
  List.iter
    (fun c ->
      let mt, mrows = run_math c ~iters in
      let pt, _ = run_pointsto c ~size in
      Printf.printf "%-30s %8.3fs %7d %10.3fs\n%!" c.label mt mrows pt)
    configs
