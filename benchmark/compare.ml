(* Compare two BENCH_benchmark.json files, A (before) and B (after), per
   workload and end-to-end metric, against the bounds BENCHMARK.json fixes.
   Each side holds, per metric, the values of its runs (one median over
   reps per run); the spread of a side is the distance between its runs'
   quartiles as a share of their median, the run-to-run spread.

   - unresolved: either side's spread exceeds the bound, unless every run
     of B reads better than every run of A;
   - worse: B's median is worse than A's by more than the bound;
   - better: B's median is better than A's by more than the bound;
   - same: anything else.

   The exact per-layer counters must be identical, value for value. Exits
   1 when any metric is worse or unresolved, or any exact counter moved. *)

module J = Egglog.Telemetry.Json

let load path =
  try J.parse (In_channel.with_open_text path In_channel.input_all)
  with Sys_error e | J.Parse_error e -> failwith (Printf.sprintf "cannot read %s: %s" path e)

let members key j = match J.member key j with Some (J.Obj kv) -> kv | _ -> []
let list key j = match J.member key j with Some (J.List xs) -> xs | _ -> []
let num key j = match J.member key j with Some v -> Reps.num v | None -> nan
let workloads j = List.map (fun w -> (Metrics.str "name" w, w)) (list "workloads" j)

let spread s = (num "q3" s -. num "q1" s) /. Float.abs (num "median" s)

let verdict ~lower ~bound a b =
  let ma = num "median" a and mb = num "median" b in
  let sign = if lower then 1.0 else -1.0 in
  let worse_by = sign *. (mb -. ma) /. Float.abs ma in
  let values s = List.map Reps.num (list "values" s) in
  let all_better =
    let va = values a and vb = values b in
    va <> [] && vb <> []
    && List.for_all (fun y -> List.for_all (fun x -> sign *. (y -. x) < 0.0) va) vb
  in
  let v =
    if Float.max (spread a) (spread b) > bound && not all_better then "unresolved"
    else if worse_by > bound then "worse"
    else if -.worse_by > bound then "better"
    else "same"
  in
  (worse_by, v)

let main before after =
  let bounds = Metrics.bounds (Metrics.spec ()) in
  let a = workloads (load before) and b = workloads (load after) in
  let bad = ref 0 in
  Printf.printf "%-18s %-12s %26s %26s %8s %7s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "delta" "spread" "bound" "verdict";
  List.iter
    (fun (name, wa) ->
      match List.assoc_opt name b with
      | None -> Printf.printf "%-18s only in %s\n" name before
      | Some wb ->
        let ea = members "end_to_end" wa and eb = members "end_to_end" wb in
        List.iter
          (fun (metric, (lower, bound)) ->
            match (List.assoc_opt metric ea, List.assoc_opt metric eb) with
            | Some sa, Some sb ->
              let worse_by, v = verdict ~lower ~bound sa sb in
              if v = "worse" || v = "unresolved" then incr bad;
              let cell s = Printf.sprintf "%.4g [%.4g, %.4g]" (num "median" s) (num "q1" s) (num "q3" s) in
              Printf.printf "%-18s %-12s %26s %26s %+7.1f%% %6.1f%% %5.0f%%  %s\n" name metric (cell sa)
                (cell sb) (100.0 *. worse_by)
                (100.0 *. Float.max (spread sa) (spread sb))
                (100.0 *. bound) v
            | _ ->
              incr bad;
              Printf.printf "%-18s %-12s missing on one side\n" name metric)
          bounds;
        let la = members "per_layer" wa and lb = members "per_layer" wb in
        let exact = List.filter (fun (_, l) -> J.member "exact" l = Some (J.Bool true)) la in
        let value l = J.to_string (Option.value (J.member "value" l) ~default:J.Null) in
        let moved =
          List.filter
            (fun (metric, l) ->
              match List.assoc_opt metric lb with Some l' -> value l <> value l' | None -> true)
            exact
        in
        List.iter
          (fun (metric, l) ->
            incr bad;
            Printf.printf "%-18s exact counter %s: %s -> %s\n" name metric (value l)
              (match List.assoc_opt metric lb with Some l' -> value l' | None -> "missing"))
          moved;
        if moved = [] then
          Printf.printf "%-18s all %d exact counters identical\n" name (List.length exact))
    a;
  if !bad > 0 then exit 1
