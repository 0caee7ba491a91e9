(* Reps in child processes, runs of reps, and the metrics over them. A run
   is what one invocation of the benchmark measures: one workload and seed,
   reps for a given number of seconds. Both the single run and the
   [benchmark] sweep go through [run], [end_to_end] and [per_layer]. *)

module J = Egglog.Telemetry.Json
module W = Workloads

type result = {
  setup_s : float;
  run_s : float;
  raw_run_s : float;  (** before scaling by the yardstick *)
  yardstick_s : float;
  rss_mb : float;
  ops_ms : float list;
  attempted : int;
  failed : int;
  trace_ok : bool;
  layers : (string * float) list;
}

let num = function J.Float f -> f | J.Int n -> float_of_int n | _ -> nan
let field k j = match J.member k j with Some v -> v | None -> J.Null

(* Start [main.exe rep ...] and wait for it. A rep that dies or prints no
   result counts as one failed operation. *)
let spawn_rep ~(w : W.t) ~seed ~quick ~traced =
  let args =
    [ Sys.executable_name; "rep"; "--workload"; w.W.name; "--seed"; string_of_int seed ]
    @ (if traced then [ "--traced" ] else [])
    @ if quick then [ "--quick" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  let last =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "") |> List.rev
    |> function
    | l :: _ -> Some l
    | [] -> None
  in
  match (status, Option.map J.parse last) with
  | Unix.WEXITED 0, Some j ->
    {
      setup_s = num (field "setup_s" j);
      run_s = num (field "run_s" j);
      raw_run_s = num (field "raw_run_s" j);
      yardstick_s = num (field "yardstick_s" j);
      rss_mb = num (field "rss_mb" j);
      ops_ms = (match field "ops_ms" j with J.List xs -> List.map num xs | _ -> []);
      attempted = int_of_float (num (field "attempted" j));
      failed = int_of_float (num (field "failed" j));
      trace_ok = field "trace_ok" j <> J.Bool false;
      layers = (match field "layers" j with J.Obj kv -> List.map (fun (k, v) -> (k, num v)) kv | _ -> []);
    }
  | _ | (exception J.Parse_error _) ->
    Printf.eprintf "benchmark: a %s rep failed\n%!" w.W.name;
    { setup_s = nan; run_s = nan; raw_run_s = nan; yardstick_s = nan; rss_mb = nan; ops_ms = []; attempted = 1; failed = 1; trace_ok = false; layers = [] }

let ok_reps rs = List.filter (fun r -> not (Float.is_nan r.run_s)) rs

(* ---- runs ----------------------------------------------------------- *)

type run = { untraced : result list; traced : result list; elapsed_s : float }

(* One run: reps of [w] for [seconds], at least three of them untraced. A
   rep starts only while the run has no more than that, or when it would
   end within [seconds] if it took as long as the rep before it. With
   [trace], traced and untraced reps alternate, so that drift hits both
   alike, and the run has at least one of each. With [quick], a run is one
   untraced rep, plus one traced rep with [trace]. No rep starts after
   100 s: with the reps' own 60 s alarm, a run ends within 160 s whatever
   fails. *)
let run ~(w : W.t) ~seed ~seconds ~quick ~trace =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let seconds = if quick then 0.0 else seconds in
  let min_untraced = if quick || trace then 1 else 3 in
  let rec loop i ~last_s untraced traced =
    let enough = List.length untraced >= min_untraced && ((not trace) || traced <> []) in
    if (enough && elapsed () +. last_s > seconds) || elapsed () >= 100.0 then (untraced, traced)
    else begin
      let as_traced = trace && i mod 2 = 1 in
      let start = elapsed () in
      let r = spawn_rep ~w ~seed ~quick ~traced:as_traced in
      let last_s = elapsed () -. start in
      if as_traced then loop (i + 1) ~last_s untraced (r :: traced)
      else loop (i + 1) ~last_s (r :: untraced) traced
    end
  in
  let untraced, traced = loop 0 ~last_s:0.0 [] [] in
  { untraced = List.rev untraced; traced = List.rev traced; elapsed_s = elapsed () }

let attempted r = List.fold_left (fun n x -> n + x.attempted) 0 (r.untraced @ r.traced)
let failed r = List.fold_left (fun n x -> n + x.failed) 0 (r.untraced @ r.traced)

(* ---- metrics over reps ---------------------------------------------- *)

(* The end-to-end metrics of a run, from its untraced reps: the median over
   reps of set-up time, run time and peak resident set, and the nearest-rank
   90th percentile of the operation latencies of all reps pooled, so that
   enough operations lie beyond it (see [operations]). Empty when no rep
   succeeded. A median of operation latencies is not reported: the
   iterations of a fixpoint come in a few distinct sizes, and the middle
   one jumps between them from run to run. *)
let end_to_end rs =
  match List.filter (fun r -> r.ops_ms <> []) (ok_reps rs) with
  | [] -> []
  | rs ->
    let median f = Stats.median (List.map f rs) in
    [
      ("setup_s", median (fun r -> r.setup_s));
      ("run_s", median (fun r -> r.run_s));
      ("peak_rss_mb", median (fun r -> r.rss_mb));
      ("op_p90_ms", Stats.percentile 90 (List.concat_map (fun r -> r.ops_ms) rs));
    ]

(* The operations of a run's reps, and how many lie beyond the 90th
   percentile. *)
let operations rs =
  let n = List.fold_left (fun n r -> n + List.length r.ops_ms) 0 (ok_reps rs) in
  (n, n - Stats.rank 90 n)

(* Per-layer values over the traced reps (medians), plus the tracing
   overhead against the untraced reps of the same run. *)
let per_layer ~traced ~untraced =
  let traced = ok_reps traced and untraced = ok_reps untraced in
  if traced = [] || untraced = [] then []
  else
    List.map
      (fun (l : Metrics.layer_metric) ->
        let v =
          if l.Metrics.name = "trace.overhead_ratio" then
            Stats.median (List.map (fun r -> r.run_s) traced)
            /. Stats.median (List.map (fun r -> r.run_s) untraced)
          else
            Stats.median
              (List.map (fun r -> Option.value (List.assoc_opt l.Metrics.name r.layers) ~default:nan) traced)
        in
        (l.Metrics.name, v))
      Metrics.per_layer
