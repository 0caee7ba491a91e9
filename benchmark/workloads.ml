(* The six workloads. Each one runs one repetition ("rep") in the calling
   process: build the inputs from the seed, set up, run the measured part,
   and hand back the checks of the output against an independent reference.
   Everything goes through the program's public API; [span] marks the calls
   into each layer so a traced rep can attribute its time (see {!Trace}).
   With telemetry disabled, [span] costs one branch. *)

module E = Egglog
module T = E.Telemetry
module P = Pointsto
module H = Herbie

let span = T.span

type rep = {
  setup_s : float;  (** median over the rep's set-ups *)
  run_s : float;  (** the measured part, set-up excluded *)
  ops_ms : float list;  (** latency of each operation inside the measured part *)
  op_failures : int;  (** operations answered with an error *)
  rss_mb : float;  (** peak resident set (VmHWM) right after the measured part *)
  rows : int;  (** tuples in the final database *)
  classes : int;  (** e-classes in the final database *)
  txn_empty_s : float;
      (** a no-op [with_transaction] on the loaded engine (traced reps only,
          after the measured part) *)
  check : unit -> (string * bool) list;
      (** the named correctness checks, run once tracing has stopped *)
}

type t = {
  name : string;
  domains : int;  (** domains that compute at the same time in the measured part *)
  run : quick:bool -> seed:int -> traced:bool -> rep;
}

let elapsed f =
  let t0 = T.now () in
  let v = f () in
  (T.now () -. t0, v)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM line in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* Bytes handed to the frontend, and terms extracted, by this process. *)
let parsed_bytes = ref 0
let extracted_terms = ref 0

let count_terms terms =
  extracted_terms := !extracted_terms + List.length terms;
  terms

let parse src =
  parsed_bytes := !parsed_bytes + String.length src;
  span "bench.parse" (fun () -> E.Frontend.parse_program src)

let run_text eng src =
  let cmds = parse src in
  ignore (span "bench.command" (fun () -> E.Engine.run_program eng cmds))

(* Run [setup] [k] times and keep the last state; a small set-up repeats so
   that its median is not a single clock reading. *)
let repeated_setup k setup () =
  let times = List.init k (fun _ -> elapsed (fun () -> span "bench.setup" setup)) in
  (Stats.median (List.map fst times), snd (List.nth times (k - 1)))

(* The measured region of a rep: [setup], which times itself, then [run]
   on the state it built. A traced rep attributes the time inside this
   span to layers. *)
let measured ~setup ~run =
  span "bench.rep" (fun () ->
      let setup_s, state = setup () in
      let run_s, result = elapsed (fun () -> run state) in
      (setup_s, state, run_s, result))

let txn_probe ~traced eng =
  if not traced then 0.0
  else
    Stats.median
      (List.init 5 (fun _ ->
           fst (elapsed (fun () -> span "bench.txn" (fun () -> E.Engine.with_transaction eng ignore)))))

let shuffle rand xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let iteration_ms (r : E.Engine.run_report) =
  List.map (fun (it : E.Engine.iteration_stat) -> it.E.Engine.it_seconds *. 1000.0) r.E.Engine.iterations

(* ---- math-eqsat ---------------------------------------------------- *)

(* Equalities the math rules derive in a few steps each (pow2, i-sum,
   d-add, distribute + one-mul, comm-mul + factor, sub-canon), written by
   hand from the rules, and one the rules must not derive. *)
let math_derived =
  [
    {|(= seed3 (Mul (Add (Var "x") (Num 1)) (Add (Var "x") (Num 1))))|};
    {|(= seed6 (Add (Integral (Var "x") (Var "x")) (Integral (Var "x") (Var "x"))))|};
    {|(= seed4 (Add (Diff (Var "x") (Num 1)) (Diff (Var "x") (Mul (Num 2) (Var "x")))))|};
    {|(= seed1 (Add (Mul (Add (Var "x") (Num 3)) (Var "x")) (Add (Var "x") (Num 3))))|};
    {|(= seed2 (Mul (Add (Var "x") (Var "y")) (Add (Var "y") (Var "x"))))|};
    {|(= seed0 (Add (Num 1) (Add (Var "a") (Mul (Num -1) (Mul (Sub (Num 2) (Num 1)) (Var "a"))))))|};
  ]

let math_not_derived = [ "(= seed3 seed6)" ]
let fact src = E.Frontend.fact_of_sexp (Sexpr.parse_one src)

(* The seed permutes the order of the seed-term definitions: the same
   e-graph up to renaming of ids. *)
let math_program ~seed =
  let defines =
    List.mapi
      (fun i s -> Printf.sprintf "(define seed%d %s)" i (Math_suite.to_egglog (Sexpr.parse_one s)))
      Math_suite.seeds
  in
  String.concat "\n"
    (Math_suite.egglog_prelude :: Math_suite.egglog_rules ()
    :: shuffle (Random.State.make [| seed |]) defines)

let math_eqsat ~quick ~seed ~traced =
  let iters = if quick then 8 else 35 in
  let program = math_program ~seed in
  let setup_s, eng, run_s, report =
    measured
      ~setup:
        (repeated_setup 5 (fun () ->
             let eng = E.Engine.create ~scheduler:E.Engine.backoff_default ~jobs:1 () in
             run_text eng program;
             eng))
      ~run:(fun eng -> span "bench.run" (fun () -> E.Engine.run_iterations eng iters))
  in
  let rss_mb = peak_rss_mb () in
  {
    setup_s;
    run_s;
    ops_ms = iteration_ms report;
    op_failures = 0;
    rss_mb;
    rows = E.Engine.total_rows eng;
    classes = E.Engine.n_classes eng;
    txn_empty_s = txn_probe ~traced eng;
    check =
      (fun () ->
        List.map (fun s -> (s, E.Engine.check_facts eng [ fact s ])) math_derived
        @ List.map (fun s -> ("not " ^ s, not (E.Engine.check_facts eng [ fact s ]))) math_not_derived);
  }

(* ---- points-to ------------------------------------------------------ *)

let fact_command (inst : P.Ir.inst) =
  match inst with
  | P.Ir.Alloc (v, s) -> Printf.sprintf "(allocI %d %d)" v s
  | P.Ir.Copy (d, s) -> Printf.sprintf "(copyI %d %d)" d s
  | P.Ir.Store (p, q) -> Printf.sprintf "(storeI %d %d)" p q
  | P.Ir.Load (d, p) -> Printf.sprintf "(loadI %d %d)" d p
  | P.Ir.Field (d, p, f) -> Printf.sprintf "(fieldI %d %d %d)" d p f

let set_fact eng (inst : P.Ir.inst) =
  let i n = E.Value.VInt n and set name args = E.Engine.set_fact eng name args E.Value.VUnit in
  match inst with
  | P.Ir.Alloc (v, s) -> set "allocI" [ i v; i s ]
  | P.Ir.Copy (d, s) -> set "copyI" [ i d; i s ]
  | P.Ir.Store (p, q) -> set "storeI" [ i p; i q ]
  | P.Ir.Load (d, p) -> set "loadI" [ i d; i p ]
  | P.Ir.Field (d, p, f) -> set "fieldI" [ i d; i p; i f ]

(* The points-to input: one generated program, its variables and sites
   renamed by a permutation drawn from the seed. Every seed poses the same
   analysis problem with different ids, so different hash layouts and
   table orders, and the spread between seeds measures the engine and the
   machine rather than the luck of one generated instance. *)
let program ~size ~seed =
  let p = P.Progen.generate ~size ~seed:1 () in
  let rand = Random.State.make [| seed |] in
  let perm n = Array.of_list (shuffle rand (List.init n Fun.id)) in
  let var = perm p.P.Ir.n_vars and site = perm p.P.Ir.n_sites in
  let rename (inst : P.Ir.inst) : P.Ir.inst =
    match inst with
    | P.Ir.Alloc (v, s) -> P.Ir.Alloc (var.(v), site.(s))
    | P.Ir.Copy (d, s) -> P.Ir.Copy (var.(d), var.(s))
    | P.Ir.Store (a, b) -> P.Ir.Store (var.(a), var.(b))
    | P.Ir.Load (d, a) -> P.Ir.Load (var.(d), var.(a))
    | P.Ir.Field (d, a, f) -> P.Ir.Field (var.(d), var.(a), f)
  in
  { p with P.Ir.insts = Array.map rename p.P.Ir.insts }

let pointsto_correct p eng =
  Fingerprint.mismatches (Fingerprint.of_engine p eng)
    (Fingerprint.of_reference p (P.Reference.analyze p))
  = 0

(* [Pointsto.Egglog_enc.load] spelled out, so that the schema parse and the
   typed-API fact inserts are timed apart. *)
let pointsto ~jobs ~quick ~seed ~traced =
  let p = program ~size:(if quick then 200 else 5000) ~seed in
  let setup_s, eng, run_s, report =
    measured
      ~setup:
        (repeated_setup 1 (fun () ->
             let eng = E.Engine.create ~jobs () in
             run_text eng P.Egglog_enc.program_text;
             span "bench.facts" (fun () -> Array.iter (set_fact eng) p.P.Ir.insts);
             eng))
      ~run:(fun eng -> span "bench.run" (fun () -> E.Engine.run_iterations eng 1000))
  in
  let rss_mb = peak_rss_mb () in
  {
    setup_s;
    run_s;
    ops_ms = iteration_ms report;
    op_failures = 0;
    rss_mb;
    rows = E.Engine.total_rows eng;
    classes = E.Engine.n_classes eng;
    txn_empty_s = txn_probe ~traced eng;
    check =
      (fun () ->
        [
          ("saturated", report.E.Engine.stop_reason = E.Engine.Saturated);
          ("matches the reference", pointsto_correct p eng);
        ]);
  }

(* ---- text-load ------------------------------------------------------ *)

(* The CLI path: the program as egglog text, parsed by the frontend and
   executed one command at a time. The schema is the set-up; the facts and
   the run are the measured part, one operation per command. *)
let text_load ~quick ~seed ~traced =
  let p = program ~size:(if quick then 30 else 200) ~seed in
  let body =
    String.concat "\n" (Array.to_list (Array.map fact_command p.P.Ir.insts) @ [ "(run 1000)" ])
  in
  let setup_s, eng, run_s, ops =
    measured
      ~setup:
        (repeated_setup 5 (fun () ->
             let eng = E.Engine.create ~jobs:1 () in
             run_text eng P.Egglog_enc.program_text;
             eng))
      ~run:(fun eng ->
        List.map
          (fun cmd -> fst (elapsed (fun () -> span "bench.command" (fun () -> E.Engine.run_command eng cmd))))
          (parse body))
  in
  let rss_mb = peak_rss_mb () in
  {
    setup_s;
    run_s;
    ops_ms = List.map (fun s -> s *. 1000.0) ops;
    op_failures = 0;
    rss_mb;
    rows = E.Engine.total_rows eng;
    classes = E.Engine.n_classes eng;
    txn_empty_s = txn_probe ~traced eng;
    check = (fun () -> [ ("matches the reference", pointsto_correct p eng) ]);
  }

(* ---- herbie-sound --------------------------------------------------- *)

(* The node budget [Pipeline.saturate] applies, a literal in pipeline.ml.
   Were the two to differ, a traced rep would saturate differently, and its
   check that it chooses what [improve] chooses would fail. *)
let herbie_node_limit = 30_000

(* The engine [Pipeline.saturate] builds, from the same texts through the
   same parse and [run_program] as [Egglog.run_string]. *)
let herbie_engine (bench : H.Suite.bench) =
  let eng = E.Engine.create ~scheduler:E.Engine.backoff_default () in
  run_text eng (H.Rules.sound_program ());
  run_text eng (H.Rules.range_facts bench.H.Suite.ranges);
  run_text eng (Printf.sprintf "(define root %s)" (H.Rules.expr_to_egglog bench.H.Suite.expr));
  eng

(* [Pipeline.improve Sound] step by step, doing the same work, so that a
   traced rep times saturation, extraction and scoring apart. Returns the
   chosen program, and adds the saturated e-graph's tuples and classes to
   [saturated]. *)
let improve_by_steps ~saturated (bench : H.Suite.bench) =
  let eng = herbie_engine bench in
  (try
     for _ = 1 to H.Pipeline.iterations do
       ignore (span "bench.run" (fun () -> E.Engine.run_iterations eng 1));
       if E.Engine.total_rows eng > herbie_node_limit then raise Exit
     done
   with Exit -> ());
  let rows, classes = !saturated in
  saturated := (rows + E.Engine.total_rows eng, classes + E.Engine.n_classes eng);
  let terms =
    span "bench.extract" (fun () ->
        E.Engine.extract_candidates eng (E.Engine.eval_call eng "root" []) ~max:H.Pipeline.max_candidates
        |> count_terms)
  in
  let exprs =
    List.filter_map (fun t -> try Some (H.Rules.term_to_expr t) with H.Rules.Bad_term _ -> None) terms
  in
  span "bench.score" (fun () ->
      let test = H.Pipeline.test_spec bench and train = H.Pipeline.train_spec bench in
      (* the error before and after on the test sample, as [improve] scores them *)
      ignore (H.Error.avg_bits test bench.H.Suite.expr);
      let chosen =
        snd
          (List.fold_left
             (fun (bb, be) e ->
               let b = H.Error.avg_bits train e in
               if b < bb then (b, e) else (bb, be))
             (Float.infinity, bench.H.Suite.expr)
             (bench.H.Suite.expr :: exprs))
      in
      ignore (H.Error.avg_bits test chosen);
      chosen)

(* The exact value of [e] at a sample point, in rational arithmetic;
   [None] where it divides by zero. @raise Exit on a square or cube root,
   which has no exact rational value. *)
let rec exact env (e : H.Fpexpr.expr) =
  let open H.Fpexpr in
  let bin f a b = match (exact env a, exact env b) with Some x, Some y -> Some (f x y) | _ -> None in
  match e with
  | Num r -> Some r
  | Var x -> Some (Rat.of_float (env x))
  | Add (a, b) -> bin Rat.add a b
  | Sub (a, b) -> bin Rat.sub a b
  | Mul (a, b) -> bin Rat.mul a b
  | Div (a, b) -> (
    match (exact env a, exact env b) with
    | Some x, Some y when Rat.sign y <> 0 -> Some (Rat.div x y)
    | _ -> None)
  | Neg a -> Option.map Rat.neg (exact env a)
  | Fma (a, b, c) -> bin Rat.add (Mul (a, b)) c
  | Sqrt _ | Cbrt _ -> raise Exit

(* Does [chosen] compute the same real function as [input] on the sample?
   To 1e-12 in double-double ([Error.equivalent_on]); where that cannot
   settle it, as in a cancellation as deep as expand-binomial's, exactly in
   rational arithmetic, if both expressions are rational. *)
let same_function spec input chosen =
  H.Error.equivalent_on spec input chosen
  ||
  try
    List.for_all
      (fun env -> Option.equal Rat.equal (exact env input) (exact env chosen))
      (H.Error.points spec)
  with Exit -> false

(* The suite is fixed; the seed draws the sample on which every chosen
   program must compute the same function as its input. *)
let herbie_sound ~quick ~seed ~traced =
  let benches = if quick then List.filteri (fun i _ -> i < 3) H.Suite.benches else H.Suite.benches in
  let saturated = ref (0, 0) in
  let setup_s, eng, run_s, outcomes =
    measured
      ~setup:(repeated_setup 5 (fun () -> herbie_engine (List.hd benches)))
      ~run:(fun _ ->
        List.map
          (fun bench ->
            if traced then elapsed (fun () -> improve_by_steps ~saturated bench)
            else begin
              let o = H.Pipeline.improve H.Pipeline.Sound bench in
              (o.H.Pipeline.seconds, o.H.Pipeline.chosen)
            end)
          benches)
  in
  let chosen = List.map snd outcomes in
  let rss_mb = peak_rss_mb () in
  {
    setup_s;
    run_s;
    ops_ms = List.map (fun (s, _) -> s *. 1000.0) outcomes;
    op_failures = 0;
    rss_mb;
    (* summed over the saturated e-graphs, which only a traced rep sees *)
    rows = fst !saturated;
    classes = snd !saturated;
    txn_empty_s = txn_probe ~traced eng;
    check =
      (fun () ->
        List.concat
          (List.map2
             (fun (bench : H.Suite.bench) chosen ->
               let test = H.Pipeline.test_spec bench and input = bench.H.Suite.expr in
               let name = bench.H.Suite.name in
               [
                 ( name ^ " computes the same function",
                   same_function { test with H.Error.seed } input chosen );
                 (* chosen on the training sample, so it may lose a little on
                    the test sample *)
                 ( name ^ " loses at most a bit",
                   H.Error.avg_bits test chosen <= H.Error.avg_bits test input +. 1.0 );
                 ( name ^ " chosen as improve does",
                   (not traced) || (H.Pipeline.improve H.Pipeline.Sound bench).H.Pipeline.chosen = chosen );
               ])
             benches chosen));
  }

(* ---- serve-incremental ---------------------------------------------- *)

module J = T.Json
module S = Egglog_server

type client = { ic : in_channel; oc : out_channel }

let rpc c fields =
  output_string c.oc (J.to_string (J.Obj fields));
  output_char c.oc '\n';
  flush c.oc;
  J.parse (input_line c.ic)

let ok r = J.member "ok" r = Some (J.Bool true)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* [n] pairs of variables that share a pointee class holding a site, by the
   hand-written analysis of [p]. A class with a site is named by its
   smallest site. Such a pair stays equal however many instructions are
   added later, so the check must pass. *)
let equal_pairs (p : P.Ir.program) ~rand ~n =
  let by_class = Hashtbl.create 256 in
  Array.iteri
    (fun v (e : Fingerprint.entry) ->
      if e.Fingerprint.n_sites > 0 then
        Hashtbl.replace by_class e.Fingerprint.min_site
          (v :: Option.value (Hashtbl.find_opt by_class e.Fingerprint.min_site) ~default:[]))
    (Fingerprint.of_reference p (P.Reference.analyze p));
  let groups =
    Hashtbl.fold (fun _ vs acc -> if List.length vs >= 2 then Array.of_list vs :: acc else acc) by_class []
    |> List.sort compare |> Array.of_list
  in
  List.init n (fun _ ->
      let g = groups.(Random.State.int rand (Array.length groups)) in
      let a = Random.State.int rand (Array.length g) in
      let b = (a + 1 + Random.State.int rand (Array.length g - 1)) mod Array.length g in
      (g.(a), g.(b)))

(* One daemon on its own domain and one client on one connection, in a
   closed loop. The session is durable: every request is a transaction plus
   a journal fsync, with a checkpoint every 64 commits. A write adds one
   instruction and runs to fixpoint (incremental evaluation); a read checks
   an equality the reference implies. Three reads per write. *)
let serve_incremental ~quick ~seed ~traced =
  let p = program ~size:(if quick then 30 else 200) ~seed in
  let n_requests = if quick then 40 else 400 in
  let n_pre = Array.length p.P.Ir.insts * 9 / 10 in
  let prefix = { p with P.Ir.insts = Array.sub p.P.Ir.insts 0 n_pre } in
  let pairs = ref (equal_pairs prefix ~rand:(Random.State.make [| seed |]) ~n:n_requests) in
  let preload =
    String.concat "\n"
      ((P.Egglog_enc.program_text :: Array.to_list (Array.map fact_command prefix.P.Ir.insts))
      @ [ "(run 1000)" ])
  in
  let next_write = ref n_pre in
  let request_program i =
    if i mod 4 = 0 && !next_write < Array.length p.P.Ir.insts then begin
      let inst = p.P.Ir.insts.(!next_write) in
      incr next_write;
      fact_command inst ^ " (run 1000)"
    end
    else begin
      let a, b = List.hd !pairs in
      pairs := List.tl !pairs;
      Printf.sprintf "(check (= (vpt %d) (vpt %d)))" a b
    end
  in
  (* The daemon's files live in the working directory, removed afterwards. *)
  let dir = Printf.sprintf ".bench_tmp/serve-%d" (Unix.getpid ()) in
  remove_tree dir;
  if not (Sys.file_exists ".bench_tmp") then Sys.mkdir ".bench_tmp" 0o755;
  Sys.mkdir dir 0o755;
  let sock = Filename.concat dir "s.sock" in
  let id = ref 0 in
  let request c op fields =
    incr id;
    span "bench.request" (fun () ->
        rpc c (("id", J.Int !id) :: ("op", J.Str op) :: ("session", J.Str "bench") :: fields))
  in
  let srv = ref None and dom = ref None and fd = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !fd;
      Option.iter S.Serve.request_drain !srv;
      Option.iter Domain.join !dom;
      remove_tree dir;
      try Sys.rmdir ".bench_tmp" with Sys_error _ -> ())
    (fun () ->
      let setup_s, (c, setup_ok), run_s, replies =
        measured
          ~setup:(fun () ->
            elapsed (fun () ->
                span "bench.setup" (fun () ->
                    let s =
                      S.Serve.create
                        { S.Serve.default_config with socket_path = Some sock; data_dir = Some dir }
                    in
                    srv := Some s;
                    dom := Some (Domain.spawn (fun () -> S.Serve.run s));
                    let sfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                    fd := Some sfd;
                    Unix.connect sfd (Unix.ADDR_UNIX sock);
                    let c = { ic = Unix.in_channel_of_descr sfd; oc = Unix.out_channel_of_descr sfd } in
                    (* load ephemerally, then attach the journal: one
                       checkpoint instead of one fsync per preloaded fact *)
                    let loaded = ok (request c "run" [ ("program", J.Str preload) ]) in
                    let durable = ok (request c "open-session" [ ("durable", J.Bool true) ]) in
                    (c, [ ("preload reply", loaded); ("open-session reply", durable) ]))))
          ~run:(fun (c, _) ->
            List.init n_requests (fun i ->
                let program = request_program i in
                elapsed (fun () -> request c "run" [ ("program", J.Str program) ])))
      in
      let rss_mb = peak_rss_mb () in
      let stats = request c "stats" [] in
      let int_field k = match J.member k stats with Some (J.Int n) -> n | _ -> 0 in
      (* the no-op transaction probe, on an engine holding the preloaded state *)
      let txn_empty_s =
        if not traced then 0.0
        else begin
          let eng = E.Engine.create () in
          run_text eng preload;
          txn_probe ~traced eng
        end
      in
      {
        setup_s;
        run_s;
        ops_ms = List.map (fun (s, _) -> s *. 1000.0) replies;
        op_failures = List.length (List.filter (fun (_, r) -> not (ok r)) replies);
        rss_mb;
        rows = int_field "rows";
        classes = int_field "classes";
        txn_empty_s;
        check = (fun () -> ("stats reply", ok stats) :: setup_ok);
      })

let all =
  [
    { name = "math-eqsat"; domains = 1; run = math_eqsat };
    { name = "pointsto"; domains = 1; run = pointsto ~jobs:1 };
    { name = "pointsto-j2"; domains = 2; run = pointsto ~jobs:2 };
    { name = "herbie-sound"; domains = 1; run = herbie_sound };
    { name = "text-load"; domains = 1; run = text_load };
    (* the client and the daemon's domain take turns *)
    { name = "serve-incremental"; domains = 1; run = serve_incremental };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
