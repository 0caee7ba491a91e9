(* Crash recovery: simulate process death at every durability injection
   point across randomized programs, recover from checkpoint + journal, and
   require the recovered state (and the finished run) to dump byte-identical
   to an uninterrupted run. *)

module E = Egglog
module S = Egglog_server
module Json = E.Telemetry.Json

let all_points =
  [
    "journal.append.before";
    "journal.append.torn";
    "journal.append.synced";
    "checkpoint.before";
    "checkpoint.unrenamed";
    "checkpoint.renamed";
    "engine.iteration";
    "engine.top-action";
  ]

(* ---- scratch directories ---- *)

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "egglog_recovery_%d_%d" (Unix.getpid ()) !ctr)
    in
    Unix.mkdir d 0o755;
    d

(* A journal holding the checkpoint of an empty engine, open for appends. *)
let empty_journal path =
  E.Journal.create path
    ~checkpoint:(E.Serialize.checkpoint_payload (E.Engine.create ()) ~committed:0)

let contains s sub =
  let n = String.length sub in
  let rec has i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || has (i + 1))
  in
  has 0

let file_size path = (Unix.stat path).Unix.st_size

let cleanup_dir d =
  Array.iter (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ()) (Sys.readdir d);
  try Unix.rmdir d with Unix.Unix_error _ -> ()

(* The CLI's journaled path: every command is a one-command request. *)
let durable_run d eng c =
  ignore (E.Durable.run_request d [ c ] (fun () -> E.Engine.run_command eng c))

(* ---- random program generation ----

   Deterministic programs drawn from a grammar that exercises everything
   the journal must reproduce: relations and ground facts (Datalog),
   datatype terms and unions (e-graph), rules and rewrites added mid-run,
   saturation runs, push/pop, and passing checks. All commands always
   succeed, so the journal records the whole program in order, less the
   read-only checks. *)

let gen_program (rng : Random.State.t) : E.Ast.command list =
  let n_cmds = 8 + Random.State.int rng 8 in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "(relation edge (i64 i64))";
  add "(relation path (i64 i64))";
  add "(datatype M (Num i64) (Add M M))";
  (* edges known to hold at the current push depth (pop rolls back the
     scope's additions, so checks may only name surviving edges) *)
  let edges = ref [ [] ] in
  let note e = edges := (e :: List.hd !edges) :: List.tl !edges in
  let rules_added = ref false in
  for _ = 1 to n_cmds do
    match Random.State.int rng 10 with
    | 0 | 1 | 2 ->
      let a = Random.State.int rng 5 and b = Random.State.int rng 5 in
      note (a, b);
      add "(edge %d %d)" a b
    | 3 ->
      let a = Random.State.int rng 4 and b = Random.State.int rng 4 in
      add "(union (Num %d) (Num %d))" a b
    | 4 ->
      let a = Random.State.int rng 4 and b = Random.State.int rng 4 in
      add "(Add (Num %d) (Num %d))" a b
    | 5 when not !rules_added ->
      rules_added := true;
      add "(rule ((edge x y)) ((path x y)))";
      add "(rule ((path x y) (edge y z)) ((path x z)))";
      add "(rewrite (Add a b) (Add b a))"
    | 5 | 6 -> add "(run 2)"
    | 7 ->
      (match List.hd !edges with
       | (a, b) :: _ -> add "(check (edge %d %d))" a b
       | [] ->
         note (0, 0);
         add "(edge 0 0)")
    | 8 when List.length !edges <= 2 ->
      edges := List.hd !edges :: !edges;
      add "(push)"
    | 8 | 9 ->
      if List.length !edges > 1 then begin
        edges := List.tl !edges;
        add "(pop)"
      end
      else add "(run 1)"
    | _ -> assert false
  done;
  (* close any open scopes so checkpoints are not deferred forever *)
  for _ = 1 to List.length !edges - 1 do
    add "(pop)"
  done;
  add "(run 3)";
  E.Frontend.parse_program (Buffer.contents buf)

(* ---- reference runs ---- *)

(* State after the first [k] journaled (not read-only) commands,
   straight-line (no journal involved). *)
let reference_dump cmds k =
  let eng = E.Engine.create () in
  let count = ref 0 in
  List.iter
    (fun c ->
      if !count < k then begin
        ignore (E.Engine.run_command eng c);
        if not (E.Durable.read_only c) then incr count
      end)
    cmds;
  E.Serialize.dump_string eng

let remaining_after cmds k =
  let rec go n cmds =
    if n >= k then cmds
    else
      match cmds with
      | [] -> []
      | c :: rest -> go (n + if E.Durable.read_only c then 0 else 1) rest
  in
  go 0 cmds

(* ---- the crash matrix ---- *)

let checkpoint_every = Some 3

(* One full journaled run under hit counting: how often does each injection
   point fire for this program? Deterministic, so the same schedule holds
   for the crashing runs. *)
let count_hits cmds =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      E.Fault.disarm ();
      cleanup_dir dir)
    (fun () ->
      E.Fault.arm_counting ();
      let eng = E.Engine.create () in
      let d =
        E.Durable.attach eng ~journal_path:(Filename.concat dir "journal") ~checkpoint_every
      in
      List.iter (durable_run d eng) cmds;
      E.Durable.close d;
      E.Fault.hit_counts ())

let crash_recover_finish ~label cmds ~full_dump point occ =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      E.Fault.disarm ();
      cleanup_dir dir)
    (fun () ->
      let journal_path = Filename.concat dir "journal" in
      (* phase 1: run until the simulated crash *)
      let eng = E.Engine.create () in
      let d = E.Durable.attach eng ~journal_path ~checkpoint_every in
      E.Fault.arm_nth point occ;
      let crashed =
        try
          List.iter (durable_run d eng) cmds;
          false
        with E.Fault.Crash _ -> true
      in
      E.Fault.disarm ();
      E.Durable.close d;
      Alcotest.(check bool) (label ^ ": crash fired") true crashed;
      (* phase 2: recover into a fresh engine; its state must equal a
         straight-line run of exactly the committed prefix *)
      let eng2 = E.Engine.create () in
      let d2, report = E.Durable.recover eng2 ~journal_path ~checkpoint_every in
      Alcotest.(check string)
        (label ^ ": recovered dump = committed prefix")
        (reference_dump cmds report.E.Durable.rc_committed)
        (E.Serialize.dump_string eng2);
      (* phase 3: finish the program on the recovered engine; the final
         state must equal the uninterrupted run *)
      let rest = remaining_after cmds report.E.Durable.rc_committed in
      List.iter (durable_run d2 eng2) rest;
      Alcotest.(check string)
        (label ^ ": finished dump = uninterrupted run")
        full_dump
        (E.Serialize.dump_string eng2);
      E.Durable.close d2)

let test_crash_matrix seed () =
  let rng = Random.State.make [| seed |] in
  let cmds = gen_program rng in
  let full_dump = reference_dump cmds max_int in
  let hits = count_hits cmds in
  let tested = ref 0 in
  List.iter
    (fun point ->
      let h = match List.assoc_opt point hits with Some h -> h | None -> 0 in
      if h > 0 then begin
        let occs = List.sort_uniq Int.compare [ 1; ((h + 1) / 2 : int); h ] in
        List.iter
          (fun occ ->
            if occ >= 1 && occ <= h then begin
              incr tested;
              let label = Printf.sprintf "seed %d %s:%d" seed point occ in
              crash_recover_finish ~label cmds ~full_dump point occ
            end)
          occs
      end)
    all_points;
  if !tested = 0 then Alcotest.fail "no injection point fired at all"

(* ---- two sessions, independent fates ----

   The daemon keeps one journal per session in a shared data directory.
   A crash mid-way through one session's work must not pollute any other:
   each journal recovers on its own, and the survivor recovers to exactly
   its own full history even though the other file ends in a torn tail. *)

let test_two_sessions_independent seed () =
  let rng = Random.State.make [| (seed * 97) + 13 |] in
  let cmds_a = gen_program rng in
  let cmds_b = gen_program rng in
  let full_a = reference_dump cmds_a max_int in
  let full_b = reference_dump cmds_b max_int in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      E.Fault.disarm ();
      cleanup_dir dir)
    (fun () ->
      let ja = Filename.concat dir "a.journal" in
      let jb = Filename.concat dir "b.journal" in
      (* interleave: half of A, then B until it crashes, then the rest of A
         — A's session stays healthy across B's death *)
      let half = List.length cmds_a / 2 in
      let a1 = List.filteri (fun i _ -> i < half) cmds_a in
      let a2 = List.filteri (fun i _ -> i >= half) cmds_a in
      let ea = E.Engine.create () in
      let da = E.Durable.attach ea ~journal_path:ja ~checkpoint_every in
      List.iter (durable_run da ea) a1;
      let eb = E.Engine.create () in
      let db = E.Durable.attach eb ~journal_path:jb ~checkpoint_every in
      E.Fault.arm_nth "journal.append.torn" 2;
      let crashed =
        try
          List.iter (durable_run db eb) cmds_b;
          false
        with E.Fault.Crash _ -> true
      in
      E.Fault.disarm ();
      E.Durable.close db;
      Alcotest.(check bool) "B crashed mid-journal" true crashed;
      List.iter (durable_run da ea) a2;
      E.Durable.close da;
      (* recover each independently *)
      let ea2 = E.Engine.create () in
      let da2, report_a = E.Durable.recover ea2 ~journal_path:ja ~checkpoint_every in
      Alcotest.(check bool) "A's journal is whole" false report_a.E.Durable.rc_torn;
      Alcotest.(check string) "A recovers its full history, untouched by B's crash" full_a
        (E.Serialize.dump_string ea2);
      E.Durable.close da2;
      let eb2 = E.Engine.create () in
      let db2, report_b = E.Durable.recover eb2 ~journal_path:jb ~checkpoint_every in
      Alcotest.(check string) "B recovers exactly its committed prefix"
        (reference_dump cmds_b report_b.E.Durable.rc_committed)
        (E.Serialize.dump_string eb2);
      (* and B can finish its program from where it left off *)
      let rest = remaining_after cmds_b report_b.E.Durable.rc_committed in
      List.iter (durable_run db2 eb2) rest;
      Alcotest.(check string) "B finishes to the uninterrupted result" full_b
        (E.Serialize.dump_string eb2);
      E.Durable.close db2)

(* ---- the daemon crash matrix ----

   A durable daemon session commits whole requests: one journal record per
   request, checkpoints only between records. Random multi-command requests
   that bump [:merge (+ old new)] counters (so replaying any command twice
   shows in the dump) run against an in-process daemon, which crashes at a
   server or journal fault point. Recovering its journal must give the
   dump after the last acknowledged request, or after the in-flight one
   when the crash came after its record was fsync'd. *)

let daemon_schema =
  "(datatype E (N i64)) (function cnt () i64 :merge (+ old new)) (function w (i64) i64 :merge \
   (+ old new)) (relation edge (i64 i64)) (relation path (i64 i64)) (rule ((edge x y)) ((path x \
   y))) (rule ((path x y) (edge y z)) ((path x z)))"

(* Request programs. A check names an edge added before it, so every
   request commits; some requests are only checks and journal nothing. *)
let gen_requests rng =
  let edges = ref [] in
  let command () =
    match Random.State.int rng 7 with
    | 0 | 1 -> Printf.sprintf "(set (cnt) %d)" (1 + Random.State.int rng 100)
    | 2 -> Printf.sprintf "(set (w %d) %d)" (Random.State.int rng 3) (1 + Random.State.int rng 100)
    | 3 ->
      let a = Random.State.int rng 4 and b = Random.State.int rng 4 in
      edges := (a, b) :: !edges;
      Printf.sprintf "(edge %d %d)" a b
    | 4 -> "(run 2)"
    | _ -> (
      match !edges with
      | (a, b) :: _ -> Printf.sprintf "(check (edge %d %d))" a b
      | [] -> "(print-size edge)")
  in
  let request () = String.concat " " (List.init (1 + Random.State.int rng 4) (fun _ -> command ())) in
  daemon_schema :: List.init (8 + Random.State.int rng 4) (fun _ -> request ())

(* [dumps.(k)]: the state after the first [k] requests, each run as one
   transaction on a plain engine. *)
let request_dumps requests =
  let eng = E.Engine.create () in
  let dumps =
    List.map
      (fun src ->
        let cmds = E.Frontend.parse_program src in
        ignore (E.Engine.with_transaction eng (fun () -> E.Engine.run_program eng cmds));
        E.Serialize.dump_string eng)
      requests
  in
  Array.of_list (E.Serialize.dump_string (E.Engine.create ()) :: dumps)

(* Serve [requests] one at a time on a durable session in [dir], with
   [arm] called once the session is open. Returns how many requests were
   acknowledged, whether the daemon crashed, and the fault points' hit
   counts. *)
let daemon_session ~dir ~checkpoint_every ~arm requests =
  let sock = Filename.concat dir "s.sock" in
  let srv =
    S.Serve.create
      {
        S.Serve.default_config with
        socket_path = Some sock;
        data_dir = Some dir;
        checkpoint_every = Some checkpoint_every;
      }
  in
  let finished = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () -> try S.Serve.run srv with E.Fault.Crash _ -> ()))
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let id = ref 0 in
  (* whether the daemon answered ok, or [None] once it is gone *)
  let send fields =
    incr id;
    output_string oc (Json.to_string (Json.Obj (("id", Json.Int !id) :: fields)));
    output_char oc '\n';
    flush oc;
    let rec await () =
      match Unix.select [ fd ] [] [] 0.01 with
      | _ :: _, _, _ -> Some (Json.member "ok" (Json.parse (input_line ic)) = Some (Json.Bool true))
      | [], _, _ -> if Atomic.get finished then None else await ()
    in
    await ()
  in
  let session = ("session", Json.Str "s") in
  if send [ ("op", Json.Str "open-session"); session; ("durable", Json.Bool true) ] <> Some true
  then Alcotest.fail "open-session failed";
  arm ();
  let rec go acked = function
    | [] -> (acked, false)
    | program :: rest -> (
      match send [ ("op", Json.Str "run"); session; ("program", Json.Str program) ] with
      | Some true -> go (acked + 1) rest
      | Some false -> Alcotest.failf "request %d failed" (acked + 1)
      | None -> (acked, true))
  in
  let acked, crashed = go 0 requests in
  if not crashed then S.Serve.request_drain srv;
  Domain.join dom;
  let hits = E.Fault.hit_counts () in
  E.Fault.disarm ();
  Unix.close fd;
  (acked, crashed, hits)

let recovered_dump dir =
  let eng = E.Engine.create () in
  let d, _ =
    E.Durable.recover eng ~journal_path:(Filename.concat dir "s.journal") ~checkpoint_every:None
  in
  E.Durable.close d;
  E.Serialize.dump_string eng

let daemon_points = [ "server.request.executed"; "server.request.journaled"; "journal.append.torn" ]

let test_daemon_crash_matrix seed () =
  let requests = gen_requests (Random.State.make [| seed |]) in
  let dumps = request_dumps requests in
  let n = List.length requests in
  let cases = ref 0 in
  List.iter
    (fun checkpoint_every ->
      let in_dir f =
        let dir = fresh_dir () in
        Fun.protect ~finally:(fun () -> cleanup_dir dir) (fun () -> f dir)
      in
      let hits =
        in_dir (fun dir ->
            let acked, crashed, hits =
              daemon_session ~dir ~checkpoint_every ~arm:E.Fault.arm_counting requests
            in
            Alcotest.(check (pair int bool)) "every request acknowledged" (n, false)
              (acked, crashed);
            Alcotest.(check string)
              (Printf.sprintf "seed %d every %d: clean restart" seed checkpoint_every)
              dumps.(n) (recovered_dump dir);
            hits)
      in
      List.iter
        (fun point ->
          let h = Option.value (List.assoc_opt point hits) ~default:0 in
          List.iter
            (fun occ ->
              in_dir (fun dir ->
                  let label = Printf.sprintf "seed %d every %d %s:%d" seed checkpoint_every point occ in
                  let acked, crashed, _ =
                    daemon_session ~dir ~checkpoint_every
                      ~arm:(fun () -> E.Fault.arm_nth point occ)
                      requests
                  in
                  incr cases;
                  Alcotest.(check bool) (label ^ ": crashed") true crashed;
                  (* only a crash after the fsync keeps the in-flight request *)
                  let expected =
                    if point = "server.request.journaled" then acked + 1 else acked
                  in
                  Alcotest.(check string) label dumps.(expected) (recovered_dump dir)))
            (List.sort_uniq Int.compare
               (List.filter (fun o -> o >= 1) [ 1; (h + 2) / 3; ((2 * h) + 2) / 3; h ])))
        daemon_points)
    [ 1; 2; 3 ];
  (* each point fires at least once per cadence *)
  Alcotest.(check bool) "crash cases ran" true (!cases >= 9)

(* A journal written one command per record, as the CLI always has, reads
   as a list of one-command requests: it recovers to the same dump as the
   journal of the same commands sent as a single request. *)
let test_one_command_records_recover () =
  let cmds = gen_program (Random.State.make [| 7 |]) in
  let full = reference_dump cmds max_int in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> cleanup_dir dir)
    (fun () ->
      let recover path =
        let eng = E.Engine.create () in
        let d, report = E.Durable.recover eng ~journal_path:path ~checkpoint_every:None in
        E.Durable.close d;
        (E.Serialize.dump_string eng, report.E.Durable.rc_replayed)
      in
      let old_path = Filename.concat dir "old.journal" in
      let j = empty_journal old_path in
      List.iter (fun c -> E.Journal.append j (E.Frontend.command_to_string c)) cmds;
      E.Journal.close j;
      Alcotest.(check (pair string int))
        "one record per command" (full, List.length cmds) (recover old_path);
      let new_path = Filename.concat dir "new.journal" in
      let eng = E.Engine.create () in
      let d = E.Durable.attach eng ~journal_path:new_path ~checkpoint_every:None in
      E.Durable.run_request d cmds (fun () ->
          E.Engine.with_transaction eng (fun () -> ignore (E.Engine.run_program eng cmds)));
      E.Durable.close d;
      Alcotest.(check (pair string int)) "one record per request" (full, 1) (recover new_path))

(* Every command that replay skips must leave the state as it found it:
   the dump and the engine scalars, on random states, whether the command
   passes or fails. String literals in a check intern symbols, which must
   not show either. *)
let test_read_only_changes_nothing seed () =
  let rng = Random.State.make [| seed * 31 |] in
  let cmds = gen_program rng in
  let cut = Random.State.int rng (List.length cmds + 1) in
  let eng = E.Engine.create () in
  ignore (E.Engine.run_program eng (E.Frontend.parse_program "(relation tag (String))"));
  ignore (E.Engine.run_program eng (List.filteri (fun i _ -> i < cut) cmds));
  if Random.State.bool rng then
    ignore (E.Engine.run_program eng (E.Frontend.parse_program "(tag \"seen\")"));
  let state () =
    ( E.Serialize.dump_string eng,
      [
        E.Engine.total_rows eng;
        E.Engine.n_classes eng;
        E.Engine.scope_depth eng;
        E.Engine.modeled_bytes eng;
        List.length (E.Engine.decl_commands eng);
      ] )
  in
  let i () = Random.State.int rng 5 in
  let probes =
    [
      Printf.sprintf "(check (edge %d %d))" (i ()) (i ());
      Printf.sprintf "(fail (check (edge %d %d)))" (i ()) (i ());
      Printf.sprintf "(check (= (Num %d) (Num %d)))" (i ()) (i ());
      Printf.sprintf "(check (path %d %d) (edge %d %d))" (i ()) (i ()) (i ()) (i ());
      "(check (tag \"seen\"))";
      Printf.sprintf "(check (tag \"fresh-%d-%d\"))" seed (i ());
      Printf.sprintf "(fail (check (tag \"other-%d\")))" seed;
      "(print-function edge 3)";
      "(print-size path)";
      "(print-stats)";
    ]
  in
  List.iter
    (fun src ->
      let cmd =
        match E.Frontend.parse_program src with
        | [ c ] -> c
        | _ -> Alcotest.failf "%s: expected one command" src
      in
      Alcotest.(check bool) (src ^ " is read-only") true (E.Durable.read_only cmd);
      let before = state () in
      (try ignore (E.Engine.run_command eng cmd) with E.Engine.Egglog_error _ -> ());
      Alcotest.(check (pair string (list int))) (src ^ " leaves the state alone") before (state ()))
    probes

(* ---- targeted scenarios ---- *)

let test_torn_tail_truncated () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> cleanup_dir dir)
    (fun () ->
      let path = Filename.concat dir "journal" in
      let j = empty_journal path in
      E.Journal.append j "(edge 1 2)";
      E.Journal.append j "(edge 2 3)";
      E.Journal.close j;
      (* simulate a crash mid-append: half a record at the end *)
      let oc = Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path in
      Out_channel.output_string oc "r 999 00000000\n(edge 3";
      Out_channel.close oc;
      let contents = E.Journal.read path in
      Alcotest.(check bool) "torn detected" true contents.E.Journal.torn;
      Alcotest.(check (list string))
        "valid prefix kept"
        [ "(edge 1 2)"; "(edge 2 3)" ]
        contents.E.Journal.entries;
      (* reopening truncates the torn tail and appending works again *)
      let j2, reopened = E.Journal.open_append path in
      Alcotest.(check bool) "reopen reports torn" true reopened.E.Journal.torn;
      E.Journal.append j2 "(edge 3 4)";
      E.Journal.close j2;
      let final = E.Journal.read path in
      Alcotest.(check bool) "clean after truncation" false final.E.Journal.torn;
      Alcotest.(check (list string))
        "appended after truncation"
        [ "(edge 1 2)"; "(edge 2 3)"; "(edge 3 4)" ]
        final.E.Journal.entries)

(* Flip one payload byte of the [k]-th request record (0-based) of the
   journal at [path]. *)
let corrupt_record path k =
  let data = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let rec nth_record pos k =
    let r = Bytes.index_from data pos 'r' in
    if r > 0 && Bytes.get data (r - 1) = '\n' && Bytes.get data (r + 1) = ' ' then
      if k = 0 then r else nth_record (r + 1) (k - 1)
    else nth_record (r + 1) k
  in
  let r = nth_record (Bytes.index data '\n') k in
  let payload = Bytes.index_from data r '\n' + 1 in
  Bytes.set data payload (if Bytes.get data payload = '(' then '[' else '(');
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc data)

(* A bad record with valid records after it was not torn by a crash: it is
   corruption. Recovery refuses with the record's offset and leaves the
   file as it found it; only a bad record at the very end is a torn tail. *)
let test_mid_journal_corruption () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> cleanup_dir dir)
    (fun () ->
      let path = Filename.concat dir "journal" in
      let write () =
        if Sys.file_exists path then Sys.remove path;
        let j = empty_journal path in
        List.iter (E.Journal.append j) [ "(edge 1 2)"; "(edge 2 3)"; "(edge 3 4)" ];
        E.Journal.close j
      in
      write ();
      corrupt_record path 1;
      let size = file_size path in
      (match E.Durable.recover (E.Engine.create ()) ~journal_path:path ~checkpoint_every:None with
       | _ -> Alcotest.fail "recovery past a corrupt mid-journal record must fail"
       | exception E.Journal.Journal_error msg ->
         Alcotest.(check bool) ("error names the offset: " ^ msg) true (contains msg "at byte"));
      Alcotest.(check int) "nothing truncated" size (file_size path);
      write ();
      corrupt_record path 2;
      let j, contents = E.Journal.open_append path in
      E.Journal.close j;
      Alcotest.(check (pair bool (list string)))
        "a bad last record is a torn tail"
        (true, [ "(edge 1 2)"; "(edge 2 3)" ])
        (contents.E.Journal.torn, contents.E.Journal.entries))

let test_attach_refuses_existing () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> cleanup_dir dir)
    (fun () ->
      let path = Filename.concat dir "journal" in
      let d =
        E.Durable.attach (E.Engine.create ()) ~journal_path:path ~checkpoint_every:None
      in
      E.Durable.close d;
      match E.Durable.attach (E.Engine.create ()) ~journal_path:path ~checkpoint_every:None with
      | _ -> Alcotest.fail "attach over an existing journal must be refused"
      | exception E.Journal.Journal_error _ -> ())

(* The checkpoint would hold the scope's additions without the scope. *)
let test_attach_refuses_inside_push () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> cleanup_dir dir)
    (fun () ->
      let path = Filename.concat dir "journal" in
      let eng = E.Engine.create () in
      ignore (E.run_string eng "(relation e (i64)) (e 1) (push) (e 2)");
      (match E.Durable.attach eng ~journal_path:path ~checkpoint_every:None with
       | _ -> Alcotest.fail "attach inside a push scope must be refused"
       | exception E.Journal.Journal_error _ -> ());
      Alcotest.(check (list string)) "no file written" [] (Array.to_list (Sys.readdir dir));
      ignore (E.run_string eng "(pop)");
      E.Durable.close (E.Durable.attach eng ~journal_path:path ~checkpoint_every:None))

let test_corrupt_checkpoint_is_clear_error () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> cleanup_dir dir)
    (fun () ->
      let path = Filename.concat dir "journal" in
      let eng = E.Engine.create () in
      let d = E.Durable.attach eng ~journal_path:path ~checkpoint_every:(Some 2) in
      let cmds =
        E.Frontend.parse_program
          "(relation edge (i64 i64)) (edge 1 2) (edge 2 3) (edge 3 4)"
      in
      List.iter (durable_run d eng) cmds;
      E.Durable.close d;
      (* flip a byte inside the checkpoint record's payload: the record
         after the header line and the frame line *)
      let bytes = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      let frame = Bytes.index bytes '\n' + 1 in
      let payload = Bytes.index_from bytes frame '\n' + 1 in
      Bytes.set bytes (payload + 5) '\255';
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
      let size = file_size path in
      (match E.Durable.recover (E.Engine.create ()) ~journal_path:path ~checkpoint_every:None with
       | _ -> Alcotest.fail "recovery from a corrupt checkpoint must fail"
       | exception E.Journal.Journal_error msg ->
         Alcotest.(check bool) ("error names the checkpoint: " ^ msg) true
           (contains msg "checkpoint"));
      Alcotest.(check int) "nothing truncated" size (file_size path))

let test_checkpoint_deferred_inside_push () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> cleanup_dir dir)
    (fun () ->
      let path = Filename.concat dir "journal" in
      let eng = E.Engine.create () in
      let d = E.Durable.attach eng ~journal_path:path ~checkpoint_every:(Some 3) in
      let run src =
        List.iter (durable_run d eng) (E.Frontend.parse_program src)
      in
      (* a checkpoint leaves the journal it replaced behind *)
      let checkpointed () = Sys.file_exists (path ^ ".prev") in
      (* 6 commands cross the every-3 threshold, but inside the scope *)
      run "(relation edge (i64 i64)) (push) (edge 1 2) (edge 2 3) (edge 3 4) (edge 4 5)";
      Alcotest.(check bool) "no checkpoint inside push" false (checkpointed ());
      run "(pop)";
      Alcotest.(check bool) "checkpoint resumes after pop" true (checkpointed ());
      E.Durable.close d)

(* The journal a checkpoint replaces is complete: after two checkpoints,
   [journal.prev] holds the first one and the records after it, and
   recovers to the state of the second. *)
let test_prev_journal_recovers () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> cleanup_dir dir)
    (fun () ->
      let path = Filename.concat dir "journal" in
      let eng = E.Engine.create () in
      let d = E.Durable.attach eng ~journal_path:path ~checkpoint_every:(Some 2) in
      let run src = List.iter (durable_run d eng) (E.Frontend.parse_program src) in
      run "(relation edge (i64 i64)) (edge 1 2)";
      run "(edge 2 3) (edge 3 4)";
      let at_second = E.Serialize.dump_string eng in
      run "(edge 4 5)";
      E.Durable.close d;
      let eng2 = E.Engine.create () in
      let d2, report =
        E.Durable.recover eng2 ~journal_path:(path ^ ".prev") ~checkpoint_every:None
      in
      E.Durable.close d2;
      Alcotest.(check (pair int int)) "the first checkpoint, then two records" (2, 2)
        (report.E.Durable.rc_from_checkpoint, report.E.Durable.rc_replayed);
      Alcotest.(check string) "the state at the second checkpoint" at_second
        (E.Serialize.dump_string eng2))

let test_recover_fresh_journal () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> cleanup_dir dir)
    (fun () ->
      let path = Filename.concat dir "journal" in
      E.Durable.close
        (E.Durable.attach (E.Engine.create ()) ~journal_path:path ~checkpoint_every:None);
      let eng = E.Engine.create () in
      let _, report = E.Durable.recover eng ~journal_path:path ~checkpoint_every:None in
      Alcotest.(check int) "nothing committed" 0 report.E.Durable.rc_committed;
      Alcotest.(check int) "nothing replayed" 0 report.E.Durable.rc_replayed)

let test_journal_version_rejected () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> cleanup_dir dir)
    (fun () ->
      let path = Filename.concat dir "journal" in
      List.iter
        (fun (header, expect) ->
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc header);
          match E.Journal.read path with
          | _ -> Alcotest.failf "%S must be rejected" header
          | exception E.Journal.Journal_error msg ->
            Alcotest.(check bool) ("mentions the version: " ^ msg) true (contains msg expect))
        [
          ("egglog-journal 99 0\n", "version 99");
          (* a journal of the format that kept checkpoints in their own files *)
          ( "egglog-journal 1 3\nr 10 00000000\n(edge 1 2)\n",
            "unsupported journal format version 1" );
        ])

let test_command_print_roundtrip () =
  (* the journal records commands as printed text; for every construct the
     parser can produce, print -> parse -> print must be a fixpoint *)
  let corpus =
    {|
    (sort S)
    (ruleset rs)
    (datatype M (Num i64) (Var String) (Add M M))
    (function f (i64 String) Rational :merge new :cost 3)
    (function g (M) M :default (Num 0))
    (relation edge (i64 i64))
    (rule ((edge x y) (= z (Add (Num x) (Num y)))) ((edge y x) (let w (Num 9)) (union z w))
          :name "my rule" :ruleset rs)
    (rewrite (Add a b) (Add b a) :when ((edge 1 2)) :ruleset rs)
    (define e (Add (Num 1) (Var "x")))
    (set (f 1 "k") 3/4)
    (delete (edge 1 2))
    (union (Num 1) (Num 2))
    (run 5)
    (run 2 :until ((edge 1 2) (edge 2 3)))
    (run 2 :until (edge 1 2))
    (run 3 :node-limit 100 :time-limit 2)
    (run-schedule (saturate (run rs 1)) (repeat 2 (run 1)) (seq (run 1) (run 2)))
    (check (edge 1 2) (= (Num 1) (Num 2)))
    (fail (check (edge 9 9)))
    (extract (Num 1) :variants 3)
    (simplify 10 (Add (Num 1) (Num 2)))
    (include "other.egg")
    (push)
    (pop)
    (print-function edge 10)
    (print-size edge)
    (print-stats)
    |}
  in
  List.iter
    (fun cmd ->
      let printed = E.Frontend.command_to_string cmd in
      match E.Frontend.command_of_sexp (Sexpr.parse_one printed) with
      | [ cmd' ] ->
        Alcotest.(check string)
          ("fixpoint: " ^ printed) printed
          (E.Frontend.command_to_string cmd')
      | _ -> Alcotest.failf "%s did not reparse to one command" printed
      | exception e ->
        Alcotest.failf "%s failed to reparse: %s" printed (Printexc.to_string e))
    (E.Frontend.parse_program corpus)

let () =
  Alcotest.run "recovery"
    [
      ( "crash-matrix",
        [
          Alcotest.test_case "seed 1" `Quick (test_crash_matrix 1);
          Alcotest.test_case "seed 2" `Quick (test_crash_matrix 2);
          Alcotest.test_case "seed 3" `Quick (test_crash_matrix 3);
        ] );
      ( "two-sessions",
        [
          Alcotest.test_case "independent crash/recovery, seed 1" `Quick
            (test_two_sessions_independent 1);
          Alcotest.test_case "independent crash/recovery, seed 2" `Quick
            (test_two_sessions_independent 2);
        ] );
      ( "daemon-crash-matrix",
        [
          Alcotest.test_case "seed 1" `Quick (test_daemon_crash_matrix 1);
          Alcotest.test_case "seed 2" `Quick (test_daemon_crash_matrix 2);
          Alcotest.test_case "seed 3" `Quick (test_daemon_crash_matrix 3);
        ] );
      ( "read-only",
        List.init 12 (fun i ->
            Alcotest.test_case
              (Printf.sprintf "leaves the state alone, seed %d" (i + 1))
              `Quick
              (test_read_only_changes_nothing (i + 1))) );
      ( "scenarios",
        [
          Alcotest.test_case "torn tail truncated" `Quick test_torn_tail_truncated;
          Alcotest.test_case "attach refuses existing journal" `Quick test_attach_refuses_existing;
          Alcotest.test_case "attach refuses inside push" `Quick test_attach_refuses_inside_push;
          Alcotest.test_case "mid-journal corruption is an error" `Quick
            test_mid_journal_corruption;
          Alcotest.test_case "the replaced journal recovers" `Quick test_prev_journal_recovers;
          Alcotest.test_case "corrupt checkpoint is a clear error" `Quick
            test_corrupt_checkpoint_is_clear_error;
          Alcotest.test_case "checkpoint deferred inside push" `Quick
            test_checkpoint_deferred_inside_push;
          Alcotest.test_case "recover a fresh journal" `Quick test_recover_fresh_journal;
          Alcotest.test_case "future journal version rejected" `Quick
            test_journal_version_rejected;
          Alcotest.test_case "command print/parse fixpoint" `Quick
            test_command_print_roundtrip;
          Alcotest.test_case "one-command records recover" `Quick
            test_one_command_records_recover;
        ] );
    ]
