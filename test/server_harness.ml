(* The daemon fault harness: drives a REAL `egglog serve` subprocess the
   way CI does — concurrent sessions with mixed well-formed, malformed,
   over-budget and abusive traffic, a SIGTERM mid-load, a restart, and a
   --fault crash — and checks the whole robustness contract from outside:

   - every frame gets a reply (never a hang, never a silently dead conn)
   - survivor sessions dump byte-for-byte equal to serial single-session
     reference runs done in-process with the library
   - overload sheds carry retry_after_ms and replies stay prompt
   - SIGTERM mid-load exits 0 and removes the socket file
   - a restart recovers every durable session byte-identically
   - --fault server.request.executed:N exits 70 and recovery drops
     exactly the un-journaled request
   - under --session-memory-quota a session allocating without bound is
     refused with typed budget/quota replies while concurrent sessions
     stay (and recover) byte-identical
   - the server trace (--trace) has balanced span begin/end events

   Usage: server_harness MAIN_EXE [SCRATCH_DIR] [JOBS]
   JOBS > 1 sends every well-formed run request with that per-request
   fan-out; all byte-identity checks still compare against serial
   references. Exit 0 on success, 1 on any failure (diagnoses on stderr). *)

module E = Egglog
module Json = E.Telemetry.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "FAIL: %s\n%!" msg)
    fmt

let pass fmt = Printf.ksprintf (fun msg -> Printf.printf "ok: %s\n%!" msg) fmt

(* ---- client plumbing ---- *)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect_retry sock =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () > deadline then failwith "server socket never appeared";
      Unix.sleepf 0.05;
      go ()
  in
  go ()

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let obj fields = Json.to_string (Json.Obj fields)

let rpc c fields =
  send c (obj fields);
  Json.parse (input_line c.ic)

let is_ok r = Json.member "ok" r = Some (Json.Bool true)

let err_kind r =
  match Json.member "error" r with
  | Some e -> (match Json.member "kind" e with Some (Json.Str s) -> s | _ -> "?")
  | None -> "?"

let run_req ?(id = 1) ~session program =
  [
    ("id", Json.Int id);
    ("op", Json.Str "run");
    ("session", Json.Str session);
    ("program", Json.Str program);
  ]

let open_durable c session =
  rpc c
    [
      ("id", Json.Int 0);
      ("op", Json.Str "open-session");
      ("session", Json.Str session);
      ("durable", Json.Bool true);
    ]

let dump_of c session =
  let r = rpc c [ ("id", Json.Int 99); ("op", Json.Str "dump"); ("session", Json.Str session) ] in
  match Json.member "dump" r with Some (Json.Str s) -> Some s | _ -> None

(* ---- server subprocess ---- *)

type server = { pid : int; sock : string }

let start_server ?(extra = []) main_exe dir =
  let sock = Filename.concat dir "s.sock" in
  let args =
    [ main_exe; "serve"; "--socket"; sock; "--data-dir"; Filename.concat dir "data";
      "--queue-limit"; "8"; "--trace"; Filename.concat dir "server-trace.jsonl" ]
    @ extra
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process main_exe (Array.of_list args) devnull log log in
  Unix.close devnull;
  Unix.close log;
  { pid; sock }

let wait_exit sv =
  match Unix.waitpid [] sv.pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 1000 + s

(* ---- reference runs (serial, in-process) ---- *)

let reference_dump programs =
  let eng = E.Engine.create () in
  List.iter (fun p -> ignore (E.Engine.run_program eng (E.Frontend.parse_program p))) programs;
  E.Serialize.dump_string eng

let good_prog i =
  Printf.sprintf
    "(relation edge (i64 i64)) (relation path (i64 i64))\n\
     (rule ((edge x y)) ((path x y)))\n\
     (rule ((path x y) (edge y z)) ((path x z)))\n\
     (edge %d %d) (edge %d %d) (edge %d %d) (run 6)"
    i (i + 1) (i + 1) (i + 2) (i + 2) (i + 3)

let bomb =
  "(datatype T (L) (N T T)) (rule ((= x (N a b))) ((N x x))) (N (L) (L)) (run 100000)"

let abusive_lines session =
  [
    "utter garbage";
    "{\"id\": 1}";
    obj [ ("id", Json.Int 2); ("op", Json.Str "frobnicate") ];
    obj (run_req ~id:3 ~session "((((((((");
    obj (run_req ~id:4 ~session "(no-such-thing 1)");
    obj (("node_limit", Json.Int 200) :: run_req ~id:5 ~session bomb);
    obj [ ("id", Json.Int 6); ("op", Json.Str "dump"); ("session", Json.Str "../../oops") ];
    obj [ ("id", Json.Int 7); ("op", Json.Str "run"); ("session", Json.Str session) ];
  ]

(* ---- phases ---- *)

(* N concurrent sessions: good ones build state, the evil one attacks.
   Every domain checks its own replies; good dumps are compared to serial
   references afterwards. *)
let phase_concurrent sv =
  let n_good = 3 in
  let good i =
    let c = connect_retry sv.sock in
    let session = Printf.sprintf "good-%d" i in
    let r0 = open_durable c session in
    let r1 = rpc c (run_req ~id:1 ~session (good_prog i)) in
    let ok = is_ok r0 && is_ok r1 in
    let dump = dump_of c session in
    close_client c;
    (session, ok, dump)
  in
  let evil () =
    let c = connect_retry sv.sock in
    let replies =
      List.map
        (fun line ->
          send c line;
          match input_line c.ic with
          | reply -> Some (Json.parse reply)
          | exception End_of_file -> None)
        (abusive_lines "evil")
    in
    close_client c;
    replies
  in
  let good_doms = List.init n_good (fun i -> Domain.spawn (fun () -> good i)) in
  let evil_dom = Domain.spawn evil in
  let evil_replies = Domain.join evil_dom in
  List.iter
    (fun r ->
      match r with
      | None -> fail "abusive frame killed the connection (no reply)"
      | Some r when is_ok r -> fail "abusive frame was accepted"
      | Some _ -> ())
    evil_replies;
  pass "evil session: %d abusive frames, %d typed error replies"
    (List.length evil_replies)
    (List.length (List.filter (fun r -> r <> None) evil_replies));
  List.iteri
    (fun i dom ->
      let session, ok, dump = Domain.join dom in
      if not ok then fail "%s: request failed" session
      else
        match dump with
        | Some d when d = reference_dump [ good_prog i ] ->
          pass "%s: dump byte-identical to the serial reference" session
        | Some _ -> fail "%s: dump differs from the serial reference" session
        | None -> fail "%s: no dump" session)
    good_doms

(* one connection, a pipelined burst far over the queue bound: everything
   answered, sheds carry the retry hint, and the whole exchange is fast
   (bounded queue => bounded latency; the tail must not stretch) *)
let phase_overload sv =
  let c = connect_retry sv.sock in
  let n = 100 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    (* idempotent work: re-running it can never fail, so every non-ok
       reply in the burst must be an admission shed *)
    output_string c.oc
      (obj [ ("id", Json.Int i); ("op", Json.Str "stats"); ("session", Json.Str "burst") ]);
    output_char c.oc '\n'
  done;
  flush c.oc;
  let replies = List.init n (fun _ -> Json.parse (input_line c.ic)) in
  let elapsed = Unix.gettimeofday () -. t0 in
  close_client c;
  let oks = List.length (List.filter is_ok replies) in
  let sheds = List.filter (fun r -> not (is_ok r)) replies in
  let bad_shed =
    List.exists
      (fun r ->
        err_kind r <> "overload"
        || (match Json.member "error" r with
           | Some e -> Json.member "retry_after_ms" e = None
           | None -> true))
      sheds
  in
  if List.length replies <> n then fail "overload: %d/%d replies" (List.length replies) n
  else if oks < 1 then fail "overload: nothing executed"
  else if List.length sheds < 1 then fail "overload: nothing shed (queue bound not enforced)"
  else if bad_shed then fail "overload: shed without overload kind + retry_after_ms"
  else if elapsed > 30.0 then fail "overload: burst took %.1fs (unbounded tail?)" elapsed
  else
    pass "overload: %d executed, %d shed with retry-after, %.2fs for the burst" oks
      (List.length sheds) elapsed

(* SIGTERM while a client is mid-stream: the daemon finishes or sheds,
   exits 0, removes its socket; the client sees clean EOF or typed
   shutting-down replies, never a hang *)
let phase_sigterm_drain sv =
  let c = connect_retry sv.sock in
  let streamer =
    Domain.spawn (fun () ->
        let sent = ref 0 in
        (try
           for i = 1 to 500 do
             send c (obj (run_req ~id:i ~session:"drainload" "(relation w (i64)) (w 1)"));
             incr sent
           done
         with Sys_error _ | Unix.Unix_error _ -> ());
        !sent)
  in
  Unix.sleepf 0.2;
  Unix.kill sv.pid Sys.sigterm;
  let code = wait_exit sv in
  let _sent = Domain.join streamer in
  (* drain every reply still in flight; EOF must come promptly *)
  let replies = ref 0 in
  (try
     while true do
       ignore (input_line c.ic);
       incr replies
     done
   with End_of_file | Sys_error _ -> ());
  close_client c;
  if code <> 0 then fail "SIGTERM drain exited %d, want 0" code
  else pass "SIGTERM mid-load: exit 0, %d replies delivered before EOF" !replies;
  if Sys.file_exists sv.sock then fail "orphaned socket file after drain"
  else pass "socket file removed on drain"

(* restart: every durable session must come back byte-identical *)
let phase_restart main_exe dir =
  let sv = start_server main_exe dir in
  let c = connect_retry sv.sock in
  for i = 0 to 2 do
    let session = Printf.sprintf "good-%d" i in
    match dump_of c session with
    | Some d when d = reference_dump [ good_prog i ] ->
      pass "%s: recovered byte-identical after restart" session
    | Some _ -> fail "%s: recovered dump differs" session
    | None -> fail "%s: not recovered" session
  done;
  close_client c;
  Unix.kill sv.pid Sys.sigterm;
  let code = wait_exit sv in
  if code <> 0 then fail "restart server exited %d on SIGTERM" code

(* --fault: a simulated crash between commit and journal append must exit
   70, leave a parseable flight-recorder artifact whose spans balance and
   whose tail names the crashing request, and recovery must drop exactly
   the un-journaled request *)
let phase_crash_fault main_exe dir =
  let data = Filename.concat dir "data" in
  let flightrecs () =
    Array.to_list (try Sys.readdir data with Sys_error _ -> [||])
    |> List.filter (String.starts_with ~prefix:"flightrec-")
  in
  let before = flightrecs () in
  let sv = start_server ~extra:[ "--fault"; "server.request.executed:2" ] main_exe dir in
  let c = connect_retry sv.sock in
  ignore (open_durable c "crashy");
  let r1 = rpc c (run_req ~id:1 ~session:"crashy" (good_prog 50)) in
  if not (is_ok r1) then fail "crashy seed request failed: %s" (err_kind r1);
  (* trace ids are sequential: the crashing request gets the successor of
     the last acknowledged one *)
  let crash_tid =
    match Json.member "trace_id" r1 with
    | Some (Json.Str t) ->
      Some (Printf.sprintf "t-%06d" (1 + int_of_string (String.sub t 2 (String.length t - 2))))
    | _ ->
      fail "crashy reply carries no trace_id";
      None
  in
  (* hit 2 of server.request.executed: this one commits, never journals *)
  send c (obj (run_req ~id:2 ~session:"crashy" "(edge 90 91) (run 3)"));
  let got_reply = match input_line c.ic with _ -> true | exception End_of_file -> false in
  close_client c;
  let code = wait_exit sv in
  if got_reply then fail "crash fault: request was acknowledged across the crash";
  if code <> 70 then fail "crash fault: exit %d, want 70" code
  else pass "simulated crash exits 70, request unacknowledged";
  (match List.filter (fun f -> not (List.mem f before)) (flightrecs ()) with
   | [] -> fail "crash fault: no flight-recorder artifact in %s" data
   | artifact :: _ ->
     let events =
       In_channel.with_open_text (Filename.concat data artifact) In_channel.input_lines
       |> List.filter_map (fun l ->
              match Json.parse l with
              | j -> Some j
              | exception Json.Parse_error _ ->
                fail "flightrec line is not JSON: %s" l;
                None)
     in
     if events = [] then fail "crash fault: flightrec artifact is empty";
     let begins = List.length (List.filter (fun e -> Json.member "ev" e = Some (Json.Str "b")) events) in
     let ends = List.length (List.filter (fun e -> Json.member "ev" e = Some (Json.Str "e")) events) in
     if begins <> ends then
       fail "crash fault: flightrec spans imbalanced (%d begins, %d ends)" begins ends;
     (match crash_tid with
      | Some tid when List.exists (fun e -> Json.member "tid" e = Some (Json.Str tid)) events ->
        pass "crash left a balanced flightrec artifact naming request %s" tid
      | Some tid -> fail "crash fault: flightrec tail lacks the crashing trace id %s" tid
      | None -> ()));
  let sv2 = start_server main_exe dir in
  let c2 = connect_retry sv2.sock in
  (match dump_of c2 "crashy" with
   | Some d when d = reference_dump [ good_prog 50 ] ->
     pass "crashy: recovery dropped exactly the un-journaled request"
   | Some _ -> fail "crashy: recovered state is wrong"
   | None -> fail "crashy: not recovered");
  close_client c2;
  Unix.kill sv2.pid Sys.sigterm;
  ignore (wait_exit sv2)

(* memory governance, end to end: a server started with a per-session
   byte quota refuses a session that tries to grow without bound — every
   attempt gets a typed budget/quota reply and a rollback — while a
   concurrent durable session is untouched, stays byte-identical to the
   serial reference, and still recovers byte-identically after a
   restart. *)
let phase_memory_governance main_exe dir =
  let mdir = Filename.concat dir "mem" in
  if not (Sys.file_exists mdir) then Unix.mkdir mdir 0o755;
  let extra =
    [ "--session-memory-quota"; "65536"; "--memory-headroom"; "1000000" ]
  in
  let sv = start_server ~extra main_exe mdir in
  let c = connect_retry sv.sock in
  ignore (open_durable c "steady");
  let r = rpc c (run_req ~id:1 ~session:"steady" (good_prog 7)) in
  if not (is_ok r) then fail "memory: steady seed request failed: %s" (err_kind r);
  (* multi-rule explosion: a generator rule plus assoc/comm rewrites
     overshoots the pressure tiers and must hit the hard byte budget *)
  let mem_bomb =
    "(datatype Math (Num i64) (Add Math Math))\n\
     (birewrite (Add (Add a b) c) (Add a (Add b c)))\n\
     (rewrite (Add a b) (Add b a))\n\
     (rule ((= e (Num n))) ((Num (+ n 1)) (Num (* n 2))))\n\
     (define seed (Add (Num 1) (Add (Num 2) (Num 3))))\n\
     (run 100000)"
  in
  let hog = connect_retry sv.sock in
  let kinds =
    List.init 3 (fun i ->
        let r = rpc hog (run_req ~id:(10 + i) ~session:"hog" mem_bomb) in
        if is_ok r then "ok" else err_kind r)
  in
  let alive = is_ok (rpc hog [ ("id", Json.Int 20); ("op", Json.Str "ping") ]) in
  close_client hog;
  if List.mem "ok" kinds then
    fail "memory: unbounded growth was not refused (replies: %s)" (String.concat "," kinds)
  else if List.exists (fun k -> k <> "budget" && k <> "quota") kinds then
    fail "memory: hog got untyped refusals (replies: %s)" (String.concat "," kinds)
  else pass "memory: hog refused every time with typed replies (%s)" (String.concat "," kinds);
  if not alive then fail "memory: daemon did not survive the hog";
  (match dump_of c "steady" with
   | Some d when d = reference_dump [ good_prog 7 ] ->
     pass "memory: steady session byte-identical beside the hog"
   | Some _ -> fail "memory: steady dump differs beside the hog"
   | None -> fail "memory: steady has no dump");
  close_client c;
  Unix.kill sv.pid Sys.sigterm;
  let code = wait_exit sv in
  if code <> 0 then fail "memory: drain exited %d, want 0" code;
  (* restart: the governed server's durable session recovers byte-identically *)
  let sv2 = start_server ~extra main_exe mdir in
  let c2 = connect_retry sv2.sock in
  (match dump_of c2 "steady" with
   | Some d when d = reference_dump [ good_prog 7 ] ->
     pass "memory: steady recovered byte-identical after restart"
   | Some _ -> fail "memory: steady recovered dump differs"
   | None -> fail "memory: steady not recovered");
  close_client c2;
  Unix.kill sv2.pid Sys.sigterm;
  ignore (wait_exit sv2)

(* observability, from outside: replies carry trace ids, the prometheus
   exposition parses, and dump-flightrec returns the recent trace tail *)
let phase_observability sv =
  let c = connect_retry sv.sock in
  let r = rpc c (run_req ~id:1 ~session:"obs" (good_prog 30)) in
  if not (is_ok r) then fail "observability seed request failed: %s" (err_kind r);
  (match Json.member "trace_id" r with
   | Some (Json.Str _) -> pass "replies carry trace ids"
   | _ -> fail "reply lacks a trace_id");
  (* prometheus exposition: every non-comment line is name{labels} value *)
  let m =
    rpc c
      [ ("id", Json.Int 2); ("op", Json.Str "metrics"); ("format", Json.Str "prometheus") ]
  in
  (match Json.member "prometheus" m with
   | Some (Json.Str text) ->
     let bad = ref 0 in
     List.iter
       (fun line ->
         if line <> "" && not (String.starts_with ~prefix:"# " line) then begin
           match String.rindex_opt line ' ' with
           | None ->
             incr bad;
             fail "prometheus line lacks a value: %S" line
           | Some i ->
             let name = String.sub line 0 i in
             let value = String.sub line (i + 1) (String.length line - i - 1) in
             if float_of_string_opt value = None then begin
               incr bad;
               fail "prometheus sample value unparseable: %S" line
             end;
             let base =
               match String.index_opt name '{' with
               | Some j -> String.sub name 0 j
               | None -> name
             in
             if
               base = ""
               || not
                    (String.for_all
                       (fun ch ->
                         (ch >= 'a' && ch <= 'z')
                         || (ch >= 'A' && ch <= 'Z')
                         || ch = '_' || ch = ':'
                         || (ch >= '0' && ch <= '9'))
                       base)
             then begin
               incr bad;
               fail "bad prometheus metric name: %S" base
             end
         end)
       (String.split_on_char '\n' text);
     let has sub =
       let n = String.length text and m = String.length sub in
       let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
       go 0
     in
     if not (has "egglog_server_live_sessions") then
       fail "prometheus output lacks egglog_server_live_sessions";
     if not (has "egglog_session_requests_total{session=\"obs\"}") then
       fail "prometheus output lacks the per-session request counter";
     if !bad = 0 then pass "prometheus exposition parses (%d bytes)" (String.length text)
   | _ -> fail "metrics format=prometheus carries no text");
  (* on-demand flight recorder dump *)
  let d = rpc c [ ("id", Json.Int 3); ("op", Json.Str "dump-flightrec") ] in
  (match (Json.member "events" d, Json.member "path" d) with
   | Some (Json.List (_ :: _ as events)), Some (Json.Str path) ->
     if Sys.file_exists path then
       pass "dump-flightrec: %d events, artifact at %s" (List.length events)
         (Filename.basename path)
     else fail "dump-flightrec artifact %s missing" path
   | _ -> fail "dump-flightrec reply incomplete: %s" (Json.to_string d));
  close_client c

(* the server trace must have balanced span begin/end events per name *)
let phase_trace_balance dir =
  let path = Filename.concat dir "server-trace.jsonl" in
  if not (Sys.file_exists path) then fail "no server trace at %s" path
  else begin
    let tbl = Hashtbl.create 16 in
    In_channel.with_open_text path (fun ic ->
        try
          while true do
            let line = input_line ic in
            match Json.parse line with
            | j -> (
              match (Json.member "ev" j, Json.member "name" j) with
              | Some (Json.Str "b"), Some (Json.Str name) ->
                Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))
              | Some (Json.Str "e"), Some (Json.Str name) ->
                Hashtbl.replace tbl name (Option.value ~default:0 (Hashtbl.find_opt tbl name) - 1)
              | _ -> ())
            | exception Json.Parse_error _ -> fail "trace line is not JSON: %s" line
          done
        with End_of_file -> ());
    let imbalanced = Hashtbl.fold (fun n d acc -> if d <> 0 then (n, d) :: acc else acc) tbl [] in
    match imbalanced with
    | [] -> pass "server trace spans balanced (%d span names)" (Hashtbl.length tbl)
    | l ->
      List.iter (fun (n, d) -> fail "trace span imbalance: %s (%+d)" n d) l
  end

let () =
  let main_exe =
    if Array.length Sys.argv < 2 then (
      prerr_endline "usage: server_harness MAIN_EXE [SCRATCH_DIR]";
      exit 2)
    else Sys.argv.(1)
  in
  let dir =
    if Array.length Sys.argv > 2 then Sys.argv.(2)
    else
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "egglog_harness_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let sv = start_server main_exe dir in
  phase_concurrent sv;
  phase_overload sv;
  phase_observability sv;
  phase_sigterm_drain sv;
  phase_restart main_exe dir;
  phase_crash_fault main_exe dir;
  phase_memory_governance main_exe dir;
  phase_trace_balance dir;
  if !failures > 0 then begin
    Printf.eprintf "%d failure(s)\n%!" !failures;
    exit 1
  end
  else print_endline "server harness: all checks passed"
