(* The daemon, in-process: a real Serve loop on its own domain, spoken to
   over a real Unix socket. The properties under test are the robustness
   contract of docs/SERVER.md: every failure is a typed reply (never a dead
   connection), failed/over-budget requests roll back to byte-identical
   session state, sessions are isolated from each other's abuse, overload
   sheds with a retry hint instead of stalling, drain is graceful, and
   durable sessions survive restarts and crashes at the server's fault
   points with exactly the journaled prefix. *)

module E = Egglog
module S = Egglog_server
module Json = S.Protocol.Json

(* ---- scratch dirs ---- *)

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "egglog_server_%d_%d" (Unix.getpid ()) !ctr)
    in
    Unix.mkdir d 0o755;
    d

let rec cleanup_dir d =
  Array.iter
    (fun f ->
      let p = Filename.concat d f in
      if Sys.is_directory p then cleanup_dir p else try Sys.remove p with Sys_error _ -> ())
    (try Sys.readdir d with Sys_error _ -> [||]);
  try Unix.rmdir d with Unix.Unix_error _ -> ()

(* ---- server lifecycle ---- *)

type server = {
  srv : S.Serve.t;
  dom : [ `Clean | `Crash of string ] Domain.t;
  sock : string;
}

let start ?(tune = fun c -> c) dir =
  let sock = Filename.concat dir "s.sock" in
  let cfg =
    tune
      {
        S.Serve.default_config with
        socket_path = Some sock;
        data_dir = Some (Filename.concat dir "data");
      }
  in
  let srv = S.Serve.create cfg in
  let dom =
    Domain.spawn (fun () ->
        match S.Serve.run srv with
        | () -> `Clean
        | exception E.Fault.Crash p -> `Crash p)
  in
  { srv; dom; sock }

let stop sv =
  S.Serve.request_drain sv.srv;
  Domain.join sv.dom

let with_server ?tune dir f =
  let sv = start ?tune dir in
  Fun.protect
    ~finally:(fun () -> if not (S.Serve.draining sv.srv) then ignore (stop sv))
    (fun () -> f sv)

(* ---- client ---- *)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect sv =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sv.sock);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let send_line c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c = Json.parse (input_line c.ic)
let obj fields = Json.to_string (Json.Obj fields)
let rpc c fields = send_line c (obj fields); recv c

let run_req ?(id = 1) ~session program =
  [
    ("id", Json.Int id);
    ("op", Json.Str "run");
    ("session", Json.Str session);
    ("program", Json.Str program);
  ]

let is_ok reply = Json.member "ok" reply = Some (Json.Bool true)

let err_kind reply =
  match Json.member "error" reply with
  | Some err -> (
    match Json.member "kind" err with Some (Json.Str s) -> s | _ -> "<no kind>")
  | None -> "<no error>"

let retry_after reply =
  match Json.member "error" reply with
  | Some err -> (
    match Json.member "retry_after_ms" err with Some (Json.Int ms) -> Some ms | _ -> None)
  | None -> None

let check_ok what reply =
  if not (is_ok reply) then
    Alcotest.failf "%s: expected ok, got %s (%s)" what (err_kind reply) (Json.to_string reply)

let check_err what kind reply =
  if is_ok reply then Alcotest.failf "%s: expected %s error, got ok" what kind;
  Alcotest.(check string) what kind (err_kind reply)

let dump_of c session =
  let reply =
    rpc c [ ("id", Json.Int 99); ("op", Json.Str "dump"); ("session", Json.Str session) ]
  in
  check_ok "dump" reply;
  match Json.member "dump" reply with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.fail "dump reply carries no dump"

(* The serial single-session reference: the same program through a plain
   engine. Server sessions must dump byte-identical to this. *)
let reference_dump programs =
  let eng = E.Engine.create () in
  List.iter
    (fun p -> ignore (E.Engine.run_program eng (E.Frontend.parse_program p)))
    programs;
  E.Serialize.dump_string eng

let prog_base =
  "(relation edge (i64 i64)) (relation path (i64 i64))\n\
   (rule ((edge x y)) ((path x y)))\n\
   (rule ((path x y) (edge y z)) ((path x z)))\n\
   (edge 1 2) (edge 2 3) (edge 3 4) (run 5)"

let prog_more = "(edge 4 5) (run 5)"

(* ---- basic protocol ---- *)

let test_basics () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c = connect sv in
      check_ok "ping" (rpc c [ ("id", Json.Int 1); ("op", Json.Str "ping") ]);
      let hello = rpc c [ ("id", Json.Int 2); ("op", Json.Str "hello") ] in
      check_ok "hello" hello;
      (match Json.member "limits" hello with
       | Some (Json.Obj _) -> ()
       | _ -> Alcotest.fail "hello carries no limits object");
      check_ok "open"
        (rpc c
           [ ("id", Json.Int 3); ("op", Json.Str "open-session"); ("session", Json.Str "a") ]);
      check_ok "run" (rpc c (run_req ~id:4 ~session:"a" prog_base));
      let stats =
        rpc c [ ("id", Json.Int 5); ("op", Json.Str "stats"); ("session", Json.Str "a") ]
      in
      check_ok "stats" stats;
      (match Json.member "rows" stats with
       | Some (Json.Int n) when n > 0 -> ()
       | j ->
         Alcotest.failf "stats rows missing or zero: %s"
           (match j with Some j -> Json.to_string j | None -> "absent"));
      Alcotest.(check string) "dump matches the serial reference" (reference_dump [ prog_base ])
        (dump_of c "a");
      let metrics = rpc c [ ("id", Json.Int 6); ("op", Json.Str "metrics") ] in
      check_ok "metrics" metrics;
      check_ok "close"
        (rpc c
           [ ("id", Json.Int 7); ("op", Json.Str "close-session"); ("session", Json.Str "a") ]);
      close_client c);
  cleanup_dir dir

(* The daemon has no per-request parallelism: [hello] reports no
   [max_jobs], and a run carrying the old ["jobs"] field gets the same
   reply and leaves the same dump as one without it, since the protocol
   ignores fields it does not know. *)
let test_hello_has_no_max_jobs () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c = connect sv in
      let hello = rpc c [ ("id", Json.Int 1); ("op", Json.Str "hello") ] in
      check_ok "hello" hello;
      (match Json.member "limits" hello with
       | Some limits ->
         Alcotest.(check bool) "limits has no max_jobs" true (Json.member "max_jobs" limits = None)
       | None -> Alcotest.fail "hello carries no limits object");
      close_client c);
  cleanup_dir dir

let test_jobs_field_ignored () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c = connect sv in
      (* drop the per-request trace id, which differs between requests *)
      let without_tid reply =
        match reply with
        | Json.Obj fields -> Json.to_string (Json.Obj (List.remove_assoc "trace_id" fields))
        | j -> Json.to_string j
      in
      let plain = rpc c (run_req ~id:1 ~session:"plain" prog_base) in
      let with_jobs = rpc c (run_req ~id:1 ~session:"jobs" prog_base @ [ ("jobs", Json.Int 4) ]) in
      check_ok "run without jobs" plain;
      check_ok "run with jobs" with_jobs;
      Alcotest.(check string) "same reply" (without_tid plain) (without_tid with_jobs);
      Alcotest.(check string) "same dump" (dump_of c "plain") (dump_of c "jobs");
      close_client c);
  cleanup_dir dir

let test_error_taxonomy () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c = connect sv in
      (* each failure is a typed reply, and the connection survives it *)
      send_line c "this is not json";
      check_err "junk frame" "malformed-frame" (recv c);
      send_line c "[1,2,3]";
      check_err "non-object frame" "malformed-frame" (recv c);
      check_err "missing op" "malformed-frame" (rpc c [ ("id", Json.Int 1) ]);
      check_err "unknown op" "unsupported"
        (rpc c [ ("id", Json.Int 2); ("op", Json.Str "nope") ]);
      check_err "missing session" "malformed-frame"
        (rpc c [ ("id", Json.Int 3); ("op", Json.Str "dump") ]);
      check_err "path-traversal session name" "bad-session"
        (rpc c [ ("id", Json.Int 4); ("op", Json.Str "dump"); ("session", Json.Str "../evil") ]);
      check_err "ill-typed field" "malformed-frame"
        (rpc c [ ("id", Json.Int 5); ("op", Json.Str "dump"); ("session", Json.Int 7) ]);
      check_err "parse error" "parse-error" (rpc c (run_req ~id:6 ~session:"a" "(unclosed"));
      check_err "engine error" "engine-error"
        (rpc c (run_req ~id:7 ~session:"a" "(undefined-thing 1)"));
      (* the reply echoes the request id, including string ids *)
      let r = rpc c [ ("id", Json.Str "xyz"); ("op", Json.Str "ping") ] in
      (match Json.member "id" r with
       | Some (Json.Str "xyz") -> ()
       | _ -> Alcotest.failf "id not echoed: %s" (Json.to_string r));
      check_ok "connection still works after the gauntlet"
        (rpc c [ ("id", Json.Int 8); ("op", Json.Str "ping") ]);
      close_client c);
  cleanup_dir dir

let test_too_large_frame () =
  let dir = fresh_dir () in
  with_server ~tune:(fun c -> { c with S.Serve.max_input_bytes = 256 }) dir (fun sv ->
      let c = connect sv in
      let big = String.make 1024 'x' in
      send_line c (obj [ ("id", Json.Int 1); ("op", Json.Str "ping"); ("pad", Json.Str big) ]);
      check_err "oversized frame" "too-large" (recv c);
      check_ok "connection survives" (rpc c [ ("id", Json.Int 2); ("op", Json.Str "ping") ]);
      (* an unterminated monster is refused without buffering it all *)
      output_string c.oc (String.make 4096 'y');
      flush c.oc;
      check_err "unterminated oversized frame" "too-large" (recv c);
      output_string c.oc (String.make 512 'z');
      output_char c.oc '\n';
      flush c.oc;
      check_ok "skip-to-newline resynchronizes"
        (rpc c [ ("id", Json.Int 3); ("op", Json.Str "ping") ]);
      close_client c);
  cleanup_dir dir

(* ---- framing over a real socket ----

   The daemon reads into one buffer per server and splits frames only in
   the bytes just read; these tests cut frames at every kind of write
   boundary and check that each one is answered, in order. *)

let write_all fd s =
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* a ping frame of exactly [len] bytes, no newline *)
let ping_frame ~id len =
  let bare = obj [ ("id", Json.Int id); ("op", Json.Str "ping"); ("pad", Json.Str "") ] in
  let pad = len - String.length bare in
  if pad < 0 then invalid_arg "ping_frame: too short";
  obj [ ("id", Json.Int id); ("op", Json.Str "ping"); ("pad", Json.Str (String.make pad 'p')) ]

let recv_id c =
  let r = recv c in
  check_ok "framed ping" r;
  match Json.member "id" r with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "reply carries no int id: %s" (Json.to_string r)

(* Random frames, written in random pieces of 1 byte to 64 KB; some cuts
   fall just before or just after a newline, so a write starts or ends
   with one. A short pause after most writes lets the daemon read them
   one by one. *)
let test_random_pieces () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c = connect sv in
      List.iter
        (fun seed ->
          let rng = Random.State.make [| seed |] in
          let nframes = 12 in
          let frames =
            List.init nframes (fun i ->
                let len =
                  match Random.State.int rng 3 with
                  | 0 -> 40 + Random.State.int rng 40
                  | 1 -> 40 + Random.State.int rng 4000
                  | _ -> 40 + Random.State.int rng 150_000
                in
                ping_frame ~id:((seed * 1000) + i) len)
          in
          let stream = String.concat "" (List.map (fun f -> f ^ "\n") frames) in
          let total = String.length stream in
          let cuts = ref [] in
          String.iteri
            (fun i ch ->
              if ch = '\n' then
                match Random.State.int rng 3 with
                | 0 -> cuts := i :: !cuts
                | 1 -> cuts := (i + 1) :: !cuts
                | _ -> ())
            stream;
          let rec step pos =
            if pos < total then begin
              cuts := pos :: !cuts;
              let size =
                if Random.State.bool rng then 1 + Random.State.int rng 16
                else 1 + Random.State.int rng 65536
              in
              step (pos + size)
            end
          in
          step 0;
          let cuts = List.sort_uniq compare (List.filter (fun p -> p > 0 && p < total) !cuts) in
          let rec pieces from = function
            | [] -> [ String.sub stream from (total - from) ]
            | p :: rest -> String.sub stream from (p - from) :: pieces p rest
          in
          let pieces = pieces 0 cuts in
          if not (List.exists (fun p -> p.[0] = '\n') pieces) then
            Alcotest.failf "seed %d: no write starts with a newline" seed;
          if not (List.exists (fun p -> p.[String.length p - 1] = '\n') pieces) then
            Alcotest.failf "seed %d: no write ends with a newline" seed;
          List.iter
            (fun piece ->
              write_all c.fd piece;
              if Random.State.int rng 4 > 0 then Unix.sleepf 0.0005)
            pieces;
          List.iteri
            (fun i _ ->
              Alcotest.(check int)
                (Printf.sprintf "seed %d: frame %d answered in order" seed i)
                ((seed * 1000) + i) (recv_id c))
            frames)
        [ 1; 2; 3; 4 ];
      close_client c);
  cleanup_dir dir

(* The server's read buffer is reused: after a long frame, bytes of it
   (its newline included) lie past the end of the next short read. A
   short frame whose newline comes in a later write must wait for that
   write, not be split at a stale newline. *)
let test_stale_newline_ignored () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c = connect sv in
      List.iteri
        (fun k long ->
          let id = 10 * k in
          write_all c.fd (ping_frame ~id long ^ "\n");
          Alcotest.(check int) "long frame answered" id (recv_id c);
          write_all c.fd (ping_frame ~id:(id + 1) 60);
          Unix.sleepf 0.02;
          write_all c.fd "\n";
          Alcotest.(check int) "short frame answered once its newline arrives" (id + 1)
            (recv_id c);
          check_ok "connection still in sync"
            (rpc c [ ("id", Json.Int (id + 2)); ("op", Json.Str "ping") ]))
        [ 1_000; 30_000; 65_000 ];
      close_client c);
  cleanup_dir dir

(* A frame of exactly max_input_bytes is a frame, however many writes
   carry it; one byte more is too large, and the connection then
   resynchronizes at the next newline. *)
let test_frame_at_limit () =
  let dir = fresh_dir () in
  let limit = 100_000 in
  with_server ~tune:(fun c -> { c with S.Serve.max_input_bytes = limit }) dir (fun sv ->
      let c = connect sv in
      let send_in_pieces frame =
        let n = String.length frame in
        let rec go off =
          if off < n then begin
            let len = min 4096 (n - off) in
            write_all c.fd (String.sub frame off len);
            Unix.sleepf 0.0005;
            go (off + len)
          end
        in
        go 0;
        write_all c.fd "\n"
      in
      send_in_pieces (ping_frame ~id:1 limit);
      Alcotest.(check int) "frame of exactly the limit is answered" 1 (recv_id c);
      send_in_pieces (ping_frame ~id:2 (limit + 1));
      check_err "one byte over the limit" "too-large" (recv c);
      check_ok "resynchronized after the oversized frame"
        (rpc c [ ("id", Json.Int 3); ("op", Json.Str "ping") ]);
      close_client c);
  cleanup_dir dir

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A peer that resets the connection mid-frame (it closed with a reply
   still unread) leaves a tail that is no frame; the connection must still
   be closed, not kept open waiting for a newline that cannot come. *)
let test_reset_mid_frame_closes () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let before = open_fds () in
      let c = connect sv in
      write_all c.fd (obj [ ("id", Json.Int 1); ("op", Json.Str "ping") ] ^ "\n");
      Unix.sleepf 0.1;
      write_all c.fd "{\"id\":2,";
      Unix.sleepf 0.1;
      close_client c;
      let rec settle n = if open_fds () > before && n > 0 then (Unix.sleepf 0.05; settle (n - 1)) in
      settle 40;
      Alcotest.(check int) "the daemon closed its end" before (open_fds ()));
  cleanup_dir dir

(* ---- rollback and isolation ---- *)

let test_failed_request_rolls_back () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c = connect sv in
      check_ok "seed" (rpc c (run_req ~id:1 ~session:"a" prog_base));
      let before = dump_of c "a" in
      (* fails midway: first command runs, second errors — all rolled back *)
      check_err "multi-command failure" "engine-error"
        (rpc c (run_req ~id:2 ~session:"a" "(edge 7 8) (run 2) (boom)"));
      Alcotest.(check string) "session unchanged after failed request" before (dump_of c "a");
      Alcotest.(check string) "still the serial reference" (reference_dump [ prog_base ])
        (dump_of c "a");
      close_client c);
  cleanup_dir dir

let test_budget_rejection_rolls_back () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c = connect sv in
      check_ok "seed" (rpc c (run_req ~id:1 ~session:"a" prog_base));
      let before = dump_of c "a" in
      let bomb =
        "(datatype T (L) (N T T)) (rule ((= x (N a b))) ((N x x))) (N (L) (L)) (run 100000)"
      in
      let r =
        rpc c (("node_limit", Json.Int 300) :: run_req ~id:2 ~session:"a" bomb)
      in
      check_err "node bomb" "budget" r;
      Alcotest.(check string) "rolled back byte-identically" before (dump_of c "a");
      close_client c);
  cleanup_dir dir

let test_quota_rejection () =
  let dir = fresh_dir () in
  with_server ~tune:(fun c -> { c with S.Serve.session_node_quota = Some 6 }) dir (fun sv ->
      let c = connect sv in
      check_ok "under quota"
        (rpc c (run_req ~id:1 ~session:"a" "(relation r (i64)) (r 1) (r 2)"));
      let before = dump_of c "a" in
      check_err "over quota" "quota"
        (rpc c (run_req ~id:2 ~session:"a" "(r 3) (r 4) (r 5) (r 6) (r 7)"));
      Alcotest.(check string) "quota breach rolled back" before (dump_of c "a");
      close_client c);
  cleanup_dir dir

let test_memory_limit_budget_stop () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c = connect sv in
      check_ok "seed" (rpc c (run_req ~id:1 ~session:"a" prog_base));
      let before = dump_of c "a" in
      (* multi-rule explosion: banning the biggest byte-grower (tier 2)
         cannot freeze it, so the hard modeled-byte stop must trip *)
      let bomb =
        "(datatype Math (Num i64) (Add Math Math))\n\
         (birewrite (Add (Add a b) c) (Add a (Add b c)))\n\
         (rewrite (Add a b) (Add b a))\n\
         (rule ((= e (Num n))) ((Num (+ n 1)) (Num (* n 2))))\n\
         (define seed (Add (Num 1) (Add (Num 2) (Num 3))))\n\
         (run 100000)"
      in
      let r = rpc c (("memory_limit", Json.Int 50_000) :: run_req ~id:2 ~session:"a" bomb) in
      check_err "memory bomb stops as a budget reject" "budget" r;
      Alcotest.(check string) "rolled back byte-identically" before (dump_of c "a");
      close_client c);
  cleanup_dir dir

let test_memory_quota_rejection () =
  let dir = fresh_dir () in
  with_server ~tune:(fun c -> { c with S.Serve.session_memory_quota = Some 3_000 }) dir
    (fun sv ->
      let c = connect sv in
      check_ok "under quota"
        (rpc c (run_req ~id:1 ~session:"a" "(relation r (i64)) (r 1) (r 2)"));
      let before = dump_of c "a" in
      (* plain inserts, no (run): growth the run budget cannot catch — the
         retained-footprint quota must *)
      let flood =
        String.concat " " (List.init 60 (fun i -> Printf.sprintf "(r %d)" (i + 10)))
      in
      check_err "over quota" "quota" (rpc c (run_req ~id:2 ~session:"a" flood));
      Alcotest.(check string) "quota breach rolled back" before (dump_of c "a");
      close_client c);
  cleanup_dir dir

(* While a (push) scope is open, every write's inverse stays on the undo
   trail until the pop, past its request's commit. Requests that set a
   value and set it back leave the database's modeled bytes as they were,
   so only the trail grows: the memory quota must see it, and a pop must
   give it back. *)
let test_memory_quota_counts_open_scope () =
  let dir = fresh_dir () in
  with_server ~tune:(fun c -> { c with S.Serve.session_memory_quota = Some 3_000 }) dir
    (fun sv ->
      let c = connect sv in
      check_ok "open a scope"
        (rpc c (run_req ~id:1 ~session:"a" "(function f () i64 :merge new) (set (f) 0) (push)"));
      let churn id = rpc c (run_req ~id ~session:"a" "(set (f) 1) (set (f) 0)") in
      let rec until_rejected id =
        if id > 200 then Alcotest.fail "the open scope's trail never met the quota"
        else
          let before = dump_of c "a" in
          let reply = churn id in
          if is_ok reply then until_rejected (id + 1)
          else begin
            check_err "over quota" "quota" reply;
            Alcotest.(check string) "quota breach rolled back" before (dump_of c "a")
          end
      in
      until_rejected 2;
      check_ok "pop" (rpc c (run_req ~id:300 ~session:"a" "(pop)"));
      for id = 301 to 400 do
        check_ok "no scope open, nothing kept" (churn id)
      done;
      close_client c);
  cleanup_dir dir

(* Satellite: a real allocation failure mid-request must be a typed reply
   and a rollback, never a dead daemon. Injected via the server.oom fault
   point (raises Out_of_memory inside the request transaction). *)
let test_oom_is_survivable () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c = connect sv in
      check_ok "seed" (rpc c (run_req ~id:1 ~session:"a" prog_base));
      let before = dump_of c "a" in
      E.Fault.arm_nth "server.oom" 1;
      let r = rpc c (run_req ~id:2 ~session:"a" "(edge 7 8) (run 2)") in
      E.Fault.disarm ();
      check_err "oom is a typed reply" "memory" r;
      Alcotest.(check string) "session rolled back byte-identically" before (dump_of c "a");
      check_ok "daemon alive" (rpc c [ ("id", Json.Int 3); ("op", Json.Str "ping") ]);
      check_ok "and the session still serves" (rpc c (run_req ~id:4 ~session:"a" prog_more));
      close_client c);
  cleanup_dir dir

let test_headroom_evicts_then_sheds () =
  let dir = fresh_dir () in
  with_server ~tune:(fun c -> { c with S.Serve.memory_headroom = Some 500; retry_after_ms = 25 })
    dir (fun sv ->
      let c = connect sv in
      (* a durable session holding real state: the eviction path must
         checkpoint it, not lose it *)
      check_ok "durable victim"
        (rpc c
           [
             ("id", Json.Int 1);
             ("op", Json.Str "open-session");
             ("session", Json.Str "victim");
             ("durable", Json.Bool true);
           ]);
      check_ok "victim holds state" (rpc c (run_req ~id:2 ~session:"victim" prog_base));
      (* a request for a fresh session: over headroom, the largest-idle
         session (victim) is checkpointed and evicted to make room *)
      check_ok "fresh request admitted after eviction"
        (rpc c (run_req ~id:3 ~session:"fresh" "(relation tiny (i64)) (tiny 1)"));
      (* the victim recovers from its checkpoint byte-identically *)
      Alcotest.(check string) "evicted session checkpointed, not lost"
        (reference_dump [ prog_base ]) (dump_of c "victim");
      (* now make one session itself exceed the cap: with no other victim to
         shed, admission refuses with a retry hint instead of growing *)
      ignore
        (rpc c
           [ ("id", Json.Int 4); ("op", Json.Str "close-session"); ("session", Json.Str "victim") ]);
      let flood =
        "(relation big (i64)) "
        ^ String.concat " " (List.init 60 (fun i -> Printf.sprintf "(big %d)" i))
      in
      check_ok "fill the requester itself" (rpc c (run_req ~id:5 ~session:"fresh" flood));
      let r = rpc c (run_req ~id:6 ~session:"fresh" "(tiny 2)") in
      check_err "no victim left: overload" "overload" r;
      Alcotest.(check (option int)) "retry hint" (Some 25) (retry_after r);
      close_client c);
  cleanup_dir dir

let test_memory_pressure_fault () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c = connect sv in
      check_ok "seed" (rpc c (run_req ~id:1 ~session:"a" prog_base));
      (* the fault forces a zero headroom cap for one request: the requester
         is its own footprint, so admission sheds it *)
      E.Fault.arm_nth "server.memory.pressure" 1;
      let r = rpc c (run_req ~id:2 ~session:"a" "(edge 9 10)") in
      E.Fault.disarm ();
      check_err "forced pressure sheds" "overload" r;
      check_ok "back to normal afterwards" (rpc c (run_req ~id:3 ~session:"a" "(edge 9 10)"));
      close_client c);
  cleanup_dir dir

let test_metrics_memory_gauges () =
  let dir = fresh_dir () in
  with_server ~tune:(fun c -> { c with S.Serve.session_memory_quota = Some 1_000_000 }) dir
    (fun sv ->
      let c = connect sv in
      check_ok "populate" (rpc c (run_req ~id:1 ~session:"a" prog_base));
      let m = rpc c [ ("id", Json.Int 2); ("op", Json.Str "metrics") ] in
      check_ok "metrics" m;
      let mem =
        match Json.member "memory" m with
        | Some (Json.Obj _ as o) -> o
        | _ -> Alcotest.fail "metrics reply carries no memory object"
      in
      let int_field what name =
        match Json.member name mem with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.failf "memory.%s missing (%s)" name what
      in
      Alcotest.(check bool) "modeled bytes reflect the live session" true
        (int_field "modeled" "modeled_bytes" > 0);
      Alcotest.(check int) "one live session" 1 (int_field "live" "live_sessions");
      Alcotest.(check int) "quota echoed" 1_000_000
        (int_field "quota" "session_memory_quota");
      Alcotest.(check bool) "gc backstop present" true
        (int_field "gc" "top_heap_bytes" > 0);
      close_client c);
  cleanup_dir dir

let test_deadline () =
  (* a fake clock that leaps 100s per reading: the first between-command
     deadline check already sees the budget spent *)
  let ticks = Atomic.make 0 in
  E.Telemetry.set_clock (fun () -> float_of_int (Atomic.fetch_and_add ticks 1) *. 100.0);
  Fun.protect ~finally:E.Telemetry.use_default_clock (fun () ->
      let dir = fresh_dir () in
      with_server dir (fun sv ->
          let c = connect sv in
          check_err "deadline between commands" "deadline"
            (rpc c (run_req ~id:1 ~session:"a" "(relation r (i64)) (r 1)"));
          check_ok "session empty but alive"
            (rpc c [ ("id", Json.Int 2); ("op", Json.Str "stats"); ("session", Json.Str "a") ]);
          close_client c);
      cleanup_dir dir)

let abusive_lines session =
  [
    "garbage that is not a frame";
    obj [ ("id", Json.Int 90); ("op", Json.Str "bogus") ];
    obj (run_req ~id:91 ~session "(((((");
    obj (run_req ~id:92 ~session "(undefined 1 2 3)");
    ("node_limit", Json.Int 200)
    :: run_req ~id:93 ~session
         "(datatype T (L) (N T T)) (rule ((= x (N a b))) ((N x x))) (N (L) (L)) (run 100000)"
    |> obj;
    obj [ ("id", Json.Int 94); ("op", Json.Str "dump"); ("session", Json.Str "../../etc") ];
  ]

let test_session_isolation () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let good = connect sv in
      check_ok "good session" (rpc good (run_req ~id:1 ~session:"good" prog_base));
      let before = dump_of good "good" in
      (* a second connection hammers its own session with every class of
         bad input; each gets a reply, none is ok *)
      let evil = connect sv in
      List.iter
        (fun line ->
          send_line evil line;
          let r = recv evil in
          if is_ok r then Alcotest.failf "abusive input accepted: %s" line)
        (abusive_lines "evil");
      close_client evil;
      (* the survivor session is byte-for-byte unaffected *)
      Alcotest.(check string) "good session byte-identical after abuse" before
        (dump_of good "good");
      Alcotest.(check string) "and still the serial reference"
        (reference_dump [ prog_base ]) (dump_of good "good");
      close_client good);
  cleanup_dir dir

let test_overload_sheds () =
  let dir = fresh_dir () in
  with_server ~tune:(fun c -> { c with S.Serve.queue_limit = 1; retry_after_ms = 25 }) dir
    (fun sv ->
      let c = connect sv in
      let n = 6 in
      (* one write, many frames: they hit admission together *)
      for i = 1 to n do
        output_string c.oc (obj (run_req ~id:i ~session:"a" "(relation q (i64)) (q 1)"));
        output_char c.oc '\n'
      done;
      flush c.oc;
      let replies = List.init n (fun _ -> recv c) in
      let oks = List.filter is_ok replies in
      let sheds = List.filter (fun r -> not (is_ok r)) replies in
      Alcotest.(check int) "every request answered" n (List.length replies);
      Alcotest.(check bool) "some executed" true (List.length oks >= 1);
      Alcotest.(check bool) "some shed" true (List.length sheds >= 1);
      List.iter
        (fun r ->
          Alcotest.(check string) "shed kind" "overload" (err_kind r);
          Alcotest.(check (option int)) "retry hint" (Some 25) (retry_after r))
        sheds;
      close_client c);
  cleanup_dir dir

(* ---- drain and durability ---- *)

let test_graceful_drain () =
  let dir = fresh_dir () in
  let sv = start dir in
  let c = connect sv in
  check_ok "durable session"
    (rpc c
       [
         ("id", Json.Int 1);
         ("op", Json.Str "open-session");
         ("session", Json.Str "d");
         ("durable", Json.Bool true);
       ]);
  check_ok "journaled work" (rpc c (run_req ~id:2 ~session:"d" prog_base));
  (match stop sv with
   | `Clean -> ()
   | `Crash p -> Alcotest.failf "drain crashed at %s" p);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists sv.sock);
  close_client c;
  (* the journaled session comes back byte-identical *)
  with_server dir (fun sv2 ->
      let c2 = connect sv2 in
      Alcotest.(check string) "recovered == serial reference" (reference_dump [ prog_base ])
        (dump_of c2 "d");
      close_client c2);
  cleanup_dir dir

(* Pipe mode, in-process: the daemon's stdin and stdout are swapped for
   pipes around one [run] that reads [input] to its EOF; returns the
   replies. *)
let serve_piped input =
  let in_r, in_w = Unix.pipe ~cloexec:true () and out_r, out_w = Unix.pipe ~cloexec:true () in
  ignore (Unix.write_substring in_w input 0 (String.length input));
  Unix.close in_w;
  flush stdout;
  let saved_in = Unix.dup ~cloexec:true Unix.stdin and saved_out = Unix.dup ~cloexec:true Unix.stdout in
  Unix.dup2 in_r Unix.stdin;
  Unix.dup2 out_w Unix.stdout;
  List.iter Unix.close [ in_r; out_w ];
  Fun.protect
    ~finally:(fun () ->
      Unix.dup2 saved_in Unix.stdin;
      Unix.dup2 saved_out Unix.stdout;
      List.iter Unix.close [ saved_in; saved_out ])
    (fun () -> S.Serve.run (S.Serve.create { S.Serve.default_config with use_stdio = true }));
  let ic = Unix.in_channel_of_descr out_r in
  let replies = List.map Json.parse (In_channel.input_lines ic) in
  close_in ic;
  replies

let reply_ids replies =
  List.sort compare
    (List.map (fun r -> match Json.member "id" r with Some (Json.Int i) -> i | _ -> -1) replies)

(* The five requests are read in one go and the EOF arrives while the two
   runs still wait in the admission queue; the EOF ends the job only once
   every one of them is answered. *)
let test_stdio_eof_answers_queued () =
  let requests =
    [
      obj [ ("id", Json.Int 1); ("op", Json.Str "ping") ];
      obj [ ("id", Json.Int 2); ("op", Json.Str "open-session"); ("session", Json.Str "p") ];
      obj (run_req ~id:3 ~session:"p" prog_base);
      obj (run_req ~id:4 ~session:"p" prog_more);
      obj [ ("id", Json.Int 5); ("op", Json.Str "ping") ];
    ]
  in
  let replies = serve_piped (String.concat "" (List.map (fun l -> l ^ "\n") requests)) in
  Alcotest.(check int) "one reply per request" 5 (List.length replies);
  List.iter (check_ok "piped request") replies;
  Alcotest.(check (list int)) "one reply per id" [ 1; 2; 3; 4; 5 ] (reply_ids replies)

(* A last frame with no newline is still a frame: the EOF ends it. *)
let test_stdio_unterminated_last_frame () =
  let replies =
    serve_piped
      (obj [ ("id", Json.Int 1); ("op", Json.Str "ping") ]
      ^ "\n"
      ^ obj [ ("id", Json.Int 2); ("op", Json.Str "ping") ])
  in
  List.iter (check_ok "piped ping") replies;
  Alcotest.(check (list int)) "both pings answered" [ 1; 2 ] (reply_ids replies)

let test_durable_upgrade_and_restart () =
  let dir = fresh_dir () in
  let sv = start dir in
  let c = connect sv in
  (* ephemeral first, then upgraded mid-life: the attach checkpoint must
     capture the pre-upgrade state *)
  check_ok "ephemeral work" (rpc c (run_req ~id:1 ~session:"u" prog_base));
  check_ok "upgrade"
    (rpc c
       [
         ("id", Json.Int 2);
         ("op", Json.Str "open-session");
         ("session", Json.Str "u");
         ("durable", Json.Bool true);
       ]);
  check_ok "post-upgrade work" (rpc c (run_req ~id:3 ~session:"u" prog_more));
  ignore (stop sv);
  close_client c;
  with_server dir (fun sv2 ->
      let c2 = connect sv2 in
      Alcotest.(check string) "upgrade + tail recovered"
        (reference_dump [ prog_base; prog_more ])
        (dump_of c2 "u");
      close_client c2);
  cleanup_dir dir

let crash_and_recover ~point ~expect_programs () =
  let dir = fresh_dir () in
  let sv = start dir in
  let c = connect sv in
  check_ok "durable session"
    (rpc c
       [
         ("id", Json.Int 1);
         ("op", Json.Str "open-session");
         ("session", Json.Str "d");
         ("durable", Json.Bool true);
       ]);
  check_ok "first request" (rpc c (run_req ~id:2 ~session:"d" prog_base));
  (* armed only now: the next server-side hit is the second request's *)
  E.Fault.arm_nth point 1;
  send_line c (obj (run_req ~id:3 ~session:"d" prog_more));
  (match Domain.join sv.dom with
   | `Crash p -> Alcotest.(check string) "crashed at the armed point" point p
   | `Clean -> Alcotest.failf "server did not crash at %s" point);
  E.Fault.disarm ();
  close_client c;
  with_server dir (fun sv2 ->
      let c2 = connect sv2 in
      Alcotest.(check string)
        (Printf.sprintf "recovery after crash at %s" point)
        (reference_dump expect_programs) (dump_of c2 "d");
      close_client c2);
  cleanup_dir dir

let test_crash_before_journal () =
  (* committed in memory, never journaled: recovery has only request 1 *)
  crash_and_recover ~point:"server.request.executed" ~expect_programs:[ prog_base ] ()

let test_crash_after_journal () =
  (* journaled before the reply: recovery has both requests, the client
     just never heard the ack *)
  crash_and_recover ~point:"server.request.journaled"
    ~expect_programs:[ prog_base; prog_more ] ()

(* ---- reply-path faults ---- *)

let test_reply_drop_is_survivable () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c1 = connect sv in
      check_ok "before" (rpc c1 [ ("id", Json.Int 1); ("op", Json.Str "ping") ]);
      E.Fault.arm_nth "server.reply.drop" 1;
      send_line c1 (obj [ ("id", Json.Int 2); ("op", Json.Str "ping") ]);
      (* half a reply, then hangup: we read garbage or EOF, never a hang *)
      (match input_line c1.ic with
       | _ -> ()
       | exception End_of_file -> ());
      E.Fault.disarm ();
      close_client c1;
      let c2 = connect sv in
      check_ok "daemon survived the drop" (rpc c2 [ ("id", Json.Int 3); ("op", Json.Str "ping") ]);
      close_client c2);
  cleanup_dir dir

let test_reply_slow_still_delivers () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c = connect sv in
      E.Fault.arm_nth "server.reply.slow" 1;
      let r = rpc c [ ("id", Json.Int 1); ("op", Json.Str "ping") ] in
      E.Fault.disarm ();
      check_ok "dribbled reply arrives whole" r;
      check_ok "and the next is normal" (rpc c [ ("id", Json.Int 2); ("op", Json.Str "ping") ]);
      close_client c);
  cleanup_dir dir

let test_idle_eviction () =
  let dir = fresh_dir () in
  with_server ~tune:(fun c -> { c with S.Serve.idle_timeout_s = Some 0.05 }) dir (fun sv ->
      let c = connect sv in
      check_ok "populate" (rpc c (run_req ~id:1 ~session:"tmp" "(relation r (i64)) (r 1)"));
      Unix.sleepf 1.3;
      (* the sweep evicted the ephemeral session; the name now opens fresh *)
      let stats =
        rpc c [ ("id", Json.Int 2); ("op", Json.Str "stats"); ("session", Json.Str "tmp") ]
      in
      check_ok "fresh session" stats;
      (match Json.member "rows" stats with
       | Some (Json.Int 0) -> ()
       | j ->
         Alcotest.failf "expected empty recreated session, rows=%s"
           (match j with Some j -> Json.to_string j | None -> "absent"));
      close_client c);
  cleanup_dir dir

(* ---- observability ---- *)

(* The flight recorder and the private session histograms only capture
   while telemetry is enabled; scope that state per test. *)
let with_telemetry f =
  E.Telemetry.reset ();
  (* configure (not just clear): the daemon's crash path turns the
     recorder off, and a prior test may have crashed *)
  E.Telemetry.flightrec_configure ~capacity:512;
  E.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      E.Telemetry.disable ();
      E.Telemetry.reset ();
      E.Telemetry.flightrec_configure ~capacity:512)
    f

let trace_id_of reply =
  match Json.member "trace_id" reply with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "reply carries no trace_id: %s" (Json.to_string reply)

let test_trace_ids_in_replies () =
  let dir = fresh_dir () in
  with_server dir (fun sv ->
      let c = connect sv in
      let r1 = rpc c [ ("id", Json.Int 1); ("op", Json.Str "ping") ] in
      let r2 = rpc c (run_req ~id:2 ~session:"a" "(relation r (i64)) (r 1)") in
      check_ok "ping" r1;
      check_ok "run" r2;
      Alcotest.(check bool) "distinct trace ids" true (trace_id_of r1 <> trace_id_of r2);
      (* error replies are tagged too *)
      let r3 = rpc c (run_req ~id:3 ~session:"a" "(oops") in
      Alcotest.(check bool) "error reply tagged" true (not (is_ok r3));
      Alcotest.(check bool) "error trace id set" true (String.length (trace_id_of r3) > 0);
      close_client c);
  cleanup_dir dir

let session_entry m name =
  match Json.member "sessions" m with
  | Some sessions -> (
    match Json.member name sessions with
    | Some entry -> entry
    | None -> Alcotest.failf "metrics reply lacks session %s" name)
  | None -> Alcotest.fail "metrics reply lacks sessions"

let session_int m name field =
  match Json.member field (session_entry m name) with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "sessions.%s.%s missing" name field

let latency_count m name =
  match Json.member "latency" (session_entry m name) with
  | Some lat -> (
    match Json.member "count" lat with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "sessions.%s.latency.count missing" name)
  | None -> Alcotest.failf "sessions.%s.latency missing" name

(* Regression: the metrics reply used to report only the global telemetry
   registry, so one session's activity polluted every session's numbers.
   Per-session stats must come from session-local state only. *)
let test_metrics_per_session_isolation () =
  let dir = fresh_dir () in
  with_telemetry (fun () ->
      with_server dir (fun sv ->
          let c = connect sv in
          check_ok "a runs once" (rpc c (run_req ~id:1 ~session:"a" prog_base));
          let m1 = rpc c [ ("id", Json.Int 2); ("op", Json.Str "metrics") ] in
          check_ok "metrics" m1;
          Alcotest.(check int) "a requests" 1 (session_int m1 "a" "requests");
          Alcotest.(check int) "a latency count" 1 (latency_count m1 "a");
          (* b works hard; a's numbers must not move at all *)
          check_ok "b run 1" (rpc c (run_req ~id:3 ~session:"b" prog_base));
          check_ok "b run 2" (rpc c (run_req ~id:4 ~session:"b" prog_more));
          let m2 = rpc c [ ("id", Json.Int 5); ("op", Json.Str "metrics") ] in
          check_ok "metrics again" m2;
          Alcotest.(check int) "b requests" 2 (session_int m2 "b" "requests");
          Alcotest.(check int) "b latency count" 2 (latency_count m2 "b");
          Alcotest.(check string) "a's entry is byte-identical"
            (Json.to_string (session_entry m1 "a"))
            (Json.to_string (session_entry m2 "a"));
          close_client c));
  cleanup_dir dir

(* Minimal text-exposition validation: every non-comment line is
   name{labels} value with a well-formed metric name and parseable value. *)
let validate_prometheus text =
  List.iter
    (fun line ->
      if line <> "" && not (String.length line >= 2 && String.sub line 0 2 = "# ") then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "prometheus line lacks a value: %S" line
        | Some i ->
          let name = String.sub line 0 i in
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          (match float_of_string_opt value with
           | Some _ -> ()
           | None -> Alcotest.failf "unparseable sample value in %S" line);
          (match String.index_opt name '{' with
           | Some _ when name.[String.length name - 1] <> '}' ->
             Alcotest.failf "unbalanced label braces in %S" line
           | _ -> ());
          let base =
            match String.index_opt name '{' with
            | Some j -> String.sub name 0 j
            | None -> name
          in
          if base = "" then Alcotest.failf "empty metric name in %S" line;
          String.iteri
            (fun k ch ->
              let ok =
                (ch >= 'a' && ch <= 'z')
                || (ch >= 'A' && ch <= 'Z')
                || ch = '_' || ch = ':'
                || (k > 0 && ch >= '0' && ch <= '9')
              in
              if not ok then Alcotest.failf "bad metric name %S" base)
            base
      end)
    (String.split_on_char '\n' text)

let test_metrics_prometheus () =
  let dir = fresh_dir () in
  with_telemetry (fun () ->
      with_server dir (fun sv ->
          let c = connect sv in
          check_ok "populate" (rpc c (run_req ~id:1 ~session:"a" prog_base));
          let m =
            rpc c
              [
                ("id", Json.Int 2);
                ("op", Json.Str "metrics");
                ("format", Json.Str "prometheus");
              ]
          in
          check_ok "metrics" m;
          let text =
            match Json.member "prometheus" m with
            | Some (Json.Str s) -> s
            | _ -> Alcotest.fail "reply carries no prometheus text"
          in
          validate_prometheus text;
          let contains sub =
            let n = String.length text and m = String.length sub in
            let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "server gauges present" true
            (contains "egglog_server_live_sessions 1");
          Alcotest.(check bool) "per-session counter present" true
            (contains "egglog_session_requests_total{session=\"a\"} 1");
          Alcotest.(check bool) "request histogram present" true
            (contains "egglog_server_request_s_bucket");
          (* the request span is the histogram's only recorder: one
             finished request, one observation *)
          Alcotest.(check bool) "one request observation" true
            (contains "egglog_server_request_s_count 1\n");
          Alcotest.(check bool) "no request summary" false
            (contains "egglog_server_request_seconds summary");
          (* unknown format is a typed error, not a dead connection *)
          check_err "bad format" "malformed-frame"
            (rpc c
               [
                 ("id", Json.Int 3);
                 ("op", Json.Str "metrics");
                 ("format", Json.Str "xml");
               ]);
          close_client c));
  cleanup_dir dir

let test_dump_flightrec_op () =
  let dir = fresh_dir () in
  with_telemetry (fun () ->
      with_server dir (fun sv ->
          let c = connect sv in
          let r = rpc c (run_req ~id:1 ~session:"a" prog_base) in
          check_ok "run" r;
          let tid = trace_id_of r in
          let d = rpc c [ ("id", Json.Int 2); ("op", Json.Str "dump-flightrec") ] in
          check_ok "dump-flightrec" d;
          let events =
            match Json.member "events" d with
            | Some (Json.List l) -> l
            | _ -> Alcotest.fail "reply carries no events"
          in
          Alcotest.(check bool) "recorder captured the run" true (List.length events > 0);
          Alcotest.(check bool) "tail carries the run's trace id" true
            (List.exists (fun e -> Json.member "tid" e = Some (Json.Str tid)) events);
          (match Json.member "path" d with
           | Some (Json.Str p) ->
             Alcotest.(check bool) "artifact written under the data dir" true
               (Sys.file_exists p)
           | _ -> Alcotest.fail "no artifact path despite a data dir");
          close_client c));
  cleanup_dir dir

let test_slow_log () =
  let dir = fresh_dir () in
  with_telemetry (fun () ->
      with_server ~tune:(fun c -> { c with S.Serve.slow_log_ms = Some 0 }) dir (fun sv ->
          let c = connect sv in
          check_ok "run" (rpc c (run_req ~id:1 ~session:"a" prog_base));
          check_ok "ping" (rpc c [ ("id", Json.Int 2); ("op", Json.Str "ping") ]);
          close_client c);
      let path = Filename.concat (Filename.concat dir "data") "slowlog.jsonl" in
      Alcotest.(check bool) "slowlog written" true (Sys.file_exists path);
      let entries =
        List.map Json.parse (In_channel.with_open_text path In_channel.input_lines)
      in
      Alcotest.(check bool) "threshold 0 logs every request" true
        (List.length entries >= 2);
      let first = List.hd entries in
      (match Json.member "op" first with
       | Some (Json.Str "run") -> ()
       | j ->
         Alcotest.failf "first entry is not the run: %s"
           (match j with Some j -> Json.to_string j | None -> "<absent>"));
      (match Json.member "program" first with
       | Some (Json.Str p) -> Alcotest.(check string) "program captured" prog_base p
       | _ -> Alcotest.fail "run entry lacks the program");
      (match Json.member "phases" first with
       | Some (Json.Obj _) -> ()
       | _ -> Alcotest.fail "run entry lacks the phase breakdown");
      (match Json.member "trace_id" first with
       | Some (Json.Str _) -> ()
       | _ -> Alcotest.fail "entry lacks a trace id");
      (match Json.member "flightrec_tail" first with
       | Some (Json.List (_ :: _)) -> ()
       | _ -> Alcotest.fail "entry lacks the flight-recorder tail"));
  cleanup_dir dir

(* A --fault crash must leave a parseable flight-recorder artifact whose
   spans balance and whose tail carries the crashing request's trace id. *)
let test_crash_leaves_flightrec_artifact () =
  let dir = fresh_dir () in
  with_telemetry (fun () ->
      let sv = start dir in
      let c = connect sv in
      check_ok "durable session"
        (rpc c
           [
             ("id", Json.Int 1);
             ("op", Json.Str "open-session");
             ("session", Json.Str "d");
             ("durable", Json.Bool true);
           ]);
      let r = rpc c (run_req ~id:2 ~session:"d" prog_base) in
      check_ok "first request" r;
      (* trace ids are sequential, so the crashing request's id is the
         successor of the last acknowledged one *)
      let crash_tid =
        let last = trace_id_of r in
        Printf.sprintf "t-%06d"
          (1 + int_of_string (String.sub last 2 (String.length last - 2)))
      in
      E.Fault.arm_nth "server.request.executed" 1;
      send_line c (obj (run_req ~id:3 ~session:"d" prog_more));
      (match Domain.join sv.dom with
       | `Crash p -> Alcotest.(check string) "crashed at the armed point"
                       "server.request.executed" p
       | `Clean -> Alcotest.fail "server did not crash");
      E.Fault.disarm ();
      close_client c;
      let data = Filename.concat dir "data" in
      let artifacts =
        Array.to_list (Sys.readdir data)
        |> List.filter (String.starts_with ~prefix:"flightrec-")
      in
      (match artifacts with
       | [ artifact ] ->
         let events =
           List.map Json.parse
             (In_channel.with_open_text (Filename.concat data artifact)
                In_channel.input_lines)
         in
         Alcotest.(check bool) "artifact is non-empty" true (events <> []);
         let begins = ref 0 and ends = ref 0 in
         List.iter
           (fun e ->
             match Json.member "ev" e with
             | Some (Json.Str "b") -> incr begins
             | Some (Json.Str "e") -> incr ends
             | _ -> ())
           events;
         Alcotest.(check int) "spans balance" !begins !ends;
         Alcotest.(check bool) "tail carries the crashing trace id" true
           (List.exists
              (fun e -> Json.member "tid" e = Some (Json.Str crash_tid))
              events)
       | _ ->
         Alcotest.failf "expected exactly one flightrec artifact, found %d"
           (List.length artifacts)));
  cleanup_dir dir

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "hello reports no max_jobs" `Quick test_hello_has_no_max_jobs;
          Alcotest.test_case "run ignores a jobs field" `Quick test_jobs_field_ignored;
          Alcotest.test_case "error taxonomy" `Quick test_error_taxonomy;
          Alcotest.test_case "too-large frames" `Quick test_too_large_frame;
        ] );
      ( "framing",
        [
          Alcotest.test_case "random pieces answered in order" `Quick test_random_pieces;
          Alcotest.test_case "stale newline past the read is ignored" `Quick
            test_stale_newline_ignored;
          Alcotest.test_case "frame at max_input_bytes in pieces" `Quick test_frame_at_limit;
          Alcotest.test_case "reset mid-frame closes the connection" `Quick
            test_reset_mid_frame_closes;
        ] );
      ( "containment",
        [
          Alcotest.test_case "failed request rolls back" `Quick test_failed_request_rolls_back;
          Alcotest.test_case "budget rejection rolls back" `Quick
            test_budget_rejection_rolls_back;
          Alcotest.test_case "quota rejection" `Quick test_quota_rejection;
          Alcotest.test_case "deadline rejection" `Quick test_deadline;
          Alcotest.test_case "memory limit stops as a budget reject" `Quick
            test_memory_limit_budget_stop;
          Alcotest.test_case "memory quota rejection" `Quick test_memory_quota_rejection;
          Alcotest.test_case "memory quota counts an open scope's trail" `Quick
            test_memory_quota_counts_open_scope;
          Alcotest.test_case "mid-request oom is survivable" `Quick test_oom_is_survivable;
          Alcotest.test_case "headroom evicts largest, then sheds" `Quick
            test_headroom_evicts_then_sheds;
          Alcotest.test_case "forced memory pressure fault" `Quick test_memory_pressure_fault;
          Alcotest.test_case "metrics report memory gauges" `Quick test_metrics_memory_gauges;
          Alcotest.test_case "session isolation under abuse" `Quick test_session_isolation;
          Alcotest.test_case "overload sheds with retry-after" `Quick test_overload_sheds;
        ] );
      ( "durability",
        [
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
          Alcotest.test_case "pipe-mode EOF answers queued requests" `Quick
            test_stdio_eof_answers_queued;
          Alcotest.test_case "pipe-mode EOF ends an unterminated frame" `Quick
            test_stdio_unterminated_last_frame;
          Alcotest.test_case "durable upgrade and restart" `Quick
            test_durable_upgrade_and_restart;
          Alcotest.test_case "crash before journal loses the request" `Quick
            test_crash_before_journal;
          Alcotest.test_case "crash after journal keeps the request" `Quick
            test_crash_after_journal;
        ] );
      ( "reply-faults",
        [
          Alcotest.test_case "mid-reply drop is survivable" `Quick
            test_reply_drop_is_survivable;
          Alcotest.test_case "slow dribble still delivers" `Quick
            test_reply_slow_still_delivers;
          Alcotest.test_case "idle eviction" `Quick test_idle_eviction;
        ] );
      ( "observability",
        [
          Alcotest.test_case "replies carry trace ids" `Quick test_trace_ids_in_replies;
          Alcotest.test_case "per-session metrics are isolated" `Quick
            test_metrics_per_session_isolation;
          Alcotest.test_case "prometheus exposition" `Quick test_metrics_prometheus;
          Alcotest.test_case "dump-flightrec on demand" `Quick test_dump_flightrec_op;
          Alcotest.test_case "slow-request log" `Quick test_slow_log;
          Alcotest.test_case "crash leaves a flightrec artifact" `Quick
            test_crash_leaves_flightrec_artifact;
        ] );
    ]
