module E = Egglog
module Json = Protocol.Json

type config = {
  socket_path : string option;
  use_stdio : bool;
  data_dir : string option;
  max_sessions : int;
  queue_limit : int;
  retry_after_ms : int;
  max_input_bytes : int;
  max_output_bytes : int;
  node_limit_cap : int;
  time_limit_cap_ms : int;
  max_jobs : int;
  session_node_quota : int option;
  session_memory_quota : int option;
  memory_headroom : int option;
  idle_timeout_s : float option;
  checkpoint_every : int option;
  slow_log_ms : int option;
}

let default_config =
  {
    socket_path = None;
    use_stdio = false;
    data_dir = None;
    max_sessions = 64;
    queue_limit = 64;
    retry_after_ms = 50;
    max_input_bytes = 4 * 1024 * 1024;
    max_output_bytes = 16 * 1024 * 1024;
    node_limit_cap = 1_000_000;
    time_limit_cap_ms = 10_000;
    max_jobs = 4;
    session_node_quota = None;
    session_memory_quota = None;
    memory_headroom = None;
    idle_timeout_s = None;
    checkpoint_every = Some 64;
    slow_log_ms = None;
  }

type conn = {
  c_id : int;
  c_in : Unix.file_descr;
  c_out : Unix.file_descr;
  c_keep_fds : bool;  (* stdio: the fds belong to the process, never close *)
  c_rbuf : Buffer.t;  (* the unterminated tail of the frame being read *)
  c_wbuf : Buffer.t;  (* replies not yet written *)
  mutable c_woff : int;  (* prefix of c_wbuf already on the wire *)
  mutable c_skip : bool;  (* discarding an oversized frame up to its newline *)
  mutable c_eof : bool;
  mutable c_dribble : bool;  (* fault "server.reply.slow": one byte per tick *)
  mutable c_gone : bool;
}

type t = {
  cfg : config;
  sessions : Session.t;
  queue : (int * Protocol.request) Admission.t;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn_id : int;
  listener : Unix.file_descr option;
  rbuf : Bytes.t;  (* every read lands here; one per server, reused *)
  drain_flag : bool Atomic.t;
  mutable recovery : string list;
  mutable last_sweep : float;
  mutable next_trace : int;  (* monotonically increasing trace-id suffix *)
  (* phase breakdown of the last run this tick, for the slow-request log *)
  mutable last_phases : (float * float * float) option;
}

let c_conns = E.Telemetry.counter "server.conns_opened"
let c_requests = E.Telemetry.counter "server.requests"
let c_replies = E.Telemetry.counter "server.replies"
let c_errors = E.Telemetry.counter "server.error_replies"
let c_sheds = E.Telemetry.counter "server.sheds"
let c_slow_drops = E.Telemetry.counter "server.slow_client_drops"
let c_slow_requests = E.Telemetry.counter "server.slow_requests"
let c_flightrec_dumps = E.Telemetry.counter "server.flightrec_dumps"

(* ---- flight recorder dumps ----

   The ring (see Telemetry) is always capturing while the daemon runs;
   these helpers persist it at the moments that need a post-mortem:
   fatal faults, Out_of_memory, recovery quarantine, SIGTERM drain, and
   the on-demand dump-flightrec op. *)

let flightrec_path ~dir =
  let ts = int_of_float (Unix.gettimeofday () *. 1000.) in
  let rec fresh ts =
    let path = Filename.concat dir (Printf.sprintf "flightrec-%d.jsonl" ts) in
    if Sys.file_exists path then fresh (ts + 1) else path
  in
  fresh ts

let dump_flightrec ~data_dir ~reason =
  let dir = Option.value data_dir ~default:"." in
  let path = flightrec_path ~dir in
  match E.Telemetry.flightrec_dump ~path with
  | 0 -> None
  | n ->
    E.Telemetry.bump c_flightrec_dumps 1;
    E.Telemetry.instant "server.flightrec.dump"
      [ ("reason", Json.Str reason); ("path", Json.Str path); ("events", Json.Int n) ];
    Some (path, n)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ---- lifecycle ---- *)

let create cfg =
  if cfg.socket_path = None && not cfg.use_stdio then
    failwith "serve: no transport (need a socket path or stdio)";
  Option.iter mkdir_p cfg.data_dir;
  let sessions =
    Session.create ~data_dir:cfg.data_dir ~max_sessions:cfg.max_sessions
      ~checkpoint_every:cfg.checkpoint_every
      ~make_engine:(fun () -> E.Engine.create ())
  in
  let recovery =
    List.map
      (fun (name, outcome) ->
        match outcome with
        | Ok (r : E.Durable.recovery_report) ->
          Printf.sprintf "recovered session %s (%d replayed%s)" name r.E.Durable.rc_replayed
            (if r.E.Durable.rc_torn then ", torn tail dropped" else "")
        | Error msg -> Printf.sprintf "quarantined session %s: %s" name msg)
      (Session.recover_existing sessions)
  in
  let listener =
    Option.map
      (fun path ->
        if Sys.file_exists path then
          (try Sys.remove path
           with Sys_error msg -> failwith (Printf.sprintf "serve: cannot replace %s: %s" path msg));
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.bind fd (Unix.ADDR_UNIX path)
         with Unix.Unix_error (e, _, _) ->
           Unix.close fd;
           failwith (Printf.sprintf "serve: cannot bind %s: %s" path (Unix.error_message e)));
        Unix.listen fd 16;
        Unix.set_nonblock fd;
        fd)
      cfg.socket_path
  in
  let t =
    {
      cfg;
      sessions;
      queue = Admission.create ~limit:cfg.queue_limit;
      conns = Hashtbl.create 16;
      next_conn_id = 0;
      listener;
      rbuf = Bytes.create 65536;
      drain_flag = Atomic.make false;
      recovery;
      last_sweep = E.Telemetry.now ();
      next_trace = 0;
      last_phases = None;
    }
  in
  (* a quarantined journal is exactly the post-mortem case the recorder
     exists for: persist whatever recovery left in the ring *)
  if List.exists (fun line -> String.length line >= 11 && String.sub line 0 11 = "quarantined") recovery
  then ignore (dump_flightrec ~data_dir:cfg.data_dir ~reason:"quarantine");
  if cfg.use_stdio then begin
    Unix.set_nonblock Unix.stdin;
    let conn =
      {
        c_id = t.next_conn_id;
        c_in = Unix.stdin;
        c_out = Unix.stdout;
        c_keep_fds = true;
        c_rbuf = Buffer.create 256;
        c_wbuf = Buffer.create 256;
        c_woff = 0;
        c_skip = false;
        c_eof = false;
        c_dribble = false;
        c_gone = false;
      }
    in
    t.next_conn_id <- t.next_conn_id + 1;
    Hashtbl.replace t.conns conn.c_id conn
  end;
  t

let recovery_log t = t.recovery
let request_drain t = Atomic.set t.drain_flag true
let draining t = Atomic.get t.drain_flag

(* ---- connection plumbing ---- *)

let close_conn t conn =
  if not conn.c_gone then begin
    conn.c_gone <- true;
    Hashtbl.remove t.conns conn.c_id;
    if not conn.c_keep_fds then begin
      (try Unix.close conn.c_in with Unix.Unix_error _ -> ());
      if conn.c_out <> conn.c_in then
        try Unix.close conn.c_out with Unix.Unix_error _ -> ()
    end
  end

let pending conn = Buffer.length conn.c_wbuf - conn.c_woff

let try_flush t conn =
  if not conn.c_gone then begin
    (try
       while pending conn > 0 do
         let len = if conn.c_dribble then 1 else min 65536 (pending conn) in
         let chunk = Buffer.sub conn.c_wbuf conn.c_woff len in
         let n = Unix.write_substring conn.c_out chunk 0 len in
         conn.c_woff <- conn.c_woff + n;
         if conn.c_dribble then raise_notrace Exit
       done
     with
    | Exit -> ()
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | Unix.Unix_error _ -> close_conn t conn);
    if (not conn.c_gone) && pending conn = 0 then begin
      Buffer.clear conn.c_wbuf;
      conn.c_woff <- 0
    end
  end

let enqueue_reply t conn line =
  if not conn.c_gone then begin
    E.Telemetry.bump c_replies 1;
    if E.Fault.would_crash "server.reply.drop" then begin
      (* the injected failure: half a reply, then a vanished peer — the
         daemon must shrug, not die on EPIPE *)
      let half = String.sub line 0 (String.length line / 2) in
      (try ignore (Unix.write_substring conn.c_out half 0 (String.length half))
       with Unix.Unix_error _ -> ());
      close_conn t conn
    end
    else begin
      if E.Fault.would_crash "server.reply.slow" then conn.c_dribble <- true;
      Buffer.add_string conn.c_wbuf line;
      Buffer.add_char conn.c_wbuf '\n';
      if pending conn > t.cfg.max_output_bytes then begin
        (* client stopped reading; cut it loose rather than buffer forever *)
        E.Telemetry.bump c_slow_drops 1;
        close_conn t conn
      end
      else try_flush t conn
    end
  end

let enqueue_error t conn ~id ~kind ?retry_after_ms message =
  E.Telemetry.bump c_errors 1;
  enqueue_reply t conn (Protocol.error_reply ~id ~kind ~message ?retry_after_ms ())

(* ---- request execution ---- *)

let now () = E.Telemetry.now ()

let hello_reply t ~id =
  let cfg = t.cfg in
  Protocol.ok_reply ~id
    [
      ("server", Json.Str "egglog-serve");
      ("protocol", Json.Int 1);
      ( "limits",
        Json.Obj
          [
            ("max_input_bytes", Json.Int cfg.max_input_bytes);
            ("node_limit_cap", Json.Int cfg.node_limit_cap);
            ("time_limit_cap_ms", Json.Int cfg.time_limit_cap_ms);
            ("max_jobs", Json.Int cfg.max_jobs);
            ("queue_limit", Json.Int cfg.queue_limit);
            ( "session_node_quota",
              match cfg.session_node_quota with Some q -> Json.Int q | None -> Json.Null );
            ( "session_memory_quota",
              match cfg.session_memory_quota with Some q -> Json.Int q | None -> Json.Null );
            ( "memory_headroom",
              match cfg.memory_headroom with Some h -> Json.Int h | None -> Json.Null );
          ] );
      ("sessions", Json.List (List.map (fun n -> Json.Str n) (Session.live_names t.sessions)));
    ]

let exec_run t (sess : Session.session) ~id ~program ~node_limit ~time_limit_ms ~memory_limit
    ~jobs =
  let cfg = t.cfg in
  let node_budget = min (Option.value node_limit ~default:cfg.node_limit_cap) cfg.node_limit_cap in
  let time_ms = min (Option.value time_limit_ms ~default:cfg.time_limit_cap_ms) cfg.time_limit_cap_ms in
  let total_s = float_of_int time_ms /. 1000. in
  (* The request's modeled-byte budget, clamped by the per-session quota:
     like the node budget, the quota is the server's and requests only
     tighten it. *)
  let mem_budget =
    match (memory_limit, cfg.session_memory_quota) with
    | Some m, Some q -> Some (min m q)
    | Some m, None -> Some m
    | None, q -> q
  in
  (* [max_jobs] caps the search fan-out of every run in the request. *)
  let jobs =
    match jobs with None -> 1 | Some 0 -> cfg.max_jobs | Some j -> min j cfg.max_jobs
  in
  let cmds = E.Frontend.parse_program ~max_bytes:cfg.max_input_bytes program in
  let eng = sess.Session.s_engine in
  let deadline = now () +. total_s in
  (* Clamp the limits a program asks for to the request budget — the budget
     is the server's, programs only tighten it. *)
  let clamp_spec (sp : E.Ast.run_spec) remaining =
    {
      sp with
      E.Ast.run_node_limit =
        Some (match sp.E.Ast.run_node_limit with Some n -> min n node_budget | None -> node_budget);
      run_time_limit =
        Some
          (match sp.E.Ast.run_time_limit with
           | Some s -> Float.min s remaining
           | None -> remaining);
      run_memory_limit =
        (match (sp.E.Ast.run_memory_limit, mem_budget) with
         | Some m, Some b -> Some (min m b)
         | Some m, None -> Some m
         | None, b -> b);
      run_jobs =
        (match sp.E.Ast.run_jobs with
         | None -> Some jobs
         | Some 0 -> Some jobs
         | Some j -> Some (min j jobs));
    }
  in
  let execute () =
    E.Engine.with_transaction eng (fun () ->
      (* injected allocation failure: must roll back and reply, never die *)
      if E.Fault.would_crash "server.oom" then raise Out_of_memory;
      let result =
        E.Engine.collect_reports eng (fun () ->
          List.concat_map
            (fun cmd ->
              let remaining = deadline -. now () in
              if remaining <= 0. then
                Protocol.reject Protocol.Deadline
                  "request exceeded its %d ms deadline; rolled back" time_ms;
              E.Engine.set_session_limits ~node_limit:node_budget ~time_limit:remaining
                ?memory_limit:mem_budget ~jobs eng ();
              let cmd =
                match cmd with
                | E.Ast.Run sp -> E.Ast.Run (clamp_spec sp remaining)
                | c -> c
              in
              E.Engine.run_command eng cmd)
            cmds)
      in
      (* a budgeted stop is partial work: roll the whole request back so the
         session never holds a half-applied program *)
      (match
         List.find_opt
           (fun (r : E.Engine.run_report) ->
             match r.E.Engine.stop_reason with
             | E.Engine.Node_limit _ | E.Engine.Time_limit _ | E.Engine.Memory_limit _ ->
               true
             | _ -> false)
           (snd result)
       with
      | Some r ->
        Protocol.reject Protocol.Budget "run stopped by %s; request rolled back"
          (E.Engine.describe_stop_reason r.E.Engine.stop_reason)
      | None -> ());
      (match cfg.session_node_quota with
      | Some q when E.Engine.total_rows eng > q ->
        Protocol.reject Protocol.Quota
          "session would hold %d tuples, quota is %d; request rolled back"
          (E.Engine.total_rows eng) q
      | _ -> ());
      (match cfg.session_memory_quota with
      | Some q when E.Engine.modeled_bytes eng > q ->
        Protocol.reject Protocol.Quota
          "session would hold %d modeled bytes, quota is %d; request rolled back"
          (E.Engine.modeled_bytes eng) q
      | _ -> ());
      result)
  in
  (* a durable session journals the request as one record before it is
     acknowledged *)
  let outputs, reports =
    match sess.Session.s_durable with
    | Some d ->
      let result =
        E.Durable.run_request d cmds (fun () ->
            let result = execute () in
            E.Fault.hit "server.request.executed";
            result)
      in
      E.Fault.hit "server.request.journaled";
      result
    | None -> execute ()
  in
  sess.Session.s_requests <- sess.Session.s_requests + 1;
  t.last_phases <-
    Some
      (List.fold_left
         (fun acc (r : E.Engine.run_report) ->
           List.fold_left
             (fun (s, a, rb) (it : E.Engine.iteration_stat) ->
               ( s +. it.E.Engine.it_search_seconds,
                 a +. it.E.Engine.it_apply_seconds,
                 rb +. it.E.Engine.it_rebuild_seconds ))
             acc r.E.Engine.iterations)
         (0., 0., 0.) reports);
  let iterations =
    List.fold_left
      (fun acc (r : E.Engine.run_report) -> acc + List.length r.E.Engine.iterations)
      0 reports
  in
  Protocol.ok_reply ~id
    [
      ("outputs", Json.List (List.map (fun s -> Json.Str s) outputs));
      ("rows", Json.Int (E.Engine.total_rows eng));
      ("classes", Json.Int (E.Engine.n_classes eng));
      ("iterations", Json.Int iterations);
    ]

(* Global admission control: when the modeled footprint of all live sessions
   exceeds the headroom cap, shed the largest idle sessions
   (checkpoint-then-evict, deterministic victim order) and, if the footprint
   is still over the cap, refuse the request with a retry hint rather than
   letting the daemon grow without bound. The requester's own session is
   never evicted from under its request. The fault "server.memory.pressure"
   forces a zero cap so tests can exercise eviction and the overload reply
   without allocating real memory. *)
let enforce_headroom t ~keep =
  let cap =
    if E.Fault.would_crash "server.memory.pressure" then Some 0 else t.cfg.memory_headroom
  in
  match cap with
  | None -> ()
  | Some cap ->
    if Session.total_bytes t.sessions > cap then begin
      let evicted = Session.evict_largest t.sessions ~keep ~target_bytes:cap in
      if evicted <> [] then
        E.Telemetry.instant "server.memory.pressure"
          [
            ("evicted", Json.List (List.map (fun n -> Json.Str n) evicted));
            ("headroom_bytes", Json.Int cap);
          ];
      let still = Session.total_bytes t.sessions in
      if still > cap then
        Protocol.reject Protocol.Overload ~retry_after_ms:t.cfg.retry_after_ms
          "global memory headroom exhausted (%d modeled bytes, cap %d)" still cap
    end

let session_fields (sess : Session.session) =
  [
    ("session", Json.Str sess.Session.s_name);
    ("durable", Json.Bool (sess.Session.s_durable <> None));
    ("rows", Json.Int (E.Engine.total_rows sess.Session.s_engine));
  ]

(* ---- metrics rendering ---- *)

let memory_json t =
  (* modeled bytes are the governed quantity; Gc numbers ride along as
     telemetry-only backstop (see docs/INTERNALS.md) *)
  let gc = Gc.quick_stat () in
  let word_bytes = Sys.word_size / 8 in
  let opt_int = function Some v -> Json.Int v | None -> Json.Null in
  Json.Obj
    [
      ("modeled_bytes", Json.Int (Session.total_bytes t.sessions));
      ("live_sessions", Json.Int (Session.live_count t.sessions));
      ("session_memory_quota", opt_int t.cfg.session_memory_quota);
      ("memory_headroom", opt_int t.cfg.memory_headroom);
      ("top_heap_bytes", Json.Int (gc.Gc.top_heap_words * word_bytes));
      ("heap_bytes", Json.Int (gc.Gc.heap_words * word_bytes));
    ]

(* Each session reported from its own state (request count, private
   latency histogram, modeled bytes, eviction churn) — never from the
   global telemetry registry, so sessions cannot pollute each other. *)
let sessions_json t =
  Json.Obj
    (List.map
       (fun (name, (st : Session.session_stat)) ->
         ( name,
           Json.Obj
             [
               ("requests", Json.Int st.Session.st_requests);
               ("modeled_bytes", Json.Int st.Session.st_bytes);
               ("durable", Json.Bool st.Session.st_durable);
               ("evictions", Json.Int st.Session.st_evictions);
               ("latency", E.Telemetry.hist_snap_to_json st.Session.st_latency);
             ] ))
       (Session.per_session_stats t.sessions))

let prometheus_text t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (E.Telemetry.prometheus_of_snapshot (E.Telemetry.snapshot ()));
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let gc = Gc.quick_stat () in
  let word_bytes = Sys.word_size / 8 in
  line "# TYPE egglog_server_modeled_bytes gauge";
  line "egglog_server_modeled_bytes %d" (Session.total_bytes t.sessions);
  line "# TYPE egglog_server_live_sessions gauge";
  line "egglog_server_live_sessions %d" (Session.live_count t.sessions);
  line "# TYPE egglog_server_heap_bytes gauge";
  line "egglog_server_heap_bytes %d" (gc.Gc.heap_words * word_bytes);
  line "# TYPE egglog_server_top_heap_bytes gauge";
  line "egglog_server_top_heap_bytes %d" (gc.Gc.top_heap_words * word_bytes);
  (* per-session series; session names are [A-Za-z0-9_-] so the label
     value never needs escaping *)
  let stats = Session.per_session_stats t.sessions in
  line "# TYPE egglog_session_requests_total counter";
  List.iter
    (fun (name, (st : Session.session_stat)) ->
      line "egglog_session_requests_total{session=%S} %d" name st.Session.st_requests)
    stats;
  line "# TYPE egglog_session_modeled_bytes gauge";
  List.iter
    (fun (name, (st : Session.session_stat)) ->
      line "egglog_session_modeled_bytes{session=%S} %d" name st.Session.st_bytes)
    stats;
  line "# TYPE egglog_session_evictions_total counter";
  List.iter
    (fun (name, (st : Session.session_stat)) ->
      line "egglog_session_evictions_total{session=%S} %d" name st.Session.st_evictions)
    stats;
  line "# TYPE egglog_session_request_seconds summary";
  (* quantiles and sums are finite, so the JSON rendering (the shortest
     decimal that parses back exactly) is a valid sample value *)
  let num x = Json.to_string (Json.Float x) in
  List.iter
    (fun (name, (st : Session.session_stat)) ->
      let hs = st.Session.st_latency in
      if hs.E.Telemetry.hs_count > 0 then begin
        line "egglog_session_request_seconds{session=%S,quantile=\"0.5\"} %s" name
          (num (E.Telemetry.hist_snap_quantile hs 0.5));
        line "egglog_session_request_seconds{session=%S,quantile=\"0.99\"} %s" name
          (num (E.Telemetry.hist_snap_quantile hs 0.99))
      end;
      line "egglog_session_request_seconds_count{session=%S} %d" name hs.E.Telemetry.hs_count;
      line "egglog_session_request_seconds_sum{session=%S} %s" name (num hs.E.Telemetry.hs_sum))
    stats;
  Buffer.contents buf

let op_name = function
  | Protocol.Ping -> "ping"
  | Protocol.Hello -> "hello"
  | Protocol.Open_session _ -> "open-session"
  | Protocol.Run _ -> "run"
  | Protocol.Dump -> "dump"
  | Protocol.Stats -> "stats"
  | Protocol.Close_session -> "close-session"
  | Protocol.Metrics _ -> "metrics"
  | Protocol.Dump_flightrec -> "dump-flightrec"

(* One JSONL entry per offending request: everything needed to replay or
   diagnose it — program, budgets, phase breakdown, recent trace tail. *)
let slow_log_write t (rq : Protocol.request) ~tid ~dur_s =
  E.Telemetry.bump c_slow_requests 1;
  let tail =
    let events = E.Telemetry.flightrec_events () in
    let skip = max 0 (List.length events - 16) in
    List.filteri (fun i _ -> i >= skip) events
    |> List.filter_map (fun l -> try Some (Json.parse l) with Json.Parse_error _ -> None)
  in
  let budgets_and_program =
    match rq.Protocol.rq_op with
    | Protocol.Run { program; node_limit; time_limit_ms; memory_limit; jobs } ->
      let opt = function Some v -> Json.Int v | None -> Json.Null in
      [
        ("program", Json.Str program);
        ( "budgets",
          Json.Obj
            [
              ("node_limit", opt node_limit);
              ("time_limit_ms", opt time_limit_ms);
              ("memory_limit", opt memory_limit);
              ("jobs", opt jobs);
            ] );
      ]
    | _ -> []
  in
  let phases =
    match t.last_phases with
    | Some (s, a, r) ->
      [
        ( "phases",
          Json.Obj
            [
              ("search_s", Json.Float s);
              ("apply_s", Json.Float a);
              ("rebuild_s", Json.Float r);
            ] );
      ]
    | None -> []
  in
  let entry =
    Json.Obj
      ([
         ("ts", Json.Float (Unix.gettimeofday ()));
         ("trace_id", Json.Str tid);
         ("id", rq.Protocol.rq_id);
         ( "session",
           match rq.Protocol.rq_session with Some s -> Json.Str s | None -> Json.Null );
         ("op", Json.Str (op_name rq.Protocol.rq_op));
         ("dur_ms", Json.Float (dur_s *. 1000.));
       ]
      @ budgets_and_program @ phases
      @ [ ("flightrec_tail", Json.List tail) ])
  in
  let line = Json.to_string entry in
  match t.cfg.data_dir with
  | Some dir -> (
    let path = Filename.concat dir "slowlog.jsonl" in
    try
      Out_channel.with_open_gen
        [ Open_append; Open_creat; Open_wronly ]
        0o644 path
        (fun oc ->
          Out_channel.output_string oc line;
          Out_channel.output_char oc '\n')
    with Sys_error _ -> ())
  | None -> prerr_endline ("slow-request: " ^ line)

let next_trace_id t =
  let n = t.next_trace in
  t.next_trace <- n + 1;
  Printf.sprintf "t-%06d" n

let execute t (rq : Protocol.request) =
  let id = rq.Protocol.rq_id in
  E.Telemetry.bump c_requests 1;
  t.last_phases <- None;
  let tid = next_trace_id t in
  E.Telemetry.with_trace_id tid @@ fun () ->
  let t_start = now () in
  let reply =
  E.Telemetry.span "server.request" (fun () ->
    match
      (match rq.Protocol.rq_op with
      | Protocol.Ping -> Protocol.ok_reply ~id []
      | Protocol.Hello -> hello_reply t ~id
      | Protocol.Metrics { prometheus } ->
        if prometheus then Protocol.ok_reply ~id [ ("prometheus", Json.Str (prometheus_text t)) ]
        else
          Protocol.ok_reply ~id
            [
              ("metrics", E.Telemetry.snapshot_to_json (E.Telemetry.snapshot ()));
              ("sessions", sessions_json t);
              ( "quarantined",
                Json.List
                  (List.map (fun n -> Json.Str n) (Session.quarantined_names t.sessions)) );
              ("memory", memory_json t);
            ]
      | Protocol.Dump_flightrec ->
        let parsed =
          List.filter_map
            (fun l -> try Some (Json.parse l) with Json.Parse_error _ -> None)
            (E.Telemetry.flightrec_events ())
        in
        let path =
          match t.cfg.data_dir with
          | None -> Json.Null
          | Some _ -> (
            match dump_flightrec ~data_dir:t.cfg.data_dir ~reason:"on-demand" with
            | Some (p, _) -> Json.Str p
            | None -> Json.Null)
        in
        Protocol.ok_reply ~id [ ("events", Json.List parsed); ("path", path) ]
      | op ->
        let name =
          match rq.Protocol.rq_session with
          | Some n -> n
          | None -> Protocol.reject Protocol.Malformed_frame "this op needs a \"session\" field"
        in
        (match op with
        | Protocol.Ping | Protocol.Hello | Protocol.Metrics _ | Protocol.Dump_flightrec ->
          assert false
        | Protocol.Close_session ->
          Protocol.ok_reply ~id
            [ ("closed", Json.Bool (Session.close t.sessions ~name)) ]
        | Protocol.Open_session { durable } ->
          let sess = Session.lookup t.sessions ~name ~durable ~now:(now ()) in
          Protocol.ok_reply ~id (session_fields sess)
        | Protocol.Run { program; node_limit; time_limit_ms; memory_limit; jobs } ->
          enforce_headroom t ~keep:name;
          let sess = Session.lookup t.sessions ~name ~durable:false ~now:(now ()) in
          exec_run t sess ~id ~program ~node_limit ~time_limit_ms ~memory_limit ~jobs
        | Protocol.Dump ->
          let sess = Session.lookup t.sessions ~name ~durable:false ~now:(now ()) in
          Protocol.ok_reply ~id
            [ ("dump", Json.Str (E.Serialize.dump_string sess.Session.s_engine)) ]
        | Protocol.Stats ->
          let sess = Session.lookup t.sessions ~name ~durable:false ~now:(now ()) in
          Protocol.ok_reply ~id
            (session_fields sess
            @ [
                ("classes", Json.Int (E.Engine.n_classes sess.Session.s_engine));
                ("requests", Json.Int sess.Session.s_requests);
                ("scope_depth", Json.Int (E.Engine.scope_depth sess.Session.s_engine));
              ])))
    with
    | reply -> reply
    | exception (E.Fault.Crash _ as e) -> raise e  (* simulated crash: die loudly *)
    | exception ((Out_of_memory | Stack_overflow) as e) ->
      (* the allocator (or the stack) gave out mid-request. with_transaction
         already restored the session's pre-request state on the way up, by
         replaying the request's undo trail, which then drops its entries;
         compact to actually return freed memory, then answer with a typed
         error — the daemon and every other session live on. *)
      (try Gc.compact () with Out_of_memory -> ());
      ignore (dump_flightrec ~data_dir:t.cfg.data_dir ~reason:"out-of-memory");
      E.Telemetry.bump c_errors 1;
      Protocol.error_reply ~id ~kind:Protocol.Memory
        ~message:
          (Printf.sprintf "%s while executing the request; session rolled back"
             (match e with Out_of_memory -> "out of memory" | _ -> "stack overflow"))
        ()
    | exception E.Engine.Egglog_error msg ->
      E.Telemetry.bump c_errors 1;
      Protocol.error_reply ~id ~kind:Protocol.Engine_error ~message:msg ()
    | exception E.Frontend.Syntax_error msg ->
      E.Telemetry.bump c_errors 1;
      Protocol.error_reply ~id ~kind:Protocol.Parse_error ~message:msg ()
    | exception Sexpr.Parse_error { line; col; message } ->
      E.Telemetry.bump c_errors 1;
      Protocol.error_reply ~id ~kind:Protocol.Parse_error
        ~message:(Printf.sprintf "%d:%d: %s" line col message)
        ()
    | exception E.Frontend.Input_too_large { bytes; limit } ->
      E.Telemetry.bump c_errors 1;
      Protocol.error_reply ~id ~kind:Protocol.Too_large
        ~message:(Printf.sprintf "program is %d bytes, limit is %d" bytes limit)
        ()
    | exception e ->
      (* reject_reply renders Reject as its typed kind, anything else as
         internal — either way the client gets a diagnosis, not a hangup *)
      E.Telemetry.bump c_errors 1;
      Protocol.reject_reply ~id e)
  in
  let dur_s = now () -. t_start in
  (match rq.Protocol.rq_session with
  | Some name -> Session.note_latency t.sessions ~name dur_s
  | None -> ());
  (match t.cfg.slow_log_ms with
  | Some thr when dur_s *. 1000. >= float_of_int thr -> slow_log_write t rq ~tid ~dur_s
  | _ -> ());
  reply

(* ---- framing ---- *)

let is_blank line = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') line

let handle_frame t conn line =
  if not (is_blank line) then begin
    if String.length line > t.cfg.max_input_bytes then begin
      enqueue_error t conn ~id:(Protocol.frame_id line) ~kind:Protocol.Too_large
        (Printf.sprintf "frame is %d bytes, limit is %d" (String.length line)
           t.cfg.max_input_bytes)
    end
    else
      match Protocol.parse_request line with
      | exception Protocol.Reject { kind; message; retry_after_ms } ->
        enqueue_error t conn ~id:(Protocol.frame_id line) ~kind ?retry_after_ms message
      | rq ->
        let id = rq.Protocol.rq_id in
        if draining t then
          enqueue_error t conn ~id ~kind:Protocol.Shutting_down "daemon is draining"
        else if not (Protocol.needs_session rq.Protocol.rq_op) then
          (* control-plane ops answer immediately, ahead of the queue *)
          enqueue_reply t conn (execute t rq)
        else if Admission.offer t.queue (conn.c_id, rq) then ()
        else begin
          E.Telemetry.bump c_sheds 1;
          enqueue_error t conn ~id ~kind:Protocol.Overload
            ~retry_after_ms:t.cfg.retry_after_ms
            (Printf.sprintf "admission queue full (%d queued)" (Admission.limit t.queue))
        end
  end

let take_tail conn =
  let line = Buffer.contents conn.c_rbuf in
  Buffer.clear conn.c_rbuf;
  line

(* Frames are split in the bytes just read, [0, n) of the server's one
   read buffer: each byte is scanned once and copied at most twice (into
   the connection's tail, then out as a frame). The search must stop at
   [n]: past it lie stale bytes of an earlier read. An oversized tail gets
   its too-large reply immediately and is discarded up to the next
   newline, so a hostile client cannot balloon the buffer. *)
let split_frames t conn n =
  let buf = t.rbuf in
  let rec newline i = if i >= n || Bytes.unsafe_get buf i = '\n' then i else newline (i + 1) in
  let rec go pos =
    let nl = newline pos in
    if nl < n then begin
      if conn.c_skip then conn.c_skip <- false
      else if Buffer.length conn.c_rbuf = 0 then
        handle_frame t conn (Bytes.sub_string buf pos (nl - pos))
      else begin
        Buffer.add_subbytes conn.c_rbuf buf pos (nl - pos);
        handle_frame t conn (take_tail conn)
      end;
      go (nl + 1)
    end
    else if not conn.c_skip then begin
      Buffer.add_subbytes conn.c_rbuf buf pos (n - pos);
      if Buffer.length conn.c_rbuf > t.cfg.max_input_bytes then begin
        Buffer.reset conn.c_rbuf;
        enqueue_error t conn ~id:Json.Null ~kind:Protocol.Too_large
          (Printf.sprintf "frame exceeds %d bytes" t.cfg.max_input_bytes);
        conn.c_skip <- true
      end
    end
  in
  go 0

let read_conn t conn =
  match Unix.read conn.c_in t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 ->
    conn.c_eof <- true;
    (* at EOF an unterminated tail is the last frame: end it *)
    if Buffer.length conn.c_rbuf > 0 then handle_frame t conn (take_tail conn)
  | n -> split_frames t conn n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ ->
    (* a broken connection: its tail is no frame, and the reaper waits for
       an empty tail *)
    Buffer.reset conn.c_rbuf;
    conn.c_eof <- true

let accept_new t listener =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true listener with
    | fd, _ ->
      Unix.set_nonblock fd;
      let conn =
        {
          c_id = t.next_conn_id;
          c_in = fd;
          c_out = fd;
          c_keep_fds = false;
          c_rbuf = Buffer.create 256;
          c_wbuf = Buffer.create 256;
          c_woff = 0;
          c_skip = false;
          c_eof = false;
          c_dribble = false;
          c_gone = false;
        }
      in
      t.next_conn_id <- t.next_conn_id + 1;
      Hashtbl.replace t.conns conn.c_id conn;
      E.Telemetry.bump c_conns 1
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

(* ---- the loop ---- *)

let all_conns t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []

let tick t =
  let conns = all_conns t in
  let reads =
    (match t.listener with Some fd when not (draining t) -> [ fd ] | _ -> [])
    @ List.filter_map (fun c -> if c.c_eof || c.c_gone then None else Some c.c_in) conns
  in
  let writes = List.filter_map (fun c -> if pending c > 0 then Some c.c_out else None) conns in
  let timeout =
    if not (Admission.is_empty t.queue) then 0.
    else if List.exists (fun c -> c.c_dribble && pending c > 0) conns then 0.002
    else 0.05
  in
  let r, w, _ =
    try Unix.select reads writes [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  (match t.listener with
  | Some fd when List.memq fd r -> accept_new t fd
  | _ -> ());
  List.iter (fun c -> if (not c.c_gone) && List.memq c.c_in r then read_conn t c) conns;
  (* execute exactly one queued request per tick: a pipelined burst hits
     admission together and sheds deterministically, and the loop gets back
     to the sockets between requests *)
  (match Admission.take t.queue with
  | Some (conn_id, rq) -> (
    match Hashtbl.find_opt t.conns conn_id with
    | Some conn -> enqueue_reply t conn (execute t rq)
    | None -> () (* client is gone; its request dies with it *))
  | None -> ());
  List.iter
    (fun c ->
      if (not c.c_gone) && (List.memq c.c_out w || (c.c_dribble && pending c > 0)) then
        try_flush t c)
    conns;
  (* reap connections that are done: read to EOF, every reply flushed and
     none of their requests still waiting in the queue *)
  List.iter
    (fun c ->
      if
        (not c.c_gone) && c.c_eof && pending c = 0 && Buffer.length c.c_rbuf = 0
        && not (Admission.exists (fun (conn_id, _) -> conn_id = c.c_id) t.queue)
      then begin
        (* stdin EOF in pipe mode means "that was the whole job": drain *)
        if c.c_keep_fds && t.listener = None then request_drain t;
        close_conn t c
      end)
    conns;
  match t.cfg.idle_timeout_s with
  | Some idle when now () -. t.last_sweep > 1.0 ->
    t.last_sweep <- now ();
    ignore (Session.evict_idle t.sessions ~now:(now ()) ~idle_timeout:idle)
  | _ -> ()

let drain_now t =
  (* shed everything still queued, with an explicit reason *)
  List.iter
    (fun (conn_id, (rq : Protocol.request)) ->
      match Hashtbl.find_opt t.conns conn_id with
      | Some conn ->
        enqueue_error t conn ~id:rq.Protocol.rq_id ~kind:Protocol.Shutting_down
          "daemon is draining"
      | None -> ())
    (Admission.drain t.queue);
  (* bounded flush: best effort, never a hang *)
  let deadline = now () +. 2.0 in
  let unflushed () = List.filter (fun c -> pending c > 0) (all_conns t) in
  let rec flush_loop () =
    match unflushed () with
    | [] -> ()
    | cs when now () < deadline ->
      (match Unix.select [] (List.map (fun c -> c.c_out) cs) [] 0.05 with
      | _, w, _ ->
        List.iter (fun c -> if List.memq c.c_out w || c.c_dribble then try_flush t c) cs
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      flush_loop ()
    | _ -> ()
  in
  flush_loop ();
  Session.drain t.sessions;
  List.iter (fun c -> close_conn t c) (all_conns t);
  (match t.listener with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) t.cfg.socket_path

let run t =
  E.Telemetry.instant "server.start"
    [
      ("sessions", Json.Int (Session.live_count t.sessions));
      ("recovery", Json.List (List.map (fun s -> Json.Str s) t.recovery));
    ];
  (try
     while not (draining t) do
       tick t
     done
   with e ->
     (* fatal: persist the recorder before dying so the crash leaves a
        post-mortem artifact (the ring tail carries the crashing
        request's trace id). The exception still propagates — exit codes
        and fault semantics are unchanged. *)
     ignore (dump_flightrec ~data_dir:t.cfg.data_dir ~reason:"crash");
     (* the CLI's error ladder also dumps the ring on Fault.Crash as a
        batch-mode fallback, and telemetry teardown still flushes counters
        into the ring on the way out; capture is done — turn the recorder
        off so the daemon path writes exactly one artifact *)
     E.Telemetry.flightrec_configure ~capacity:0;
     raise e);
  drain_now t;
  E.Telemetry.instant "server.stop" [];
  (* drain is a deliberate stopping point too: keep the tail around for
     whoever asks "what was it doing just before the SIGTERM?" *)
  if t.cfg.data_dir <> None then
    ignore (dump_flightrec ~data_dir:t.cfg.data_dir ~reason:"drain")
