(* The egglog command-line tool: run .egg programs or an interactive REPL
   (the language-based design of §5.2), optionally under a write-ahead
   journal with periodic checkpoints (--journal / --checkpoint-every) and
   crash recovery (--recover). *)

let make_engine ~seminaive ~backoff ~node_limit ~time_limit ~memory_limit =
  let scheduler = if backoff then Egglog.Engine.backoff_default else Egglog.Engine.Simple in
  Egglog.Engine.create ~seminaive ~scheduler ?node_limit ?time_limit ?memory_limit ()

(* Every mode funnels through one exception ladder so each failure class
   has one message shape and one exit code. A simulated crash (fault
   injection) exits 70 so the recovery harness can tell "crashed as
   scheduled" from both success and real errors. *)
let with_errors ~where f =
  match f () with
  | code -> code
  | exception Egglog.Fault.Crash point ->
    Printf.eprintf "simulated crash at %s\n" point;
    (* leave a post-mortem artifact when the flight recorder saw anything
       (i.e. telemetry was on); the daemon clears the ring after its own
       dump, so this is the batch/REPL fallback, not a duplicate *)
    (let path =
       Printf.sprintf "flightrec-%d.jsonl" (int_of_float (Unix.gettimeofday () *. 1000.))
     in
     match Egglog.Telemetry.flightrec_dump ~path with
     | 0 -> ()
     | n -> Printf.eprintf "flight recorder: %d event(s) dumped to %s\n" n path);
    70
  | exception Egglog.Egglog_error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | exception Sexpr.Parse_error { line; col; message } ->
    Printf.eprintf "%s:%d:%d: parse error: %s\n" where line col message;
    1
  | exception Egglog.Frontend.Syntax_error msg ->
    Printf.eprintf "%s: syntax error: %s\n" where msg;
    1
  | exception Egglog.Serialize.Load_error msg ->
    Printf.eprintf "snapshot error: %s\n" msg;
    1
  | exception Egglog.Journal.Journal_error msg ->
    Printf.eprintf "journal error: %s\n" msg;
    1
  | exception Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  (* Catch-all: an internal failure must produce a diagnostic and a clean
     nonzero exit, never an uncaught-exception crash. *)
  | exception e ->
    Printf.eprintf "internal error: %s\n" (Printexc.to_string e);
    1

(* --stats: the engine phase split first — "other" is the iteration time not
   attributed to search/apply/rebuild, so the four lines sum to the total by
   construction — then the generic histogram/counter tables. *)
let print_stats () =
  let snap = Egglog.Telemetry.snapshot () in
  let hist name = List.assoc_opt name snap.Egglog.Telemetry.sn_hists in
  (match hist "engine.iteration_s" with
   | Some it ->
     let phase n =
       match hist n with Some h -> h.Egglog.Telemetry.hs_sum | None -> 0.0
     in
     let search = phase "engine.search_s"
     and apply = phase "engine.apply_s"
     and rebuild = phase "engine.rebuild_s" in
     let total = it.Egglog.Telemetry.hs_sum in
     let other = Float.max 0.0 (total -. (search +. apply +. rebuild)) in
     Printf.printf "run phases (%d iteration(s), %.6fs total):\n"
       it.Egglog.Telemetry.hs_count total;
     Printf.printf "  search   %9.6fs\n" search;
     Printf.printf "  apply    %9.6fs\n" apply;
     Printf.printf "  rebuild  %9.6fs\n" rebuild;
     Printf.printf "  other    %9.6fs\n" other
   | None -> ());
  Egglog.Telemetry.pp_table Format.std_formatter snap;
  Format.pp_print_flush Format.std_formatter ()

(* Turn telemetry on around the whole program when --trace or --stats asks
   for it, and always flush/close on the way out — including on error paths,
   so a partial trace of a failing run is still on disk to read. *)
let with_telemetry ~trace ~stats f =
  if trace = None && not stats then f ()
  else begin
    let oc = Option.map open_out trace in
    let sink =
      match oc with
      | Some oc -> Some (fun line -> output_string oc line; output_char oc '\n')
      | None -> None
    in
    Egglog.Telemetry.enable ?sink ();
    Fun.protect
      ~finally:(fun () ->
        Egglog.Telemetry.flush_counters ();
        Egglog.Telemetry.disable ();
        Option.iter close_out oc)
      f
  end

let write_dump eng = function
  | Some out_path ->
    Egglog.Serialize.write_snapshot eng out_path;
    Printf.printf "dumped database to %s\n" out_path
  | None -> ()

let print_report (r : Egglog.Durable.recovery_report) =
  List.iter (fun w -> Printf.eprintf "warning: %s\n" w) r.rc_warnings;
  Printf.printf "recovered %d committed request(s): %s, %d replayed from the journal%s\n"
    r.rc_committed
    (match r.rc_checkpoint with
     | Some seq -> Printf.sprintf "checkpoint generation %d" seq
     | None -> "no checkpoint")
    r.rc_replayed
    (if r.rc_torn then "; dropped a torn trailing record" else "")

(* Under a journal every command is its own one-command request. *)
let run_commands ?durable eng cmds =
  match durable with
  | Some d ->
    List.concat_map
      (fun c -> Egglog.Durable.run_request d [ c ] (fun () -> Egglog.Engine.run_command eng c))
      cmds
  | None -> Egglog.Engine.run_program eng cmds

let run_file ~seminaive ~backoff ~node_limit ~time_limit ~memory_limit ~journal
    ~checkpoint_every ~load ~dump ~trace ~stats ~explain_plans path =
  with_errors ~where:path (fun () ->
      let eng = make_engine ~seminaive ~backoff ~node_limit ~time_limit ~memory_limit in
      let src = In_channel.with_open_text path In_channel.input_all in
      let cmds = Egglog.Frontend.parse_program src in
      let outputs =
        with_telemetry ~trace ~stats (fun () ->
            match journal with
            | Some journal_path ->
              let d = Egglog.Durable.attach eng ~journal_path ~checkpoint_every in
              Fun.protect
                ~finally:(fun () -> Egglog.Durable.close d)
                (fun () -> run_commands ~durable:d eng cmds)
            | None -> run_commands eng cmds)
      in
      (* Snapshots carry data, not declarations: FILE must (re)declare the
         schema — and add no data of its own — before the snapshot loads. *)
      (match load with
       | Some snap_path -> Egglog.Serialize.load_snapshot eng snap_path
       | None -> ());
      List.iter print_endline outputs;
      if explain_plans then print_string (Egglog.Engine.explain_plans eng);
      write_dump eng dump;
      if stats then print_stats ();
      0)

let repl ?durable eng =
  Printf.printf "egglog repl — enter commands, ctrl-d to exit\n%!";
  let exec src = run_commands ?durable eng (Egglog.Frontend.parse_program src) in
  let rec loop buffer =
    Printf.printf "%s %!" (if buffer = "" then ">" else "...");
    match In_channel.input_line stdin with
    | None ->
      (match durable with Some d -> Egglog.Durable.close d | None -> ());
      0
    | Some line -> (
      let src = buffer ^ "\n" ^ line in
      (* Parens inside strings and comments do not count; a stray ')'
         resets the buffer with an error instead of evaluating. *)
      match Egglog.Frontend.paren_balance src with
      | Egglog.Frontend.Incomplete -> loop src
      | Egglog.Frontend.Unbalanced ->
        Printf.printf "error: unbalanced ')'\n";
        loop ""
      | Egglog.Frontend.Balanced ->
        (* Commands are transactional, so after any error — including an
           internal one — the engine state is intact and the session can
           continue. A simulated crash is the one exception: it must
           propagate and kill the process, that is its job. *)
        (match exec src with
         | outputs -> List.iter print_endline outputs
         | exception (Egglog.Fault.Crash _ as e) -> raise e
         | exception Egglog.Egglog_error msg -> Printf.printf "error: %s\n" msg
         | exception Sexpr.Parse_error { message; _ } -> Printf.printf "parse error: %s\n" message
         | exception Egglog.Frontend.Syntax_error msg -> Printf.printf "syntax error: %s\n" msg
         | exception Egglog.Journal.Journal_error msg -> Printf.printf "journal error: %s\n" msg
         | exception e -> Printf.printf "internal error: %s\n" (Printexc.to_string e));
        loop "")
  in
  loop ""

let repl_mode ~seminaive ~backoff ~node_limit ~time_limit ~memory_limit ~journal
    ~checkpoint_every ~recover ~dump ~trace ~stats () =
  with_errors
    ~where:(match journal with Some j -> j | None -> "<repl>")
    (fun () ->
      let eng = make_engine ~seminaive ~backoff ~node_limit ~time_limit ~memory_limit in
      let session f =
        let code = with_telemetry ~trace ~stats f in
        if stats then print_stats ();
        code
      in
      match journal with
      | None -> session (fun () -> repl eng)
      | Some journal_path when not recover ->
        let d = Egglog.Durable.attach eng ~journal_path ~checkpoint_every in
        session (fun () -> repl ~durable:d eng)
      | Some journal_path ->
        session (fun () ->
            let d, report = Egglog.Durable.recover eng ~journal_path ~checkpoint_every in
            print_report report;
            write_dump eng dump;
            (* Recover-and-exit when scripted (the CI harness dumps and diffs);
               recover-and-continue when a human is attached. *)
            if Unix.isatty Unix.stdin then repl ~durable:d eng
            else begin
              Egglog.Durable.close d;
              0
            end))

(* `egglog serve`: the multi-session daemon. Telemetry is always on (the
   `metrics` op reports it); --trace additionally streams the event log.
   SIGTERM/SIGINT request a graceful drain: the in-flight request finishes
   (or rolls back), queued requests are shed with shutting-down replies,
   durable sessions are checkpointed and closed, the socket file is
   removed, and the process exits 0. A simulated crash (--fault) exits 70
   like every other mode. *)
let serve_daemon ~cfg ~fault ~trace =
  with_errors ~where:"serve" (fun () ->
      (match fault with Some (point, n) -> Egglog.Fault.arm_nth point n | None -> ());
      let oc = Option.map open_out trace in
      let sink =
        Option.map (fun oc line -> output_string oc line; output_char oc '\n') oc
      in
      Egglog.Telemetry.enable ?sink ();
      Fun.protect
        ~finally:(fun () ->
          Egglog.Telemetry.flush_counters ();
          Egglog.Telemetry.disable ();
          Option.iter close_out oc)
        (fun () ->
          let srv = Egglog_server.Serve.create cfg in
          List.iter
            (fun l -> Printf.eprintf "%s\n%!" l)
            (Egglog_server.Serve.recovery_log srv);
          let stop _ = Egglog_server.Serve.request_drain srv in
          ignore (Sys.signal Sys.sigterm (Sys.Signal_handle stop));
          ignore (Sys.signal Sys.sigint (Sys.Signal_handle stop));
          (* a peer that hangs up mid-write must surface as EPIPE, not kill us *)
          ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
          Egglog_server.Serve.run srv;
          0))

let () =
  let open Cmdliner in
  let positive_int ~what =
    let parse s =
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok n
      | Some n -> Error (`Msg (Printf.sprintf "%s must be a positive integer, got %d" what n))
      | None -> Error (`Msg (Printf.sprintf "%s must be a positive integer, got %S" what s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let positive_float ~what =
    let parse s =
      match float_of_string_opt s with
      | Some x when x > 0.0 -> Ok x
      | Some _ -> Error (`Msg (Printf.sprintf "%s must be a positive number of seconds" what))
      | None -> Error (`Msg (Printf.sprintf "%s must be a number of seconds, got %S" what s))
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  let fault_point =
    let parse s =
      match String.rindex_opt s ':' with
      | Some i when i > 0 -> (
        let point = String.sub s 0 i in
        let n = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt n with
        | Some n when n >= 1 -> Ok (point, n)
        | _ -> Error (`Msg "expected POINT:N with N a positive occurrence index"))
      | _ -> Error (`Msg "expected POINT:N (e.g. journal.append.torn:2)")
    in
    Arg.conv (parse, fun fmt (p, n) -> Format.fprintf fmt "%s:%d" p n)
  in
  let file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"egglog program to run")
  in
  let no_seminaive =
    Arg.(value & flag & info [ "no-seminaive" ] ~doc:"Disable semi-naïve evaluation (egglogNI)")
  in
  let backoff =
    Arg.(value & flag & info [ "backoff" ] ~doc:"Use the BackOff rule scheduler (as in egg)")
  in
  let node_limit =
    Arg.(value & opt (some (positive_int ~what:"--node-limit")) None
         & info [ "node-limit" ] ~docv:"N"
             ~doc:"Stop any run once the database exceeds N tuples (per-command :node-limit overrides)")
  in
  let time_limit =
    Arg.(value & opt (some (positive_float ~what:"--time-limit")) None
         & info [ "time-limit" ] ~docv:"SECONDS"
             ~doc:"Stop any run after SECONDS of wall-clock time (per-command :time-limit overrides)")
  in
  let memory_limit =
    Arg.(value & opt (some (positive_int ~what:"--memory-limit")) None
         & info [ "memory-limit" ] ~docv:"BYTES"
             ~doc:"Stop any run once the modeled database footprint exceeds BYTES \
                   (per-command :memory-limit overrides). Deterministic: enforced against \
                   the engine's modeled byte count, not allocator state, so the same \
                   program stops at the same iteration on every run")
  in
  let journal =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"JOURNAL"
           ~doc:"Record every committed command that can change state to this write-ahead journal, one fsync'd record each ($(b,check) and $(b,print-*) are not recorded); recover after a crash with $(b,--recover)")
  in
  let checkpoint_every =
    Arg.(value & opt (some (positive_int ~what:"--checkpoint-every")) None
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"With $(b,--journal): write an atomic checkpoint and truncate the journal after every N records")
  in
  let recover =
    Arg.(value & flag & info [ "recover" ]
           ~doc:"Recover state from $(b,--journal)'s newest checkpoint plus journal replay, report what was restored, then continue (REPL on a terminal, exit otherwise)")
  in
  let fault =
    Arg.(value & opt (some fault_point) None & info [ "fault" ] ~docv:"POINT:N"
           ~doc:"Deterministic fault injection for testing: simulate a crash (exit 70) at the N-th hit of the named injection point, e.g. journal.append.torn:2")
  in
  let load =
    Arg.(value & opt (some string) None & info [ "load" ] ~docv:"SNAPSHOT"
           ~doc:"Load a database snapshot (produced by --dump) after running FILE; FILE must declare the schema and add no data")
  in
  let dump =
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"SNAPSHOT"
           ~doc:"Dump the final database to this file (atomic write; versioned, checksummed format)")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.jsonl"
           ~doc:"Write a structured trace of the run (span begin/end, scheduler decisions, per-iteration and per-rule stats, final counters) to FILE as JSON Lines")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"After the program finishes, print the engine phase split (search/apply/rebuild/other) and all telemetry histograms and counters")
  in
  let explain_plans =
    Arg.(value & flag & info [ "explain-plans" ]
           ~doc:"After the program finishes, print each rule's join plan, the one its full query and every semi-naive delta variant run: atoms, the variable order (most-shared variables first), the primitive schedule, and the lowering")
  in
  let main file no_seminaive backoff node_limit time_limit memory_limit
      journal checkpoint_every recover fault load dump trace stats explain_plans =
    let seminaive = not no_seminaive in
    let usage_error msg =
      Printf.eprintf "egglog: %s\n" msg;
      2
    in
    (match fault with Some (point, n) -> Egglog.Fault.arm_nth point n | None -> ());
    if journal = None && checkpoint_every <> None then
      usage_error "--checkpoint-every requires --journal"
    else if journal = None && recover then usage_error "--recover requires --journal"
    else if journal <> None && load <> None then
      usage_error "--journal is incompatible with --load (recover the journal instead)"
    else if load <> None && file = None then
      usage_error
        "--load requires FILE: snapshots carry data, not declarations, so FILE must declare \
         the snapshot's schema (and add no data) before the snapshot loads"
    else if recover && file <> None then
      usage_error
        "--recover restores the journaled program's state; it cannot also run FILE (its \
         declarations would clash). Recover on a terminal to continue interactively."
    else
      match file with
      | Some path ->
        run_file ~seminaive ~backoff ~node_limit ~time_limit ~memory_limit
          ~journal ~checkpoint_every ~load ~dump ~trace ~stats ~explain_plans path
      | None ->
        if explain_plans then usage_error "--explain-plans requires FILE"
        else
          repl_mode ~seminaive ~backoff ~node_limit ~time_limit ~memory_limit
            ~journal ~checkpoint_every ~recover ~dump ~trace ~stats ()
  in
  let term =
    Term.(
      const main $ file $ no_seminaive $ backoff $ node_limit
      $ time_limit $ memory_limit $ journal $ checkpoint_every $ recover $ fault
      $ load $ dump $ trace $ stats $ explain_plans)
  in
  let serve_cmd =
    let socket =
      Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket at PATH (an existing file there is replaced)")
    in
    let stdio =
      Arg.(value & flag & info [ "stdio" ]
             ~doc:"Also serve the protocol on stdin/stdout; with no $(b,--socket), EOF on stdin drains the daemon")
    in
    let data_dir =
      Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR"
             ~doc:"Enable durable sessions: journals live in DIR (created if missing) and are recovered at startup")
    in
    let max_sessions =
      Arg.(value & opt (positive_int ~what:"--max-sessions") 64
           & info [ "max-sessions" ] ~docv:"N" ~doc:"Refuse to open more than N live sessions")
    in
    let queue_limit =
      Arg.(value & opt (positive_int ~what:"--queue-limit") 64
           & info [ "queue-limit" ] ~docv:"N"
               ~doc:"Admission queue bound; requests beyond it are shed with an overload reply")
    in
    let retry_after =
      Arg.(value & opt (positive_int ~what:"--retry-after") 50
           & info [ "retry-after" ] ~docv:"MS" ~doc:"retry_after_ms hint carried by overload sheds")
    in
    let max_input =
      Arg.(value & opt (positive_int ~what:"--max-input-bytes") (4 * 1024 * 1024)
           & info [ "max-input-bytes" ] ~docv:"BYTES"
               ~doc:"Per-frame and per-program size cap; larger input gets a too-large reply")
    in
    let node_cap =
      Arg.(value & opt (positive_int ~what:"--node-limit") 1_000_000
           & info [ "node-limit" ] ~docv:"N"
               ~doc:"Hard per-request tuple budget (and the default); client limits are clamped to it")
    in
    let time_cap =
      Arg.(value & opt (positive_float ~what:"--time-limit") 10.0
           & info [ "time-limit" ] ~docv:"SECONDS"
               ~doc:"Hard per-request wall-clock budget (and the default); client limits are clamped to it")
    in
    let session_quota =
      Arg.(value & opt (some (positive_int ~what:"--session-quota")) None
           & info [ "session-quota" ] ~docv:"N"
               ~doc:"Roll back any request that would leave its session holding more than N tuples")
    in
    let session_memory_quota =
      Arg.(value & opt (some (positive_int ~what:"--session-memory-quota")) None
           & info [ "session-memory-quota" ] ~docv:"BYTES"
               ~doc:"Roll back any request that would leave its session holding more than \
                     BYTES modeled bytes; also clamps per-request memory_limit fields")
    in
    let memory_headroom =
      Arg.(value & opt (some (positive_int ~what:"--memory-headroom")) None
           & info [ "memory-headroom" ] ~docv:"BYTES"
               ~doc:"Global cap on the summed modeled bytes of all live sessions: beyond it, \
                     the largest idle sessions are checkpointed and evicted, and requests \
                     that still do not fit are shed with an overload reply")
    in
    let idle_timeout =
      Arg.(value & opt (some (positive_float ~what:"--idle-timeout")) None
           & info [ "idle-timeout" ] ~docv:"SECONDS"
               ~doc:"Evict sessions idle longer than SECONDS (durable sessions are checkpointed and remain recoverable)")
    in
    let serve_checkpoint_every =
      Arg.(value & opt (some (positive_int ~what:"--checkpoint-every")) (Some 64)
           & info [ "checkpoint-every" ] ~docv:"N"
               ~doc:"Checkpoint a durable session's journal after every N journaled requests (one record each)")
    in
    let serve_fault =
      Arg.(value & opt (some fault_point) None & info [ "fault" ] ~docv:"POINT:N"
             ~doc:"Deterministic fault injection: crash (exit 70) at the N-th hit of the named point, e.g. server.request.executed:3")
    in
    let serve_trace =
      Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.jsonl"
             ~doc:"Stream the server's telemetry event log to FILE as JSON Lines")
    in
    let slow_log =
      Arg.(value & opt (some (positive_int ~what:"--slow-log-ms")) None
           & info [ "slow-log-ms" ] ~docv:"MS"
               ~doc:"Append a JSONL entry (program, budgets, phase breakdown, flight-recorder \
                     tail) for every request taking MS milliseconds or more to \
                     $(i,DIR)/slowlog.jsonl under --data-dir, or stderr without one")
    in
    let serve_main socket stdio data_dir max_sessions queue_limit retry_after max_input
        node_cap time_cap session_quota session_memory_quota memory_headroom
        idle_timeout checkpoint_every fault trace slow_log =
      if socket = None && not stdio then begin
        Printf.eprintf "egglog serve: need --socket PATH and/or --stdio\n";
        2
      end
      else
        let cfg =
          {
            Egglog_server.Serve.default_config with
            socket_path = socket;
            use_stdio = stdio;
            data_dir;
            max_sessions;
            queue_limit;
            retry_after_ms = retry_after;
            max_input_bytes = max_input;
            node_limit_cap = node_cap;
            time_limit_cap_ms = int_of_float (time_cap *. 1000.);
            session_node_quota = session_quota;
            session_memory_quota;
            memory_headroom;
            idle_timeout_s = idle_timeout;
            checkpoint_every;
            slow_log_ms = slow_log;
          }
        in
        serve_daemon ~cfg ~fault ~trace
    in
    Cmd.v
      (Cmd.info "serve"
         ~doc:"Run the multi-session daemon (JSONL protocol over a Unix socket and/or stdio)")
      Term.(
        const serve_main $ socket $ stdio $ data_dir $ max_sessions $ queue_limit
        $ retry_after $ max_input $ node_cap $ time_cap $ session_quota
        $ session_memory_quota $ memory_headroom $ idle_timeout $ serve_checkpoint_every
        $ serve_fault $ serve_trace $ slow_log)
  in
  let metrics_cmd =
    let socket =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"SOCKET"
             ~doc:"Unix-domain socket of a running $(b,egglog serve) daemon")
    in
    let format =
      Arg.(value & opt string "prometheus" & info [ "format" ] ~docv:"FORMAT"
             ~doc:"Output format: $(b,prometheus) (text exposition) or $(b,json) (raw metrics reply)")
    in
    let metrics_main socket format =
      if format <> "prometheus" && format <> "json" then begin
        Printf.eprintf "egglog metrics: --format must be prometheus or json\n";
        2
      end
      else
        with_errors ~where:"metrics" @@ fun () ->
        let module J = Egglog.Telemetry.Json in
        let die fmt =
          Format.kasprintf (fun m -> raise (Egglog.Egglog_error m)) fmt
        in
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            (try Unix.connect fd (Unix.ADDR_UNIX socket)
             with Unix.Unix_error (e, _, _) ->
               die "cannot connect to %s: %s" socket (Unix.error_message e));
            let req =
              Printf.sprintf "{\"id\":0,\"op\":\"metrics\",\"format\":%S}\n" format
            in
            let rec write_all off =
              if off < String.length req then
                write_all (off + Unix.write_substring fd req off (String.length req - off))
            in
            write_all 0;
            let buf = Buffer.create 4096 in
            let chunk = Bytes.create 65536 in
            (* the reply ends at its first newline; look for it only in the
               chunk just read, so a long reply is scanned once *)
            let rec read_reply () =
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | n ->
                Buffer.add_subbytes buf chunk 0 n;
                let rec ends i = i < n && (Bytes.get chunk i = '\n' || ends (i + 1)) in
                if not (ends 0) then read_reply ()
            in
            read_reply ();
            let line =
              let all = Buffer.contents buf in
              match String.index_opt all '\n' with
              | Some i -> String.sub all 0 i
              | None -> all
            in
            if line = "" then die "empty reply from daemon at %s" socket;
            let reply =
              try J.parse line with J.Parse_error _ -> die "unparseable reply: %s" line
            in
            (match J.member "ok" reply with
             | Some (J.Bool true) -> ()
             | _ -> die "daemon refused the metrics request: %s" line);
            (match format with
             | "prometheus" -> (
               match J.member "prometheus" reply with
               | Some (J.Str text) -> print_string text
               | _ -> die "reply carries no prometheus text: %s" line)
             | _ -> print_endline line);
            0)
    in
    Cmd.v
      (Cmd.info "metrics"
         ~doc:"Scrape a running daemon's metrics over its Unix socket")
      Term.(const metrics_main $ socket $ format)
  in
  let info =
    Cmd.info "egglog" ~doc:"A fixpoint reasoning system unifying Datalog and equality saturation"
  in
  (* Cmd.group would parse any first positional — i.e. the program FILE —
     as a sub-command name, so dispatch on "serve" by hand and keep the
     batch CLI's `egglog FILE.egg` shape intact. *)
  if Array.length Sys.argv > 1 && (Sys.argv.(1) = "serve" || Sys.argv.(1) = "metrics")
  then exit (Cmd.eval' (Cmd.group info [ serve_cmd; metrics_cmd ]))
  else exit (Cmd.eval' (Cmd.v info term))
