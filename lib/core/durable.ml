let error fmt = Format.kasprintf (fun s -> raise (Journal.Journal_error s)) fmt

type t = {
  engine : Engine.t;
  journal : Journal.t;
  checkpoint_every : int option;
  mutable seq : int;
  mutable committed : int;
  mutable since_ckpt : int;
}

let checkpoint_path base seq = Printf.sprintf "%s.ckpt.%d" base seq

(* The commands that only read: a replay can skip them, so a request made
   of nothing else appends no record. A [check] that fails raises, and its
   request rolls back with it. *)
let read_only (cmd : Ast.command) =
  match cmd with
  | Ast.Check _ | Ast.Check_fail _ | Ast.Print_function _ | Ast.Print_size _ | Ast.Print_stats ->
    true
  | _ -> false

let c_checkpoints = Telemetry.counter "checkpoint.writes"
let c_replayed = Telemetry.counter "recover.replayed"

let do_checkpoint t =
  let seq = t.seq + 1 in
  let base = Journal.path t.journal in
  Telemetry.bump c_checkpoints 1;
  Telemetry.span "checkpoint.write" (fun () ->
      Serialize.write_checkpoint t.engine ~path:(checkpoint_path base seq) ~seq
        ~committed:t.committed);
  (* keep the previous checkpoint as a backup for manual recovery; prune
     anything older *)
  let stale = checkpoint_path base (seq - 2) in
  if Sys.file_exists stale then (try Sys.remove stale with Sys_error _ -> ());
  Fault.hit "checkpoint.before-reset";
  Journal.reset t.journal ~ckpt_seq:seq;
  t.seq <- seq;
  t.since_ckpt <- 0

let checkpoint t =
  if Engine.scope_depth t.engine > 0 then
    error "cannot checkpoint inside an open (push) scope";
  do_checkpoint t

let maybe_checkpoint t =
  match t.checkpoint_every with
  | Some n when t.since_ckpt >= n && Engine.scope_depth t.engine = 0 -> do_checkpoint t
  | _ -> ()

let run_request t cmds exec =
  (* Render the record up front: a command that cannot be printed back to
     concrete syntax (only constructible through the typed API) must be
     rejected before execution, or the journal would silently diverge from
     the state it claims to reproduce. *)
  let record =
    match List.filter (fun c -> not (read_only c)) cmds with
    | [] -> None
    | cmds -> Some (String.concat " " (List.map Frontend.command_to_string cmds))
  in
  (* [exec] is transactional — if it raises, the engine rolled back and we
     journal nothing, so the journal records exactly the committed history. *)
  let result = exec () in
  Option.iter
    (fun text ->
      Journal.append t.journal text;
      t.committed <- t.committed + 1;
      t.since_ckpt <- t.since_ckpt + 1;
      maybe_checkpoint t)
    record;
  result

let attach engine ~journal_path ~checkpoint_every =
  if Sys.file_exists journal_path then
    error
      "journal %s already exists; pass --recover to resume it, or remove it to start fresh"
      journal_path;
  let journal = Journal.create journal_path ~ckpt_seq:0 in
  { engine; journal; checkpoint_every; seq = 0; committed = 0; since_ckpt = 0 }

(* ---- recovery ---- *)

type recovery_report = {
  rc_checkpoint : int option;
  rc_replayed : int;
  rc_committed : int;
  rc_torn : bool;
  rc_warnings : string list;
}

let commands_of_record record =
  try Frontend.parse_program record with
  | Sexpr.Parse_error { message; _ } -> error "unparsable journal record (%s): %s" message record
  | Frontend.Syntax_error msg -> error "malformed journal record (%s): %s" msg record

let load_checkpoint engine (ck : Serialize.checkpoint) =
  Telemetry.span "recover.load_checkpoint" (fun () ->
      List.iter (fun cmd -> ignore (Engine.run_command engine cmd)) ck.Serialize.ck_program;
      Serialize.load engine ck.Serialize.ck_database)

let recover engine ~journal_path ~checkpoint_every =
  let journal, contents = Journal.open_append journal_path in
  let j_seq = contents.Journal.seq in
  let warnings = ref [] in
  let warn fmt = Format.kasprintf (fun s -> warnings := s :: !warnings) fmt in
  if contents.Journal.torn then
    warn "dropped a torn trailing journal record (crash during append)";
  (* Which checkpoint goes with this journal? Normally generation [j_seq]
     (the journal was reset right after that checkpoint landed). A crash in
     the window between checkpoint rename and journal reset instead leaves a
     newer checkpoint [j_seq + 1] beside a stale journal — the stale entries
     are already folded into that checkpoint, so it wins and the journal is
     reset now. *)
  let next = checkpoint_path journal_path (j_seq + 1) in
  let fresh_start =
    if Sys.file_exists next then begin
      match Serialize.read_checkpoint next with
      | ck when ck.Serialize.ck_seq = j_seq + 1 -> Some ck
      | ck ->
        warn "ignoring %s: header names generation %d, not %d" next ck.Serialize.ck_seq
          (j_seq + 1);
        None
      | exception Serialize.Load_error msg ->
        warn "ignoring unreadable checkpoint %s: %s" next msg;
        None
    end
    else None
  in
  let report =
    match fresh_start with
    | Some ck ->
      load_checkpoint engine ck;
      Journal.reset journal ~ckpt_seq:ck.Serialize.ck_seq;
      {
        rc_checkpoint = Some ck.Serialize.ck_seq;
        rc_replayed = 0;
        rc_committed = ck.Serialize.ck_committed;
        rc_torn = contents.Journal.torn;
        rc_warnings = List.rev !warnings;
      }
    | None ->
      let base_committed, used =
        if j_seq = 0 then (0, None)
        else begin
          let path = checkpoint_path journal_path j_seq in
          match Serialize.read_checkpoint path with
          | ck when ck.Serialize.ck_seq = j_seq ->
            load_checkpoint engine ck;
            (ck.Serialize.ck_committed, Some j_seq)
          | ck ->
            error "%s: header names generation %d, but the journal continues generation %d"
              path ck.Serialize.ck_seq j_seq
          | exception Serialize.Load_error msg ->
            error
              "cannot recover: journal %s continues checkpoint generation %d, but that \
               checkpoint is missing or unreadable (%s)"
              journal_path j_seq msg
        end
      in
      let replayed = List.length contents.Journal.entries in
      Telemetry.span "recover.replay" (fun () ->
          List.iter
            (fun record -> ignore (Engine.run_program engine (commands_of_record record)))
            contents.Journal.entries);
      Telemetry.bump c_replayed replayed;
      {
        rc_checkpoint = used;
        rc_replayed = replayed;
        rc_committed = base_committed + replayed;
        rc_torn = contents.Journal.torn;
        rc_warnings = List.rev !warnings;
      }
  in
  let seq = Option.value report.rc_checkpoint ~default:0 in
  let committed = report.rc_committed and since_ckpt = report.rc_replayed in
  ({ engine; journal; checkpoint_every; seq; committed; since_ckpt }, report)

let close t = Journal.close t.journal
