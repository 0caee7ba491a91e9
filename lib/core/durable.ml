let error fmt = Format.kasprintf (fun s -> raise (Journal.Journal_error s)) fmt

type t = {
  engine : Engine.t;
  journal : Journal.t;
  checkpoint_every : int option;
  mutable committed : int;
  mutable since_checkpoint : int;
}

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

(* Write the engine's state as a checkpoint with [write]. An open scope's
   additions would land in the checkpoint without the scope, and a later
   (pop) could not remove them after recovery. *)
let checkpoint_with engine ~committed write =
  if Engine.scope_depth engine > 0 then
    error "cannot checkpoint inside an open (push) scope";
  Telemetry.bump c_checkpoints 1;
  Telemetry.span "checkpoint.write" (fun () ->
      write (Serialize.checkpoint_payload engine ~committed))

let checkpoint t =
  checkpoint_with t.engine ~committed:t.committed (fun checkpoint ->
      Journal.rewrite t.journal ~checkpoint);
  t.since_checkpoint <- 0

let maybe_checkpoint t =
  match t.checkpoint_every with
  | Some n when t.since_checkpoint >= n && Engine.scope_depth t.engine = 0 -> checkpoint t
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
      t.since_checkpoint <- t.since_checkpoint + 1;
      maybe_checkpoint t)
    record;
  result

let attach engine ~journal_path ~checkpoint_every =
  if Sys.file_exists journal_path then
    error
      "journal %s already exists; pass --recover to resume it, or remove it to start fresh"
      journal_path;
  let journal =
    checkpoint_with engine ~committed:0 (fun checkpoint ->
        Journal.create journal_path ~checkpoint)
  in
  { engine; journal; checkpoint_every; committed = 0; since_checkpoint = 0 }

(* ---- recovery ---- *)

type recovery_report = {
  rc_from_checkpoint : int;
  rc_replayed : int;
  rc_committed : int;
  rc_torn : bool;
}

let commands_of_record record =
  try Frontend.parse_program record with
  | Sexpr.Parse_error { message; _ } -> error "unparsable journal record (%s): %s" message record
  | Frontend.Syntax_error msg -> error "malformed journal record (%s): %s" msg record

let recover engine ~journal_path ~checkpoint_every =
  let journal, contents = Journal.open_append journal_path in
  let ck =
    try
      let ck =
        try Serialize.parse_checkpoint contents.Journal.checkpoint
        with Serialize.Load_error msg -> error "%s: bad checkpoint record: %s" journal_path msg
      in
      Telemetry.span "recover.load_checkpoint" (fun () ->
          List.iter (fun cmd -> ignore (Engine.run_command engine cmd)) ck.Serialize.ck_program;
          Serialize.load engine ck.Serialize.ck_database);
      Telemetry.span "recover.replay" (fun () ->
          List.iter
            (fun record -> ignore (Engine.run_program engine (commands_of_record record)))
            contents.Journal.entries);
      ck
    with e ->
      Journal.close journal;
      raise e
  in
  let replayed = List.length contents.Journal.entries in
  Telemetry.bump c_replayed replayed;
  let committed = ck.Serialize.ck_committed + replayed in
  ( { engine; journal; checkpoint_every; committed; since_checkpoint = replayed },
    {
      rc_from_checkpoint = ck.Serialize.ck_committed;
      rc_replayed = replayed;
      rc_committed = committed;
      rc_torn = contents.Journal.torn;
    } )

let close t = Journal.close t.journal
