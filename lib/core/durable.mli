(** The durability controller: ties an {!Engine} to a write-ahead
    {!Journal} whose first record is a checkpoint, and recovers the engine
    from it after a crash.

    {2 Protocol}

    The unit of durability is the {e request}: a list of commands that
    executes as one transaction ({!run_request}). A CLI command is a
    one-command request; a daemon request is a whole [run] program. Its
    commands are rendered to concrete syntax first; once the request has
    {e committed}, those that are not {!read_only} are appended to the
    journal as one record of flat program text and fsync'd. A request that
    fails is rolled back and never journaled, and one made only of
    read-only commands appends nothing. A crash between commit and append
    loses at most that one request (it was never acknowledged as durable).
    {!attach} writes a journal holding a checkpoint of the engine's state;
    after [checkpoint_every] records, one atomic rename replaces it with a
    journal holding a new checkpoint, so a checkpoint always sits on a
    request boundary. The replaced journal stays as [<journal>.prev].

    {2 Recovery guarantee}

    {!recover} on a fresh engine — the journal's checkpoint, then the
    replay of its records, each parsed as a list of commands — reproduces
    a state whose {!Serialize.dump} is byte-identical to an uninterrupted
    run of the same committed request prefix. Journals written one command
    per record read the same way. A torn trailing journal record (crash
    mid-append) is dropped, never an error, and with it the whole request
    it held. Caveats: [(include ...)] is journaled by name, so the file
    must still exist at recovery; runs under a wall-clock [:time-limit] or
    the Backoff scheduler stop at a time-dependent point, so their
    replayed prefix is only guaranteed equivalent when the run saturates or
    hits a deterministic limit. *)

type t

val attach : Engine.t -> journal_path:string -> checkpoint_every:int option -> t
(** Start journaling a (fresh or pre-loaded) engine to a {e new} journal,
    written with a checkpoint of the engine's state in one atomic write.
    Refuses (with {!Journal.Journal_error}), before writing anything, to
    overwrite an existing journal file — recover it or remove it first —
    or to start inside an open [(push)] scope. *)

type recovery_report = {
  rc_from_checkpoint : int;  (** requests restored from the checkpoint *)
  rc_replayed : int;  (** journal records replayed on top of it *)
  rc_committed : int;  (** total journaled requests after recovery *)
  rc_torn : bool;  (** a torn trailing record was dropped *)
}

val recover :
  Engine.t -> journal_path:string -> checkpoint_every:int option -> t * recovery_report
(** Rebuild state into a {e fresh} engine: load the journal's checkpoint
    (replaying its declaration program, then loading its data dump),
    replay the journal's records, and return a controller ready for more
    commands. A torn trailing record is truncated; a checkpoint temp file
    that never renamed is simply ignored.
    @raise Journal.Journal_error if the journal is unreadable, its
    checkpoint record is missing or corrupt, or a record in its middle is
    corrupt. *)

val run_request : t -> Ast.command list -> (unit -> 'a) -> 'a
(** [run_request t cmds exec] is the one journaling entry point. [exec]
    must execute exactly [cmds] on the attached engine as one transaction
    (see {!Engine.with_transaction}; a single {!Engine.run_command} is
    one). Once it returns, the non-{!read_only} commands of [cmds] are
    appended as one record; if it raises, nothing is journaled. May
    trigger a checkpoint; checkpointing is deferred while a [(push)] scope
    is open. *)

val read_only : Ast.command -> bool
(** [check], [fail] and [print-*]: commands whose replay is skipped, since
    they leave the database dump and the engine's state as they found
    them. *)

val checkpoint : t -> unit
(** Force a checkpoint now. @raise Journal.Journal_error inside an open
    [(push)] scope. *)

val close : t -> unit
