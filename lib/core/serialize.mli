(** Canonical database serialization, versioned snapshot files, and the
    checkpoint payload of the durability layer's journal.

    {2 Canonical dumps}

    {!dump} emits the database as a single s-expression whose bytes depend
    only on the database's {e content}: rows and tables are sorted, and
    e-class ids are renumbered canonically (by iterative color refinement
    over the rows they appear in), so two databases holding the same facts
    modulo a renaming of ids serialize identically — regardless of
    hash-table iteration order, insertion history, union-find representative
    choice or concrete id allocation. Crash recovery relies on this:
    a recovered engine allocates different internal ids than the process it
    mirrors, yet [dump] of both is byte-identical. (When a database has
    genuinely indistinguishable ids the renumbering breaks the tie
    deterministically per-process; for such automorphic ids any choice
    yields the same bytes.)

    {2 Snapshot files}

    {!write_snapshot} wraps the dump in a versioned container — a
    [magic version] header line, a [length crc32] line, then the payload —
    written atomically by {!Journal.atomic_write}. Readers verify magic,
    version, length and checksum and raise {!Load_error} with a clear
    message on any mismatch (including pre-versioned legacy files). *)

exception Load_error of string

val dump : Engine.t -> Sexpr.t
(** Rebuilds, then serializes the database (data only — not schema, rules,
    or push/pop stack) in canonical form. *)

val dump_string : Engine.t -> string
(** {!dump}, printed flat on one line ({!Sexpr.to_string}). *)

val load : Engine.t -> Sexpr.t -> unit
(** Load a dump into an engine whose schema (sorts and functions) is
    already declared but whose database is {e empty} — no ids, no rows.
    Loading into a populated database has no well-defined meaning (id
    remapping could silently alias or duplicate rows), so it raises
    {!Load_error} instead of performing an unspecified merge. Also raises
    on unknown sorts/functions and malformed input. *)

val load_string : Engine.t -> string -> unit

(** {1 Snapshot files} *)

val write_snapshot : Engine.t -> string -> unit
(** Atomic, versioned, checksummed dump-to-file (the CLI's [--dump]). A
    crash mid-write never truncates or corrupts an existing file at the
    destination path. *)

val load_snapshot : Engine.t -> string -> unit
(** Read a {!write_snapshot} file and {!load} it. @raise Load_error on
    magic/version mismatch (e.g. a pre-versioned snapshot), truncation,
    checksum failure, or any {!load} error. *)

(** {1 Checkpoints}

    A checkpoint persists everything needed to reconstruct an engine:
    the committed schema-shaping command history ({!Engine.decl_commands}),
    the data, and the count of requests committed so far. It is the first
    record of a journal ({!Journal}). The data is in {!dump}'s grammar but
    not canonical: {!load} gives every dumped id a fresh one anyway, so a
    checkpoint carries the rebuilt database's own ids in table order and
    skips the renumbering and the sort. The payload is printed flat
    ({!Sexpr.to_string}); the reader ignores layout, so checkpoints printed
    with line breaks load too. *)

type checkpoint = {
  ck_committed : int;  (** journaled requests committed before this checkpoint *)
  ck_program : Ast.command list;  (** replayable declarations, in order *)
  ck_database : Sexpr.t;  (** a [(database ...)] for {!load} *)
}

val checkpoint_payload : Engine.t -> committed:int -> string
(** Rebuilds, then prints the checkpoint payload:
    [(checkpoint (committed N) (program ...) (database ...))] and a
    newline, flat, straight into one buffer. *)

val parse_checkpoint : string -> checkpoint
(** Read a {!checkpoint_payload} back. @raise Load_error if it is
    malformed. *)
