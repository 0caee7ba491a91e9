(** Append-only, fsync'd write-ahead command journal.

    On disk, a journal is a header line

    {v egglog-journal <format-version> <checkpoint-seq> v}

    followed by length-framed, CRC-32-checksummed records, one per
    committed command:

    {v
    r <payload-length> <crc32-hex>\n
    <payload bytes>\n
    v}

    Every {!append} is fsync'd before returning, so a command the journal
    reports as recorded survives a crash. A crash {e during} an append can
    leave at most one partial record at the end of the file; readers detect
    such a torn tail (short record, missing framing, or checksum mismatch),
    drop it, and report it — a torn tail is an expected crash artifact, not
    corruption, and is never fatal.

    The [checkpoint-seq] in the header names the checkpoint generation this
    journal continues from: after writing checkpoint [N], the journal is
    {!reset} to an empty journal with header seq [N]. Journal creation and
    {!reset} write the header via an atomic temp-file + rename, so the
    header itself can never be torn. *)

exception Journal_error of string
(** Unrecoverable problems: unreadable file, bad magic, unsupported format
    version, malformed header. (A torn {e tail} is not an error.) *)

type t
(** An open append handle. *)

type contents = {
  seq : int;  (** checkpoint sequence from the header *)
  entries : string list;  (** valid record payloads, in append order *)
  torn : bool;  (** a partial trailing record was present (and dropped) *)
}

val create : string -> ckpt_seq:int -> t
(** Atomically (re)initialize the file to an empty journal with the given
    checkpoint sequence and open it for appending. *)

val open_append : string -> t * contents
(** Open an existing journal for appending, returning what it held. If the
    file ends in a torn record, the torn bytes are truncated away (the
    returned {!contents} has [torn = true]). *)

val read : string -> contents
(** Read-only scan; does not modify the file (a torn tail is reported but
    left in place). *)

val append : t -> string -> unit
(** Append one record and fsync. When the record's payload has reached the
    disk, the command it encodes is durable. *)

val reset : t -> ckpt_seq:int -> unit
(** Atomically replace the journal with an empty one whose header carries
    [ckpt_seq] — called right after checkpoint [ckpt_seq] lands. *)

val path : t -> string
val close : t -> unit

(** {1 File plumbing}

    Shared with {!Serialize}'s snapshot and checkpoint containers. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, looping over short writes. *)

val fsync_dir : string -> unit
(** fsync the directory holding the path, so a rename into it is durable.
    Errors are ignored: a directory that cannot be synced only weakens
    durability. *)
