(** Append-only, fsync'd write-ahead command journal.

    On disk, a journal is a header line [egglog-journal 2], one checkpoint
    record, then length-framed, CRC-32-checksummed records, one per
    committed request:

    {v
    c <payload-length> <crc32-hex>\n
    <checkpoint payload bytes>\n
    r <payload-length> <crc32-hex>\n
    <request payload bytes>\n
    v}

    The header and the checkpoint record are written by one atomic
    temp-file + rename ({!create}, {!rewrite}), so they can never be torn.
    Every {!append} is fsync'd before returning, so a request the journal
    reports as recorded survives a crash. A crash {e during} an append can
    leave at most one partial record at the end of the file; readers
    detect such a torn tail (short record, missing framing, or checksum
    mismatch), drop it, and report it — a torn tail is an expected crash
    artifact, not corruption, and is never fatal. A bad record that has a
    valid record after it is corruption, not a torn tail: it is an error,
    and nothing is truncated. *)

exception Journal_error of string
(** Unrecoverable problems: unreadable file, bad magic, unsupported format
    version, malformed header, a missing or corrupt checkpoint record, a
    corrupt record in the middle of the journal. (A torn {e tail} is not an
    error.) *)

type t
(** An open append handle. *)

type contents = {
  checkpoint : string;  (** the checkpoint record's payload *)
  entries : string list;  (** valid request record payloads, in append order *)
  torn : bool;  (** a partial trailing record was present (and dropped) *)
}

val create : string -> checkpoint:string -> t
(** Atomically write a journal holding only the given checkpoint payload
    and open it for appending. *)

val open_append : string -> t * contents
(** Open an existing journal for appending, returning what it held. If the
    file ends in a torn record, the torn bytes are truncated away (the
    returned {!contents} has [torn = true]).
    @raise Journal_error before touching the file if it is corrupt. *)

val read : string -> contents
(** Read-only scan; does not modify the file (a torn tail is reported but
    left in place). *)

val append : t -> string -> unit
(** Append one record and fsync. When the record's payload has reached the
    disk, the request it encodes is durable. *)

val rewrite : t -> checkpoint:string -> unit
(** Atomically replace the journal with one holding only the given
    checkpoint payload, and keep appending there. The replaced file stays
    behind as [<journal>.prev], a complete journal (best effort: failing to
    link it only loses the backup). Hits the fault points
    [checkpoint.before], [checkpoint.unrenamed] and [checkpoint.renamed]. *)

val close : t -> unit

(** {1 File plumbing}

    Shared with {!Serialize}'s snapshot files. *)

val atomic_write : ?kind:string -> string -> string list -> unit
(** [atomic_write ?kind path pieces] writes the pieces, one write each, to
    [path ^ ".tmp"], fsyncs it, renames it over [path] and fsyncs the
    directory, so a crash never leaves [path] truncated or corrupt. With
    [~kind], it hits the fault points [kind.before] (nothing written),
    [kind.unrenamed] (temp file durable, final name absent) and
    [kind.renamed]. *)

val read_file : string -> string
(** The whole file. @raise Journal_error if it cannot be read. *)
