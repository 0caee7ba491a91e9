(** The backing map of one egglog function (§5.1): canonical argument tuples
    to an output row. Rows carry the timestamp of their last insertion or
    modification, which drives semi-naïve evaluation (§4.3).

    A stamp-ordered append log makes "rows new since stamp s" iteration
    O(delta) instead of O(table) — the point of semi-naïve delta atoms. An
    insert makes a fresh row record and a re-stamp appends a fresh log
    entry, and a removal tombstones its record, so a log entry is current
    iff its record's stamp still equals the entry's.

    Tables are pure storage; merge-aware insertion and canonicalization live
    in {!Database}, which owns the union-find.

    Every write also reaches a {e change feed} (the stamp log plus a
    retraction log of the versions writes took away), from which derived
    structures — the join cache's tries and indexes — patch themselves
    forward instead of rebuilding.

    While a transaction or scope is open on the table's {!Trail}, [set_raw]
    and [remove] push the inverse of each write first (the row's old value
    and stamp, the stamp log's length and the byte count), so a rollback or
    pop restores the table in place. An inverse also cuts the change feed: it drops the
    retraction log, and older marks read [None]. *)

type row = {
  mutable value : Value.t;
  mutable stamp : int;
      (** The stamp of the row's last insert or re-stamp; [min_int] marks a
          tombstoned (removed) record. Maintained internally. *)
  mutable born : int;
      (** The table's {!version} right after the row's insert — its place in
          the write sequence, which the change feed compares against a mark
          to tell whether the key was present then. Maintained internally. *)
}

type t

val create : ?trail:Trail.t -> Schema.func -> t
(** [trail] receives the inverses of this table's writes (default: a
    private trail on which no transaction is ever opened). *)

val func : t -> Schema.func
val length : t -> int

val version : t -> int
(** Bumped on every mutation and by every inverse a rollback replays, so it
    never goes back; lets query-side caches validate reuse. *)

val uid : t -> int
(** Globally unique identity of this table, fresh on every [create], so
    caches keyed by uid can never confuse two tables for the same function
    (say, in two engines) whose version counters coincide. A rollback or a
    pop restores a table in place and keeps its uid. *)

val id_columns : t -> int array
(** Columns (argument positions, then [arity] for the output) whose type can
    hold an id: sorts, and sets or vectors of them. Computed once from the
    schema; the only columns a rebuild has to check for stale ids. *)

val entries_since : t -> int -> int
(** [entries_since t lo] = number of log entries with stamp >= [lo]: an
    upper bound on the delta a semi-naïve variant will scan (re-stamped
    rows appear once per re-stamp). O(log n). *)

val log_length : t -> int
(** Entries ever appended to the timestamp log (inserts + re-stamps). Its
    growth over an iteration is the frontier semi-naïve evaluation scans
    next round — the "delta size" reported by telemetry. *)

val modeled_bytes : t -> int
(** Deterministic modeled footprint in bytes: per-row overhead plus
    {!Value.modeled_bytes} of every key element and output, plus a fixed
    cost per timestamp-log entry. Maintained incrementally (O(1) query),
    a pure function of the mutation history — never of the allocator —
    so memory budgets built on it trip reproducibly. *)

val get : t -> Value.t array -> row option
(** Keys must already be canonical. *)

val set_raw : t -> Value.t array -> Value.t -> stamp:int -> [ `Inserted | `Updated | `Unchanged ]
(** Insert or overwrite without consulting merge behaviour. Bumps the row
    stamp on insert and on value change (not when unchanged). *)

val remove : t -> Value.t array -> unit
val iter : (Value.t array -> row -> unit) -> t -> unit
val fold : (Value.t array -> row -> 'a -> 'a) -> t -> 'a -> 'a

val iter_delta : t -> lo:int -> hi:int -> (Value.t array -> row -> unit) -> unit
(** Visit rows whose current stamp s satisfies [lo <= s < hi], each
    exactly once. When [lo > 0] this walks only the stamp-ordered log tail,
    checking each entry's currency through the logged row pointer (two
    loads and one compare per entry, no hashing); [lo <= 0] is a full scan
    filtered by [hi]. The join scans every table through this walk. *)

(** {2 The change feed}

    [remove] and every value-changing [set_raw] append the version they
    take away (key, old value and its row's [born]) to a retraction log;
    inserts and re-stamps append to the stamp log as before. A consumer
    keeps a {!mark} next to the structure it derived from the table and,
    when {!version} has moved, asks for the {!changes_since} that mark.
    Once the retraction log fills its arrays it keeps only the newest
    [max 16 rows] entries: a consumer further behind would read more feed
    than a rebuild reads rows. *)

type mark
(** A position in the feed: both log lengths and the {!version}. *)

val mark : t -> mark

val unchanged_since : t -> mark -> bool
(** No write (and no inverse) since the mark: O(1). *)

type change = {
  key : Value.t array;
  retracted : Value.t option;
      (** The key's output at the mark, if the key was present then. *)
  current : row option;  (** The key's row now, if it is present. *)
}

val changes_since : t -> mark -> change array option
(** Each key a write touched since the mark, exactly once, retracted keys
    first (in retraction order), then the keys only inserted (in stamp-log
    order). Applying every change in turn — take out [retracted], put in
    [current] — turns a structure that held the table at the mark into one
    that holds the table now. A key written and taken out again in between
    has neither. [None] when an inverse ran since the mark, or the
    retraction log no longer reaches back to it: the consumer must
    rebuild. O(entries since the mark); consumers asking with the same
    mark at the same version share one answer. *)

(** {2 Typed column readers}

    Construction-time-specialized accessors for the plan compiler
    ({!Plan_compile}): the key-position-vs-output branch and the column's
    representation are resolved once, when a compiled closure is built,
    instead of per row inside the join's innermost loop. *)

val column_ty : Schema.func -> int -> Ty.t
(** Type of column [i]: argument type when [i < arity], return type for the
    output column. *)

val reader : Schema.func -> int -> Value.t array -> row -> Value.t
(** [reader f i] reads column [i] of a row: a direct key load when
    [i < arity f], the output cell otherwise — no position test per row. *)

val int_reader : Schema.func -> int -> (Value.t array -> row -> int) option
(** Unboxed reader for columns whose every cell carries an integer payload
    ([i64] → [VInt], [bool] → [VBool], sorts → [VId]): within one such
    column, equality is integer equality on the payload. [None] for types
    that need structural comparison. *)
