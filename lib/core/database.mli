(** The functional database (§5.1): one {!Table} per declared function plus
    the union-find over uninterpreted-sort ids. All stored values are kept
    canonical; {!rebuild} restores that invariant (and the functional
    dependencies) after unions — this is the paper's [R^∞] operator (§4.2),
    and computes congruence closure when merge behaviour is union. *)

type t

exception Merge_conflict of { func : Symbol.t; old_value : Value.t; new_value : Value.t }
(** A functional-dependency violation on a function whose merge behaviour is
    panic (base-typed, no [:merge]), with the two conflicting outputs. *)

exception Internal_error of string
(** An engine invariant was broken (e.g. a [:merge] function whose evaluator
    hook was never installed); indicates a bug, not a user error. *)

val create : ?trail:Trail.t -> unit -> t
(** [trail] records the inverse of every write to the database, its tables,
    union-find and proof forest while a transaction or scope is open on it
    (default: a private trail on which none is ever opened). *)

(** {1 Declarations} *)

val declare_sort : t -> Symbol.t -> unit
val is_sort : t -> Symbol.t -> bool
val declare_func : t -> Schema.func -> unit
val find_func : t -> Symbol.t -> Table.t option
val iter_tables : t -> (Table.t -> unit) -> unit

(** [set_merge_hook db f] installs the evaluator used for user [:merge]
    expressions; it receives the function, the old and the new value and
    returns the merged value. Installed once by the engine (the evaluator
    needs the whole engine, so it cannot live here). *)
val set_merge_hook : t -> (Schema.func -> Value.t -> Value.t -> Value.t) -> unit

(** {1 Values} *)

val fresh_id : t -> Symbol.t -> Value.t
(** Allocate a member of the given sort. *)

val sort_of_id : t -> int -> Ty.t
val canon : t -> Value.t -> Value.t
(** The canonical form. An id that is its own root comes back physically
    unchanged ([==]); a merged id comes back as its root. *)

val canon_key : t -> Value.t array -> Value.t array
(** The key with every cell canonical: the argument itself when every
    cell is already canonical ([canon] returns each one physically
    unchanged), a fresh array otherwise. The argument is never written.
    {!set}, {!lookup} and {!remove} canonicalize their key this way, so a
    table may keep the caller's array: a caller must not mutate a key
    after handing it to them. *)

val are_equal : t -> Value.t -> Value.t -> bool
(** Structural equality modulo the union-find. *)

(** {1 Mutation} *)

val timestamp : t -> int
val bump_timestamp : t -> unit

val change_counter : t -> int
(** Monotone counter of semantic changes (insert, update, union); the engine
    detects saturation by comparing it across an iteration. *)

val lookup : t -> Table.t -> Value.t array -> Value.t option

val set : t -> Table.t -> Value.t array -> Value.t -> unit
(** Insert or merge (per the function's merge behaviour, §3.2). *)

val union : t -> ?reason:Proof_forest.reason -> Value.t -> Value.t -> Value.t
(** Union two ids, recording the justification in the proof forest.
    @raise Invalid_argument on non-id values. *)

val explain : t -> Value.t -> Value.t -> Proof_forest.step list option
(** Why are the two values equal? A chain of recorded union steps
    ([Some []] for identical values), or [None] if they were never made
    equal. Precise when the caller holds the pre-union id handles (the
    typed API); see {!Proof_forest}. *)

val class_history : t -> Value.t -> Proof_forest.step list
(** Every recorded union event in the value's equivalence class — the
    construction trace reported by the textual [(explain …)] command. *)

val remove : t -> Table.t -> Value.t array -> unit

val rebuild : t -> unit
(** Restore canonicality and functional dependencies; terminates because each
    round strictly shrinks the database or the number of classes. A round's
    stale scan reads only the columns that can hold an id
    ({!Table.id_columns}) and skips tables without any. *)

val union_find : t -> Union_find.t
val proof_forest : t -> Proof_forest.t
(** The database's union-find and proof forest, for memory probes: a
    database record reaches the whole engine through its merge hook, so a
    probe measures its parts. *)

val n_ids : t -> int
val n_classes : t -> int
val total_rows : t -> int

val total_log_entries : t -> int
(** Sum of {!Table.log_length} over all tables; its growth over an
    iteration is the semi-naïve frontier ("delta") size. *)

val modeled_bytes : t -> int
(** Deterministic modeled footprint in bytes: {!Table.modeled_bytes} over
    all tables plus fixed costs per allocated id and per proof-forest edge.
    O(#tables) to query. This — never [Gc] statistics — is what memory
    budgets are enforced against, so the same program hits the same budget
    at the same iteration regardless of allocator state. *)

(** {1 Transactions and scopes}

    A transaction is opened with {!Trail.begin_txn}, a scope (push/pop)
    with {!Trail.push_scope}, on the trail given to {!create}. While either
    is open, every mutator — {!declare_sort}, {!declare_func}, {!fresh_id},
    {!bump_timestamp}, {!set}, {!union}, {!remove}, {!rebuild} — pushes the
    inverse of each write it makes before making it; {!Trail.rollback} and
    {!Trail.pop_scope} replay them newest-first and leave the database as
    it was when the transaction or scope began, at a cost proportional to
    the writes made, not to the database. With nothing open a mutator pays
    one branch per write. {!Table.version} keeps growing through a
    rollback, and every inverse cuts the tables' change feeds
    ({!Table.changes_since} answers [None] for older marks), so structures
    patched from them rebuild. *)
