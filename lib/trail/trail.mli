(** An undo trail: transactions and scopes that roll back by replaying
    inverse writes.

    While a transaction or a scope is open, every mutator of a structure
    that shares the trail pushes the inverse of its write (a closure that
    puts the old values back) before writing. Rolling back replays those
    inverses newest-first down to a mark, so a transaction or a scope costs
    O(writes it made), never O(size of the state it could touch).

    Transaction marks ({!begin_txn}) and scope marks ({!push_scope}) share
    one stack and interleave: a transaction may commit while a scope opened
    inside it stays open, and a later transaction may pop that scope. Such
    a pop {e crosses} the transactions opened since the scope, which may
    still roll back; so each inverse it runs gives back the entry that
    reverses it, and the pop records that entry as a write of the innermost
    crossed transaction. A crossed rollback then redoes exactly what the
    pop undid, and reopens the scope.

    With nothing open, {!recording} is false and a mutator pays one
    branch. Nothing here is thread-safe: a trail and the structures that
    share it belong to one domain at a time. *)

type entry = Entry of (unit -> entry) [@@unboxed]
(** What a recorded closure returns when it runs: the entry that reverses
    what it did. That entry runs only on the state the closure left, and
    returns the closure again; build it inside the closure, so recording a
    write allocates nothing for it. *)

type t

val create : unit -> t
(** A trail with nothing open. *)

val recording : t -> bool
(** A transaction or a scope is open: mutators must {!push} inverses. *)

val push : t -> (unit -> entry) -> unit
(** Record the inverse of a write about to happen. The closure must restore
    fields directly and must not call a mutator that records. Pass a
    [fun () -> ...] literal: a partial application of a named function also
    holds the function, one word more per write. *)

val held : t -> int
(** The entries an open scope keeps once every open transaction commits:
    while a scope is open, all of them but the spans crossing pops left
    (see {!commit}); else 0. *)

val begin_txn : t -> unit
(** Open a (possibly nested) transaction. *)

val commit : t -> unit
(** Close the innermost transaction, keeping its state; scopes opened
    inside it stay open. Entries are kept while anything is open that could
    undo them. Once no transaction is open, the entries a crossing pop left
    (what it ran, then their reverses) come to no change and are cut out.
    @raise Invalid_argument when no transaction is open. *)

val rollback : t -> int
(** Close the innermost transaction and undo every write made since it
    began, newest first, reopening the marks that were open then. Returns
    the number of entries replayed.
    @raise Invalid_argument when no transaction is open. *)

val push_scope : t -> unit
(** Open a scope. *)

val pop_scope : t -> int
(** Close the innermost scope and undo every write made since it opened,
    newest first, crossing the transactions opened since. Returns the
    number of entries replayed.
    @raise Invalid_argument when no scope is open. *)
