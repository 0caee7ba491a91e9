(** An undo trail: transactions that roll back by replaying inverse writes.

    While at least one transaction is open, every mutator of a structure
    that shares the trail pushes the inverse of its write (a closure that
    puts the old value back) before writing. Rolling back replays those
    inverses newest-first down to the transaction's mark, so a transaction
    costs O(writes it made), never O(size of the state it could touch).

    With no transaction open, {!recording} is false and a mutator pays one
    branch. Nothing here is thread-safe: a trail and the structures that
    share it belong to one domain at a time. *)

type t

val create : unit -> t
(** A trail with no transaction open. *)

val recording : t -> bool
(** At least one transaction is open: mutators must {!push} inverses. *)

val push : t -> (unit -> unit) -> unit
(** Record the inverse of a write about to happen. The closure must restore
    fields directly and must not call a mutator that records. *)

val begin_txn : t -> unit
(** Open a (possibly nested) transaction: mark the trail's current length. *)

val commit : t -> unit
(** Close the innermost transaction, keeping its state. Its entries stay
    on the trail for an enclosing transaction to undo; committing the
    outermost one drops them all.
    @raise Invalid_argument when no transaction is open. *)

val rollback : t -> int
(** Close the innermost transaction and undo every write made since it
    began, newest first. Returns the number of entries replayed.
    @raise Invalid_argument when no transaction is open. *)
