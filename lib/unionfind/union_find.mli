(** Union-find (disjoint sets) over dense integer ids, with path compression
    and union by size (§3.3; Tarjan 1975).

    Two egglog-specific extras beyond the textbook structure:
    - unions are recorded in a {e merge log} so the rebuilding procedure
      (§4.2) can find ids whose table occurrences may be stale;
    - [union] reports which id won, because egglog keeps databases
      canonical and callers must re-canonicalize the loser's occurrences.

    Every write — [make_set], [union], the parent writes of path
    compression, [clear_dirty] — pushes its inverse onto the structure's
    {!Trail} while a transaction or scope is open there, so a rollback or
    pop restores the exact parent array, sizes and dirty list. *)

type t

val create : ?trail:Trail.t -> unit -> t
(** [trail] is the undo trail writes are recorded on; by default a private
    one on which no transaction is ever opened. *)

val make_set : t -> int
(** Allocate a fresh id, its own canonical representative. *)

val push_set : t -> int
(** {!make_set} without recording its inverse, for a caller that records
    one entry covering this write and its own: that entry undoes it with
    {!pop_set} and redoes it with [push_set]. *)

val pop_set : t -> unit
(** Forget the newest id; it must be a singleton class. Records nothing. *)

val size : t -> int
(** Number of ids ever allocated. *)

val find : t -> int -> int
(** Canonical representative (with path compression). *)

val union : t -> int -> int -> int
(** Merge the two classes; returns the surviving representative.
    No-op (returning the shared root) when already equal. *)

val equiv : t -> int -> int -> bool

val is_canonical : t -> int -> bool

val dirty : t -> int list
(** Ids dethroned by unions since the last {!clear_dirty}: every id here was
    a canonical representative that lost a union. *)

val has_dirty : t -> bool
val clear_dirty : t -> unit

val n_classes : t -> int
(** Number of distinct equivalence classes among allocated ids. *)
