(** Admission control: a bounded FIFO of accepted-but-not-yet-executed
    requests. The serve loop reads and frames greedily, so a burst of
    pipelined requests all pass through {!offer} before any executes; once
    the queue is full, {!offer} refuses and the caller sheds the request
    with an explicit overload reply instead of stalling the connection.
    Single-threaded (the serve loop owns it) — no locking. *)

type 'a t

val create : limit:int -> 'a t
(** @raise Invalid_argument when [limit < 1]. *)

val offer : 'a t -> 'a -> bool
(** Enqueue; [false] means full — shed. *)

val take : 'a t -> 'a option
val drain : 'a t -> 'a list
(** Empty the queue, FIFO order (graceful shutdown: shed the backlog). *)

val exists : ('a -> bool) -> 'a t -> bool
(** Some queued request satisfies the predicate. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val limit : 'a t -> int
