(** A reusable pool of OCaml 5 domains for the engine's parallel search
    phase.

    Domains are expensive to spawn (fresh minor heaps, OS threads), so the
    pool spawns its workers once and reuses them across every batch: each
    {!run} posts a generation-stamped batch, wakes the workers, has the
    calling domain participate too, and waits for completion. Work is
    handed out in chunks from a shared atomic cursor (a chunked work
    queue), so fast workers steal the tail of the index space from slow
    ones instead of idling.

    Determinism contract: {!run} returns results indexed exactly like its
    input array — scheduling affects only {e which domain} computes a
    slot, never where the result lands. Tasks must therefore be pure
    reads of shared state, or write it under a lock in a way whose
    outcome does not depend on the order (the engine keeps the database
    read-only for the duration, and its join cache locks each lookup). If
    any task raises, the exception for the {e lowest} task
    index is re-raised on the caller (with its backtrace) after all
    workers have drained, matching the failure order of a serial loop;
    the pool itself stays usable.

    "Pure reads" includes the union-find: a task must not call
    [Union_find.find] (or anything that canonicalizes through it, such as
    [Database.canon]), because path compression writes parent pointers
    and, inside a transaction, pushes their inverses onto the engine's
    undo trail ({!Trail}), which is not thread-safe. Search reads table
    rows as stored and never calls [find]; keep it that way.

    Counters: [pool.tasks] (tasks executed) and [pool.steals] (chunk
    grabs beyond a participant's first — a measure of how uneven the
    per-task costs were). *)

type t

val create : workers:int -> t
(** Spawn a pool with [workers] extra domains (clamped to [0, 63] — the
    telemetry shard space; [0] gives a pool where {!run} degenerates to a
    serial loop on the caller). Worker [i] registers telemetry shard
    [i + 1]. *)

val size : t -> int
(** Number of worker domains (excluding the caller). *)

val run : ?participants:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [run pool f tasks] applies [f] to every element and returns the
    results in input order. The caller always participates;
    [participants] additionally caps how many pool workers do (default:
    all of them) so one shared pool can serve runs with different [:jobs]
    settings. Raises [Invalid_argument] when called from inside a task
    (nested parallel runs would deadlock the worker loop). *)

val in_task : unit -> bool
(** True while the calling domain is executing a pool task. *)

val shutdown : t -> unit
(** Stop and join all worker domains. The pool must not be used
    afterwards. Only needed by tests; a live pool's workers sleep on a
    condition variable and die with the process. *)

val global : workers:int -> t
(** The process-wide shared pool, grown (never shrunk) to at least
    [workers] worker domains. The engine uses this so that repeatedly
    created engines — e.g. hundreds of randomized test cases — share one
    set of domains instead of leaking a spawn per engine. *)
