(** Deterministic fault injection for the durability subsystem.

    The engine, journal and checkpoint writer call {!hit} at named injection
    points; a test harness arms a schedule deciding at which occurrence of
    which point the process "dies" ({!Crash} is raised, SIGKILL-style — the
    in-memory state is then discarded and recovery from disk is exercised).
    When nothing is armed a hit is a single mutable-flag check, so the
    instrumentation is free in production.

    Points currently wired in:
    - ["journal.append.before"] — record not yet written
    - ["journal.append.torn"] — half a record written, never synced
    - ["journal.append.synced"] — record durable, caller not yet notified
    - ["checkpoint.before"] — nothing written
    - ["checkpoint.unrenamed"] — new journal durable under its temp name,
      the old journal still in place
    - ["checkpoint.renamed"] — the new journal in place, appends not yet
      reopened
    - ["snapshot.before"], ["snapshot.unrenamed"], ["snapshot.renamed"] —
      the same moments of a [--dump] snapshot write
    - ["engine.iteration"] — between rule-application iterations of a run
    - ["engine.top-action"] — before a top-level action executes

    Server-side points (the daemon, see [Egglog_server.Serve]):
    - ["server.request.executed"] — request committed, journal not yet
      appended (a crash here loses the request on recovery)
    - ["server.request.journaled"] — journal fsync'd, reply not yet sent
      (a crash here recovers the request; the client just never heard)
    - ["server.reply.drop"] — non-fatal via {!would_crash}: half a reply is
      written, then the connection drops; the daemon must survive
    - ["server.reply.slow"] — non-fatal via {!would_crash}: the reply
      dribbles out one byte per loop tick (a pathologically slow client) *)

exception Crash of string
(** Simulated process death at the named point. Must never be caught and
    "handled": tests catch it only to discard the engine and recover. *)

val arm : (string -> bool) -> unit
(** Install a schedule: called at every hit with the point name; returning
    [true] crashes there. Hit counting is active while armed. *)

val arm_nth : string -> int -> unit
(** Crash at the [n]-th occurrence (1-based) of the named point. *)

val arm_counting : unit -> unit
(** Record hit counts without ever crashing (to discover a run's points). *)

val disarm : unit -> unit
(** Disable injection and clear counters and the schedule. *)

val hit : string -> unit
(** Consult the schedule; raise {!Crash} if it fires. No-op when disarmed. *)

val would_crash : string -> bool
(** Like {!hit} but returns the verdict instead of raising, so the caller
    can first produce a deliberately partial side effect (e.g. a torn
    journal record) and then call {!crash}. Counts as a hit. *)

val crash : string -> 'a
(** Raise {!Crash} unconditionally. *)

val hit_counts : unit -> (string * int) list
(** Occurrences per point since last {!arm}/{!disarm}, sorted by name. *)
