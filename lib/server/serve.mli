(** The daemon: a single-threaded [select] event loop speaking the JSONL
    protocol over stdio and/or a Unix-domain socket.

    Robustness is the architecture:

    - {b Fault containment.} Every request executes inside
      {!Egglog.Engine.with_transaction} under mandatory node/time budgets
      (client limits are clamped to the server caps, never trusted): a
      failed, malformed or over-budget request is rolled back and answered
      with a typed error reply — it can neither corrupt its session nor
      kill the connection, and other sessions never see it.
    - {b Admission control.} Framed requests pass a bounded queue; when it
      is full they are shed immediately with an [overload] reply carrying
      [retry_after_ms] — the daemon never stalls a connection to hide
      overload, and queued work stays bounded so latency does too.
    - {b Backpressure both ways.} Over-long frames get a [too-large] reply
      (input is discarded to the next newline); a client that stops
      reading until the reply buffer exceeds its cap is disconnected
      rather than allowed to pin server memory.
    - {b Graceful drain.} {!request_drain} (wired to SIGTERM by the CLI)
      finishes the in-flight request, sheds the queue with
      [shutting-down] replies, flushes, checkpoints + closes every
      durable session, closes connections and removes the socket file;
      {!run} then returns so the process can exit 0.
    - {b Durability.} Sessions opened with [durable] journal each
      committed request as one record (after commit, fsync'd before the
      reply — a crash loses at most unacknowledged work) and are
      recovered on the next start. See {!Egglog.Durable}.

    - {b Memory governance.} Budgets are enforced against the engine's
      deterministic modeled byte count ({!Egglog.Engine.modeled_bytes}),
      never [Gc] statistics: per-request [memory_limit]s are clamped by the
      per-session [session_memory_quota]; a session whose retained footprint
      would exceed its quota gets a [quota] reject and a rollback; and when
      the sum over all live sessions exceeds [memory_headroom], admission
      first checkpoint-then-evicts the largest idle sessions and, if still
      over, sheds the request with an [overload] reply. A real
      [Out_of_memory] (or [Stack_overflow]) mid-request is caught, the
      transaction rolled back, and the client gets a [memory] reply — the
      daemon and every other session survive.

    Server-side fault injection points (see {!Egglog.Fault}):
    ["server.request.executed"] (crash after commit, before the journal
    append), ["server.request.journaled"] (crash after the fsync, before
    the reply), ["server.reply.drop"] (drop the connection halfway
    through a reply; the daemon survives), ["server.reply.slow"] (dribble
    the reply one byte per tick — a slow client in the other direction),
    ["server.memory.pressure"] (treat the global headroom cap as zero for
    one request: forces eviction + overload shedding), ["server.oom"]
    (raise [Out_of_memory] inside the request transaction; the daemon
    must roll back and reply, not die).

    {b Observability.} Every request gets a [trace_id] (echoed in its
    reply and stamped on every trace event it emits); request latency
    lands in a deterministic log-bucketed histogram globally and per
    session; [metrics] reports per-session breakdowns and, with
    [{"format":"prometheus"}], text exposition; the always-on flight
    recorder (see {!Egglog.Telemetry}) is dumped to
    [<data-dir>/flightrec-<ts>.jsonl] on crashes, [Out_of_memory],
    recovery quarantine and drain, and on demand via [dump-flightrec]. *)

type config = {
  socket_path : string option;
  use_stdio : bool;
  data_dir : string option;  (** enables durable sessions *)
  max_sessions : int;
  queue_limit : int;  (** admission queue bound *)
  retry_after_ms : int;  (** hint carried by overload sheds *)
  max_input_bytes : int;  (** per-frame and per-program size cap *)
  max_output_bytes : int;  (** per-connection pending-reply cap *)
  node_limit_cap : int;  (** hard per-request node budget (and default) *)
  time_limit_cap_ms : int;  (** hard per-request wall-clock budget (and default) *)
  session_node_quota : int option;  (** max tuples a session may retain *)
  session_memory_quota : int option;
      (** max modeled bytes a session may retain; also clamps per-request
          [memory_limit]s *)
  memory_headroom : int option;
      (** global cap on the summed modeled bytes of all live sessions;
          beyond it, largest-first eviction then [overload] shedding *)
  idle_timeout_s : float option;  (** evict sessions idle longer than this *)
  checkpoint_every : int option;  (** journal checkpoint cadence *)
  slow_log_ms : int option;
      (** requests at or above this duration append a JSONL entry (program,
          budgets, phase breakdown, flight-recorder tail) to
          [<data-dir>/slowlog.jsonl] — stderr without a data dir *)
}

val default_config : config

type t

val create : config -> t
(** Validate the configuration, create the data directory, recover any
    journaled sessions (failures quarantine the session, they do not
    prevent startup), bind the socket. @raise Failure on an unusable
    configuration (no transport, unbindable socket). *)

val recovery_log : t -> string list
(** Human-readable per-session recovery outcomes from {!create}. *)

val run : t -> unit
(** Serve until {!request_drain}. Returns after a complete drain. *)

val request_drain : t -> unit
(** Async-signal-safe: flip the drain flag. The loop notices at the next
    iteration boundary (in-flight work finishes first). *)

val draining : t -> bool
