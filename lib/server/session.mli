(** The session registry: named, isolated engine instances.

    Each session owns its {!Egglog.Engine.t} (and optionally a
    {!Egglog.Durable.t} journal under the daemon's data directory), so no
    request can see or corrupt another session's state. Sessions are
    created on first use; a session whose name has a journal file in the
    data directory is {e always} recovered as durable, whatever the
    request said — a name with durable history can never be silently
    shadowed by an ephemeral session.

    Lifecycle: open (attach or recover) → serve requests → idle eviction
    (checkpoint + close the journal; the name stays recoverable) or
    explicit close → drain at shutdown (checkpoint + close everything).
    A journal that fails to recover quarantines the name: requests get a
    [recovery-failed] reply rather than a fresh session silently forking
    the durable history. *)

module E = Egglog

type session = {
  s_name : string;
  s_engine : E.Engine.t;
  mutable s_durable : E.Durable.t option;
  mutable s_last_used : float;  (** Telemetry.now of the last request *)
  mutable s_requests : int;
  s_hist : E.Telemetry.histogram;
      (** request latency, private to this session (unregistered) *)
}

type t

val create :
  data_dir:string option ->
  max_sessions:int ->
  checkpoint_every:int option ->
  make_engine:(unit -> E.Engine.t) ->
  t

val recover_existing : t -> (string * (E.Durable.recovery_report, string) result) list
(** Scan the data directory for [*.journal] files and recover each into a
    live durable session; failures quarantine the name. Returns what
    happened per name (sorted). Call once at startup. *)

val lookup : t -> name:string -> durable:bool -> now:float -> session
(** Get-or-open. Opening a new name beyond [max_sessions] live sessions,
    an invalid configuration ([durable] without a data dir) or a
    quarantined name raises {!Protocol.Reject}. [durable:true] on a live
    ephemeral session upgrades it (journal attached, then an immediate
    checkpoint captures the current state). *)

val close : t -> name:string -> bool
(** Checkpoint (when possible) and close the session's journal, drop the
    session. False when the name is not live. A durable name remains
    recoverable from its journal. *)

val evict_idle : t -> now:float -> idle_timeout:float -> string list
(** Close every live session idle longer than [idle_timeout] seconds;
    returns the evicted names. *)

val session_bytes : session -> int
(** Modeled footprint of the session's engine ({!E.Engine.modeled_bytes}). *)

val total_bytes : t -> int
(** Sum of {!session_bytes} over every live session — what the daemon's
    global memory headroom is enforced against. Deterministic (modeled, not
    measured). *)

val evict_largest : t -> keep:string -> target_bytes:int -> string list
(** Checkpoint-then-evict live sessions, largest modeled footprint first
    (ties broken by name), until {!total_bytes} is within [target_bytes] or
    no candidate remains. The session named [keep] is never evicted (it is
    the one serving the current request). Returns the evicted names;
    durable victims remain recoverable from their journals. *)

val drain : t -> unit
(** Shutdown path: checkpoint + close every live session. *)

val live_count : t -> int

val live_names : t -> string list
(** Sorted. *)

val quarantined_names : t -> string list
(** Sorted names whose journals failed to recover. *)

(** {2 Per-session attribution}

    The daemon's [metrics] reply reports each session from its own state —
    request count, private latency histogram, modeled bytes, eviction
    churn — never from the global telemetry registry, so one session's
    activity cannot pollute another's numbers. *)

type session_stat = {
  st_requests : int;
  st_bytes : int;  (** modeled bytes, {!session_bytes} *)
  st_durable : bool;
  st_evictions : int;  (** times this {e name} has been evicted *)
  st_latency : E.Telemetry.hist_snap;
}

val note_latency : t -> name:string -> float -> unit
(** Record one request duration into the named session's private
    histogram; no-op when the name is not live. *)

val per_session_stats : t -> (string * session_stat) list
(** Sorted by name; live sessions only. *)

val evictions_of : t -> string -> int

val journal_path : t -> string -> string option
(** Where the name's journal lives (None without a data dir). *)
