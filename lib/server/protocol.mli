(** The daemon's wire protocol: JSON Lines. One request object per line in,
    one reply object per line out, replies carry the request's [id] back.
    See docs/SERVER.md for the full grammar and the error taxonomy.

    A request is
    {[ {"id": <int|string>, "op": "<op>", ...op-specific fields} ]}
    and every reply is either
    {[ {"id": ..., "ok": true, ...result fields} ]}
    or
    {[ {"id": ..., "ok": false,
        "error": {"kind": "<kind>", "message": "...",
                  "retry_after_ms"?: <int>}} ]}

    Every failure an op can hit maps to a typed [error_kind]: a client
    never sees a dead connection in place of a diagnosis, and the kinds
    are stable strings a client can dispatch on. *)

module Json = Egglog.Telemetry.Json

(** Why a request was refused or failed. The daemon's contract: every
    [Failure], engine error, budget stop or internal invariant violation
    surfaces as exactly one of these — never a closed connection. *)
type error_kind =
  | Malformed_frame  (** not JSON, not an object, or missing/ill-typed fields *)
  | Too_large  (** frame or program exceeds the size limit *)
  | Parse_error  (** the program text does not parse *)
  | Engine_error  (** the engine rejected or failed the program *)
  | Budget  (** a run tripped its node or time budget; request rolled back *)
  | Deadline  (** the request exceeded its wall-clock deadline between commands *)
  | Quota
      (** the session's node or modeled-byte quota would be exceeded;
          request rolled back *)
  | Memory
      (** the process ran out of memory (or overflowed the stack) executing
          the request; the transaction was rolled back and the daemon lives *)
  | Overload
      (** admission queue full or global memory headroom exhausted; retry
          after [retry_after_ms] *)
  | Session_limit  (** session table full *)
  | Bad_session  (** invalid session name *)
  | Shutting_down  (** daemon is draining *)
  | Recovery_failed  (** the session's journal could not be recovered *)
  | Unsupported  (** unknown op, or an op the configuration cannot serve *)
  | Internal  (** anything else; the session was rolled back *)

val kind_to_string : error_kind -> string

exception Reject of { kind : error_kind; message : string; retry_after_ms : int option }
(** The one exception the request pipeline uses for typed refusals. *)

val reject : ?retry_after_ms:int -> error_kind -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [reject kind fmt ...] raises {!Reject}. *)

type op =
  | Ping
  | Hello
  | Open_session of { durable : bool }
  | Run of {
      program : string;
      node_limit : int option;
      time_limit_ms : int option;
      memory_limit : int option;  (** modeled-byte budget for the request *)
    }
  | Dump
  | Stats
  | Close_session
  | Metrics of { prometheus : bool }
      (** [format] field: ["json"] (default) or ["prometheus"] *)
  | Dump_flightrec  (** snapshot the flight-recorder ring on demand *)

type request = { rq_id : Json.t; rq_session : string option; rq_op : op }

val parse_request : string -> request
(** Parse one frame. @raise Reject with [Malformed_frame] on anything that
    is not a well-formed request object (the [id], when present and
    well-typed, is still recovered so the error reply can carry it — pull
    it out with {!frame_id} before reporting). *)

val frame_id : string -> Json.t
(** Best-effort extraction of the [id] of a (possibly malformed) frame, so
    error replies can echo it; [Null] when unrecoverable. *)

val needs_session : op -> bool
(** True for ops that address a session ([run], [dump], …). *)

val valid_session_name : string -> bool
(** [A-Za-z0-9_-], 1–64 chars — session names become journal file names,
    so nothing resembling a path ever gets through. *)

val ok_reply : id:Json.t -> (string * Json.t) list -> string
(** One reply line (no trailing newline). When called under
    [Telemetry.with_trace_id] — i.e. from the daemon's request executor —
    the reply carries a ["trace_id"] field matching the tag on every
    trace event the request emitted. Same for {!error_reply}. *)

val error_reply : id:Json.t -> kind:error_kind -> message:string -> ?retry_after_ms:int -> unit -> string

val reject_reply : id:Json.t -> exn -> string
(** Render a {!Reject} (or any other exception, as [Internal]) as a reply
    line. Never raises. *)
