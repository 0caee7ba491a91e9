(** Engine telemetry: monotonic-clock spans, named counters and
    log-bucketed histograms, and an optional JSONL trace-event sink.

    The paper's whole evaluation (§6) is about {e where time goes} —
    e-matching vs rebuilding vs apply, per-rule match counts, database
    growth across iterations — so every layer of the pipeline reports here:
    the generic join (tuples scanned, index builds/reuses, trie depth),
    the semi-naïve loop (per-phase split, delta sizes, scheduler bans),
    rebuilding (congruence rounds, unions, canonicalized tuples) and the
    durability layer (journal append latency, checkpoint timings).
    There is one aggregate kind for values: a span named [X] records its
    duration into the histogram [X_s], next to the histograms that call
    sites record directly.

    Design constraints, mirroring {!Fault}'s injection style:

    - {b Global and off by default.} All recording entry points are no-ops
      behind a single boolean check until {!enable} is called, so the fully
      disabled path costs one predictable branch and allocates nothing.
      Call sites that would have to build a dynamic string or field list
      must guard on {!is_enabled} themselves.
    - {b Monotonic.} {!now} reads CLOCK_MONOTONIC, so wall-clock jumps can
      neither corrupt phase timings nor fire time budgets early. The engine
      uses it for {e all} timing, including [:time-limit] deadlines.
    - {b Deterministic in tests.} {!set_clock} injects a fake clock; every
      timestamp and duration then comes from the injected source. *)

(** A minimal JSON value: enough to print the trace events and bench
    reports this module emits, and to parse them back in tests. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val to_string : t -> string
  (** Compact single-line rendering. A finite float prints as the
      shortest decimal that parses back to it (integral ones without a
      ['.']); non-finite floats print as [null] (JSON has no
      representation for them). *)

  val parse : string -> t
  (** Parse one JSON document. @raise Parse_error on malformed input or
      trailing garbage. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] on missing field or non-object. *)

  val write_file : string -> t -> unit
  (** Write a document plus trailing newline, atomically enough for bench
      reports (plain create/write/close). *)
end

(** {1 Clock} *)

val now : unit -> float
(** Seconds on the telemetry clock. Monotonic (CLOCK_MONOTONIC) by
    default; the absolute value is meaningless, only differences are.
    Works whether or not telemetry is enabled. *)

val set_clock : (unit -> float) -> unit
(** Replace the clock (tests inject a deterministic fake). *)

val use_default_clock : unit -> unit

(** {1 Lifecycle} *)

val enable : ?sink:(string -> unit) -> unit -> unit
(** Turn recording on. [sink], when given, receives one JSON line per
    trace event (no trailing newline); without it only the counters and
    histograms are maintained. The event-time origin is set to
    [now ()] at each call. *)

val disable : unit -> unit
(** Turn recording off and detach any sink. Aggregates are kept (read
    them with {!snapshot}); {!reset} clears them. *)

val is_enabled : unit -> bool

val reset : unit -> unit
(** Zero all counters and registered histograms. Existing {!counter} and
    {!histogram} handles stay valid. *)

(** {1 Counters} *)

type counter
(** A named monotone counter. Handles are interned by name: create them
    once at module initialisation and {!bump} them from hot loops — a bump
    is one branch plus one add, and a no-op while disabled. *)

val counter : string -> counter
val bump : counter -> int -> unit

val record_max : counter -> int -> unit
(** Max-gauge update: the counter's reported value becomes the largest
    [n] ever recorded (e.g. [memory.modeled_bytes_peak]). *)

(** {1 Log-bucketed histograms}

    Deterministic distribution sketches: values land in power-of-two
    buckets (bucket [b] covers [(2^(b-65), 2^(b-64)]]; everything [<= 0]
    lands in bucket 0, [+inf] in the top bucket, NaN is dropped). Bucket
    counts are plain integers and every quantile is a pure function of
    them: the same observations yield byte-identical buckets and
    quantiles. *)

type histogram
(** A histogram handle: one row of bucket counts and one sum. Like
    {!counter} handles, registered ones
    are interned by name; {!hist_create} makes a private, unregistered
    instance (per-session daemon latency, bench loops). *)

val histogram : string -> histogram
(** Intern a named histogram in the global registry; it appears in
    {!snapshot} under that name once it has at least one observation. *)

val hist_create : unit -> histogram
(** A fresh histogram outside the registry: never in {!snapshot}, never
    cleared by {!reset}; the caller owns its lifetime. *)

val hist_record : histogram -> float -> unit
(** Record one value. No-op while disabled (one branch); NaN dropped. *)

type hist_snap = {
  hs_count : int;  (** total observations *)
  hs_sum : float;  (** sum of finite observations (display only) *)
  hs_buckets : (int * int) list;
      (** non-empty buckets, ascending [(bucket, count)] *)
}

val hist_snap_of : histogram -> hist_snap
(** The histogram's non-empty buckets, count and sum. *)

val hist_snap_quantile : hist_snap -> float -> float
(** [hist_snap_quantile hs p] is the upper bound of the bucket holding
    the [ceil (p * count)]-th smallest observation — a power of two, so
    it prints exactly. [0.0] on an empty histogram. *)

val hist_bucket_le : int -> float
(** Upper bound of a bucket index: [2^(b-64)], or [0.0] for bucket 0. *)

val hist_snap_to_json : hist_snap -> Json.t
(** [{"count": n, "sum": s, "p50": ..., "p90": ..., "p99": ...,
    "buckets": [[le, count], ...]}]; quantile and bucket fields are
    omitted when the histogram is empty. All fields are finite. *)

(** {1 Flight recorder and trace context}

    A fixed-size ring of the most recent rendered trace events, captured
    whenever telemetry is enabled — even with no [--trace] sink — so a
    fault always has recent history to dump. While telemetry is disabled
    the recorder costs the same single branch as every other entry
    point. *)

val flightrec_configure : capacity:int -> unit
(** Resize (and clear) the ring. Capacity 0 disables capture. The
    default capacity is 512 events. *)

val flightrec_events : unit -> string list
(** The recorded JSONL lines, oldest first. *)

val flightrec_clear : unit -> unit

val flightrec_dump : path:string -> int
(** Write the ring to [path] as JSONL, oldest first, and return the
    event count. Writes nothing (and creates no file) when empty. *)

val with_trace_id : string -> (unit -> 'a) -> 'a
(** Run the thunk with an ambient trace id: every event emitted inside —
    carries a ["tid"] field. The
    daemon wraps each request in one. Restores the previous id on exit
    (exceptions included). *)

val current_trace_id : unit -> string option

(** {1 Spans and events} *)

val span : string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span: when enabled, emits a begin event
    and an end event (balanced even on exceptions) around it and records
    the duration, once, into the registered histogram [name ^ "_s"]; when
    disabled, calls the thunk directly with zero overhead (the clock is
    not even read). *)

val timed_span : string -> (unit -> 'a) -> float * 'a
(** Like {!span} but always measures and returns the duration, enabled or
    not — for call sites that need the elapsed time regardless (the
    engine's [run_report] phase splits). On exception the span is closed
    and the exception re-raised. *)

val instant : string -> (string * Json.t) list -> unit
(** Emit an instant trace event with extra fields (e.g. a scheduler ban
    with its rule and reason). Dropped unless a sink is attached. Guard
    call sites on {!is_enabled} when building the field list costs. *)

val flush_counters : unit -> unit
(** Emit every counter (["ev":"c"], with ["value"]) and every non-empty
    registered histogram (["ev":"h"], with the {!hist_snap_to_json}
    fields) to the sink, e.g. just before closing a trace file. *)

(** {1 Reports} *)

type snapshot = {
  sn_counters : (string * int) list;  (** sorted by name; zero entries omitted *)
  sn_hists : (string * hist_snap) list;  (** sorted by name; empty ones omitted *)
}

val snapshot : unit -> snapshot

val snapshot_to_json : snapshot -> Json.t
(** Stable schema: [{"counters": {name: n}, "hists": {name: {...}}}],
    each histogram as {!hist_snap_to_json}. Every numeric field is finite
    (NaN observations are dropped at the recording boundary and a
    non-finite sum is clamped), so no emitter downstream ever sees a JSON
    [null]. *)

val prometheus_of_snapshot : snapshot -> string
(** Prometheus text exposition: counters as [egglog_<name>_total],
    histograms as cumulative [egglog_<name>_bucket{le="..."}] series
    with [+Inf], [_sum] and [_count]. Dots in names become underscores. *)

val pp_table : Format.formatter -> snapshot -> unit
(** Human-readable end-of-run table: histograms (count, total, p50, p99)
    then counters; prints nothing at all for an empty snapshot. *)
