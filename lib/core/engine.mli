(** The egglog engine: declarations, rule storage, the evaluation loop
    ([F_P = R^∞ ∘ T_P^↑] of §4.2, semi-naïve per §4.3 / Algorithm 1),
    rule scheduling, and command execution.

    Construct with {!create}, feed {!Ast.command}s through {!run_command}
    (or use the {!Egglog} facade for textual programs), or drive the typed
    API ({!eval_call}, {!set_fact}, {!union_values}, {!run_iterations})
    directly — the case-study benchmarks use the latter to skip parsing. *)

type scheduler =
  | Simple
  | Backoff of { match_limit : int; ban_length : int }
      (** egg's BackOff scheduler: a rule producing more than
          [match_limit * 2^times_banned] matches is banned for
          [ban_length * 2^times_banned] iterations. *)

val backoff_default : scheduler

type t

val create :
  ?seminaive:bool ->
  ?scheduler:scheduler ->
  ?node_limit:int ->
  ?time_limit:float ->
  ?memory_limit:int ->
  ?jobs:int ->
  unit ->
  t
(** [seminaive:false] gives the paper's egglogNI baseline. [node_limit] /
    [time_limit] / [memory_limit] install session-wide budgets applied to
    every [(run ...)] and [(run-schedule ...)] command (the CLI's
    [--node-limit] / [--time-limit] / [--memory-limit]); per-command
    [:node-limit] / [:time-limit] / [:memory-limit] override them. The
    memory budget is enforced against {!modeled_bytes} — the
    deterministic modeled footprint, never [Gc] statistics — so the same
    program stops at the same iteration on every run. At 70% and 85% of
    the memory limit the engine starts degrading before the hard stop: at
    tier 1 the backoff scheduler tightens (match limits shrink, and the
    backoff policy applies even under [Simple]); at tier 2 the rule with
    the highest modeled byte growth is additionally banned each
    iteration. [jobs] is accepted and ignored: every phase of a run is
    serial. *)

val database : t -> Database.t

val join_cache : t -> Join.cache
(** The join cache the engine's searches share; read by memory probes. *)

exception Egglog_error of string
(** Any user-facing failure: static errors, panics, failed primitives in
    actions, merge conflicts. *)

(** {1 Typed API} *)

val declare_sort : t -> string -> unit
val declare_relation : t -> string -> Ast.tyexpr list -> unit
val declare_function : t -> Ast.function_decl -> unit
val declare_datatype : t -> string -> (string * Ast.tyexpr list) list -> unit
val add_rule : t -> Ast.rule -> unit
val add_rewrite : t -> ?conds:Ast.fact list -> ?ruleset:string -> Ast.expr -> Ast.expr -> unit
val declare_ruleset : t -> string -> unit

val eval_call : t -> string -> Value.t list -> Value.t
(** Get-or-default application (§3.3's "get or make-set"). *)

val set_fact : t -> string -> Value.t list -> Value.t -> unit
val union_values : t -> Value.t -> Value.t -> Value.t
val check_facts : t -> Ast.fact list -> bool
val lookup_fact : t -> string -> Value.t list -> Value.t option
val rebuild : t -> unit

val explain_plans : t -> string
(** Deterministic textual dump of every rule's join plan — the one plan
    its full query and every semi-naïve delta variant run: atoms, the
    compile-time variable order, the primitive schedule and the lowering
    (CLI [--explain-plans]). Reads no table. *)

(** {1 Running} *)

type iteration_stat = {
  it_index : int;  (** 1-based *)
  it_seconds : float;
  it_rows : int;  (** total tuples after the iteration *)
  it_classes : int;
  it_changed : bool;
  it_search_seconds : float;
  it_apply_seconds : float;
  it_rebuild_seconds : float;
  it_matches : int;  (** matches applied *)
  it_delta_rows : int;
      (** tuples (re)stamped during this iteration — the frontier semi-naïve
          evaluation will scan next iteration *)
}

(** Why a run stopped. Budgets are enforced cooperatively: between
    iterations always, and within an iteration after each rule search and
    (throttled) after each applied match, so one explosive iteration cannot
    exhaust memory. A budgeted stop keeps the partial progress (as in egg's
    Runner) and leaves the database rebuilt and usable. *)
type stop_reason =
  | Saturated  (** an iteration changed nothing and no rule is banned *)
  | Iteration_limit  (** ran the requested number of iterations *)
  | Node_limit of int  (** tuple budget tripped; payload = tuples at stop *)
  | Time_limit of float  (** wall-clock budget tripped; payload = elapsed seconds *)
  | Memory_limit of int
      (** modeled byte budget tripped; payload = {!modeled_bytes} at
          stop. Deterministic: the same program trips at the same iteration
          on every run, with byte-identical database state. *)
  | Until_satisfied  (** the [until] facts became derivable *)

val describe_stop_reason : stop_reason -> string

type rule_stat = {
  rs_rule : string;  (** rule name *)
  rs_matches : int;  (** matches applied during this run *)
  rs_inserted : int;
      (** database change events (tuple inserts + unions) performed by the
          rule's actions *)
  rs_deduplicated : int;
      (** matches whose actions changed nothing: semi-naïve duplicates and
          already-derived facts *)
  rs_bans : int;  (** times the scheduler banned the rule during this run *)
  rs_bytes : int;
      (** modeled byte growth of the database attributable to the rule's
          apply phases — what the tier-2 pressure response ranks rules by *)
}
(** Per-rule accounting for one run — enough to diagnose which rule made a
    workload explode, and how much of its matching was wasted. *)

type run_report = {
  iterations : iteration_stat list;  (** in order *)
  stop_reason : stop_reason;
  rule_stats : rule_stat list;  (** in declaration order, searched rules only *)
  total_seconds : float;
  peak_memory_bytes : int;
      (** maximum {!modeled_bytes} observed during the run (at iteration
          boundaries and throttled budget checks) *)
}

val pp_run_report : Format.formatter -> run_report -> unit
(** Summary line, phase split, and a per-rule table. The rule table is
    omitted entirely when no rule was searched (empty or fully-banned
    ruleset) rather than printing a dangling header. *)

val run_iterations :
  ?ruleset:string ->
  ?node_limit:int ->
  ?time_limit:float ->
  ?memory_limit:int ->
  ?until:Ast.fact list ->
  t ->
  int ->
  run_report
(** Run up to [n] iterations, restricted to one named ruleset when given.
    [node_limit] stops once total tuples exceed it; [time_limit] stops after
    that many wall-clock seconds; [memory_limit] stops once the modeled
    footprint ({!modeled_bytes}) exceeds it, degrading
    through the pressure tiers first; [until] stops as soon as all its facts
    are derivable (checked before the first iteration and after each one).
    Each iteration searches every eligible rule against the database as
    it stood at the iteration's start, then applies the matches rule by
    rule, then rebuilds. *)

(** {1 Commands (the textual language)} *)

val run_command : t -> Ast.command -> string list
(** Execute one command; returns its printed outputs (check results,
    extracted terms, …).

    Commands are {e transactional}: if execution raises for any reason (a
    failed check, a mid-run primitive error, a merge conflict, an internal
    invariant violation), the engine is rolled back to its pre-command state
    — database, rules, scheduler state, push/pop stack — before the
    exception is re-raised as {!Egglog_error}. The transaction copies
    nothing: while the command runs, every database write records its
    inverse on the engine's undo trail (see {!Database}), and a rollback
    replays those inverses in place, so a command costs O(writes it makes),
    never O(database). *)

val run_program : t -> Ast.command list -> string list

(** {1 Request machinery (the server)} *)

val with_transaction : t -> (unit -> 'a) -> 'a
(** Run [f] — typically several {!run_command}s plus checks between them —
    as one atomic unit: if it raises, the engine is restored to its exact
    entry state (database, rules, scheduler state, rulesets, push/pop
    stack, declaration log) and the exception is re-raised (normalized to
    {!Egglog_error} where applicable). Transactions nest: the {!run_command}s
    inside [f] open their own on the same undo trail, and an inner commit
    keeps its inverses for the enclosing transaction, so even a request
    that fails after several committed inner commands rolls all of them
    back, and a request that pops a scope an earlier request opened and
    then fails reopens that scope with its contents. Beginning a
    transaction captures only engine scalars (rule states, merge and
    default tables), nothing proportional to the database. *)

val collect_reports : t -> (unit -> 'a) -> 'a * run_report list
(** Run [f] and also return every {!run_report} produced by [run] /
    [run-schedule] / [simplify] commands during it, in execution order —
    how the server detects that a request tripped its node or time budget
    (and must be rolled back) without parsing output strings. Nests. *)

val set_session_limits :
  ?node_limit:int -> ?time_limit:float -> ?memory_limit:int -> t -> unit -> unit
(** Overwrite the session-wide budget defaults ({!create}'s
    [node_limit]/[time_limit]/[memory_limit]) — the server resets these to
    the request's (clamped) limits before executing it. Omitted budgets
    are {e cleared}, not preserved. *)

val modeled_bytes : t -> int
(** {!Database.modeled_bytes} of the engine's database, plus a fixed cost
    per undo-trail entry while a push scope is open (the trail keeps them
    until the pop): the deterministic modeled footprint that run memory
    budgets, pressure tiers, per-rule byte attribution and the server's
    quotas are all accounted against. O(#tables + scope depth). *)

(** {1 Introspection} *)

val decl_commands : t -> Ast.command list
(** The committed schema-shaping history, in order, as replayable commands:
    sorts, functions, rules and rulesets, with sugar (datatype, relation,
    rewrite, define) recorded desugared. Running these into a fresh engine
    reproduces the schema and rule set (including deterministic auto-naming)
    without any data; checkpoints persist this list alongside the data dump.
    Tracks rollback and push/pop like the rest of the engine state. *)

val scope_depth : t -> int
(** Number of open [(push)] scopes. Checkpointing is deferred while > 0. *)

val total_rows : t -> int
val n_classes : t -> int
val table_size : t -> string -> int
val extract_value : t -> Value.t -> Extract.result option
val extract_candidates : t -> Value.t -> max:int -> Extract.term list
