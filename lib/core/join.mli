(** Generic (worst-case optimal) join over per-atom hash tries — the
    execution engine behind e-matching-as-a-relational-query (§5.1).

    Per-atom timestamp windows implement the semi-naïve delta atoms of
    §4.3: variant [j] of a rule restricts atoms before [j] to old rows,
    atom [j] to rows stamped since the rule last ran, and later atoms to
    everything. *)

exception Internal_error of { in_func : Symbol.t option; detail : string }
(** A join invariant was broken (missing table, a join variable no atom
    covers, exhausted trie cursor) — a bug in query planning or scope management, not a user
    error. [in_func] names the function symbol involved when known; the
    engine adds the rule name before surfacing it. *)

type stamp_range = { lo : int; hi : int }
(** Rows with [lo <= stamp < hi] participate. *)

val all_rows : stamp_range

type cache
(** Memo for per-atom tries and indexes, shared by every rule an engine
    searches: the engine keeps one for its lifetime and clears its scratch
    tier each iteration. Keyed by (function, projection signature, stamp
    window), so e.g. every rule whose pattern scans [Add] with the same
    variable shape reuses one trie. Each entry is built or patched once,
    by whichever search asks first. The database must not change while a
    search runs: an entry handed out is read as it was when handed out. *)

val new_cache : unit -> cache

type words = { cache_words : int; trie_words : int; index_words : int }

val own_words : cache -> shared:'a -> words
(** A memory probe: the words reachable from the whole cache, from its
    tries and from its indexes (both tiers) that [shared] does not reach.
    An entry holds the key cells of the rows it covers, so pass the tables
    as [shared] to count what the cache adds. Call after a [Gc.compact] for
    figures that repeat from run to run. *)

val clear_scratch : cache -> unit
(** Drop the per-iteration (delta/windowed) entries; persistent full-table
    entries stay and follow their tables: on the next lookup after a
    write, an entry is patched from its table's change feed
    ({!Table.changes_since}) — each touched key's old version out, its
    current version in — and rebuilt from scratch only when the feed
    touched at least as many keys as the table has rows, or a rollback cut
    it. *)

val clear_all : cache -> unit
(** Drop both tiers. Called after a pop or a transaction rollback: the
    inverses cut the change feeds of the tables they touched, so entries
    over them could only be rebuilt, never patched. *)

(** {2 Compiled plans}

    Every search runs a plan lowered once to a tree of specialized OCaml
    closures (see {!Plan_compile}): typed column readers, hoisted constant
    checks, per-arity binding loops, pre-resolved primitive guards. The
    engine lowers each rule's plan once, when the rule first runs; each
    search instantiates its own mutable state, so one compiled plan
    serves the full query and every delta variant. Matches come out in
    the same order on every run. *)

type compiled

val compile_plan : Compile.cquery -> compiled
(** Lower a plan; its shape alone picks the lowering: a single-atom scan,
    or a two-atom hash join when both atoms bind a variable; the generic
    trie join otherwise — including atomless (pure primitive) queries,
    whose only step runs the primitives and emits. In the first two, an
    atom whose key is all constants, or bound by the driving atom, is a
    lookup ({!Plan_compile.shape}'s [sh_lookup]): one {!Table.get}, a
    window test and an output check or bind, in place of a scan or an
    index. All three bind into one reused environment and run the
    primitive checklist of {!Plan_compile.compile_prims}. *)

val search_compiled :
  Database.t ->
  ?cache:cache ->
  compiled ->
  ranges:stamp_range array ->
  (Value.t array -> unit) ->
  unit
(** Invoke the callback once per match with the variable binding (indexed
    like [cquery.var_names]; the array is reused, callers must copy). *)

val exists : Database.t -> Compile.cquery -> bool
(** Any match at all (all rows considered, no cache)? Lowers the query
    once for this one search; a check whose atoms are all lookups reads
    only the rows at their keys. *)

val describe_lowering : Compile.cquery -> string
(** One-line description of the lowering {!compile_plan} chooses, e.g.
    ["compiled single-atom (arity 2, specialized)"], naming its lookups
    (["..., key lookup: atom 1 when probed)"]) — what [--explain-plans]
    prints. Builds no closures. *)
