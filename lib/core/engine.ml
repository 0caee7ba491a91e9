exception Egglog_error of string

let error fmt = Format.kasprintf (fun s -> raise (Egglog_error s)) fmt

(* Run-loop telemetry: bumped live from the hot loops (one branch when
   disabled), snapshotted by --stats and the bench harness. *)
let c_iterations = Telemetry.counter "engine.iterations"
let c_plans_built = Telemetry.counter "join.plans_built"
let c_variants_skipped = Telemetry.counter "join.variants_skipped"
let c_matches = Telemetry.counter "engine.matches_applied"
let c_new = Telemetry.counter "engine.tuples_inserted"
let c_dup = Telemetry.counter "engine.matches_deduplicated"
let c_bans = Telemetry.counter "scheduler.bans"
let c_pressure_bans = Telemetry.counter "scheduler.pressure_bans"

(* Memory gauges (recorded as max-counters so the bench telemetry schema is
   unchanged): the modeled footprint drives budgets; the real heap high-water
   mark is telemetry-only — never a budget input, because it depends on
   allocator and GC state and would make stops nondeterministic. *)
let c_mem_modeled = Telemetry.counter "memory.modeled_bytes_peak"
let c_mem_top_heap = Telemetry.counter "memory.top_heap_bytes"

(* Distribution sketches for the evaluation's where-does-time-go story:
   the phase spans record their durations into [engine.search_s],
   [engine.apply_s] and [engine.rebuild_s] (see Telemetry.span), and
   per-rule apply behaviour lands in log-bucketed histograms here, giving
   deterministic quantiles in bench envelopes. [engine.rule_matches] is
   value-based (match-list lengths), so its buckets are byte-identical
   from run to run. *)
let h_rule_matches = Telemetry.histogram "engine.rule_matches"

type scheduler = Simple | Backoff of { match_limit : int; ban_length : int }

let backoff_default = Backoff { match_limit = 1000; ban_length = 5 }

(* Iteration bound for a (run) without a limit, and for one saturate. *)
let run_cap = 1000

type iteration_stat = {
  it_index : int;
  it_seconds : float;
  it_rows : int;
  it_classes : int;
  it_changed : bool;
  it_search_seconds : float;
  it_apply_seconds : float;
  it_rebuild_seconds : float;
  it_matches : int;
  it_delta_rows : int;  (* tuples (re)stamped this iteration: the next semi-naïve frontier *)
}

type stop_reason =
  | Saturated  (* an iteration changed nothing and no rule was banned *)
  | Iteration_limit  (* ran the requested number of iterations *)
  | Node_limit of int  (* total tuples when the budget tripped *)
  | Time_limit of float  (* elapsed seconds when the budget tripped *)
  | Memory_limit of int  (* modeled database bytes when the budget tripped *)
  | Until_satisfied  (* the :until facts became derivable *)

type rule_stat = {
  rs_rule : string;
  rs_matches : int;  (* matches applied during this run *)
  rs_inserted : int;  (* tuples inserted / unions performed by its actions *)
  rs_deduplicated : int;  (* matches whose actions changed nothing *)
  rs_bans : int;  (* times the scheduler banned the rule during this run *)
  rs_bytes : int;  (* modeled byte growth attributable to the rule's actions *)
}

type run_report = {
  iterations : iteration_stat list;
  stop_reason : stop_reason;
  rule_stats : rule_stat list;
  total_seconds : float;
  peak_memory_bytes : int;  (* max modeled database bytes observed during the run *)
}

type rt_rule = {
  rr_name : string;
  rr_ruleset : string;  (* "" = the default ruleset *)
  rr_rule : Compile.crule;
  mutable rr_last_stamp : int;
  mutable rr_times_banned : int;
  mutable rr_banned_until : int;
  mutable rr_plan : Join.compiled option;
      (* the rule's one plan, lowered when the rule first runs (see
         [rule_plan]) *)
}

(* What a transaction or a scope restores besides the database, whose
   writes the undo trail replays: captured when it opens. *)
type saved = {
  sv_rules : rt_rule list;
  sv_rule_states : (int * int * int) list;  (* last_stamp, times_banned, banned_until *)
  sv_iteration : int;
  sv_rule_counter : int;
  sv_rulesets : string list;
  sv_stack : saved list;  (* the scopes open, innermost first *)
  sv_merge_exprs : (Symbol.t, Compile.cexpr) Hashtbl.t;
  sv_default_exprs : (Symbol.t, Compile.cexpr) Hashtbl.t;
  sv_decl_log : Ast.command list;
}

type t = {
  db : Database.t;
  trail : Trail.t;  (* undo trail of every database the engine holds *)
  mutable rules : rt_rule list;  (* in declaration order *)
  mutable merge_exprs : (Symbol.t, Compile.cexpr) Hashtbl.t;
  mutable default_exprs : (Symbol.t, Compile.cexpr) Hashtbl.t;
  mutable stack : saved list;  (* one per open push scope, innermost first *)
  seminaive : bool;
  scheduler : scheduler;
  mutable iteration : int;
  mutable rule_counter : int;
  mutable default_node_limit : int option;  (* session-wide budget (CLI --node-limit) *)
  mutable default_time_limit : float option;  (* session-wide budget (CLI --time-limit) *)
  mutable default_memory_limit : int option;  (* session-wide budget (CLI --memory-limit) *)
  join_cache : Join.cache;
  mutable current_reason : Proof_forest.reason;  (* justification for unions *)
  mutable rulesets : string list;  (* declared named rulesets *)
  mutable decl_log : Ast.command list;  (* reversed; see [decl_commands] *)
  mutable report_sink : run_report list ref option;
      (* when set, every run_iterations pushes its report (see
         [collect_reports] — the server's budget-stop detector) *)
}

let database eng = eng.db
let join_cache eng = eng.join_cache

let save eng =
  {
    sv_rules = eng.rules;
    sv_rule_states =
      List.map (fun r -> (r.rr_last_stamp, r.rr_times_banned, r.rr_banned_until)) eng.rules;
    sv_iteration = eng.iteration;
    sv_rule_counter = eng.rule_counter;
    sv_rulesets = eng.rulesets;
    sv_stack = eng.stack;
    sv_merge_exprs = Hashtbl.copy eng.merge_exprs;
    sv_default_exprs = Hashtbl.copy eng.default_exprs;
    sv_decl_log = eng.decl_log;
  }

(* Put back what [save] captured, once the trail has replayed the writes
   made since. The tables are copied again: a popped scope's record stays
   in the stack a crossed transaction saved, which may restore it. Undone
   tables cut the change feeds the join cache patches from, so its entries
   could only be rebuilt; drop them all. *)
let restore eng sv =
  eng.rules <- sv.sv_rules;
  List.iter2
    (fun r (ls, tb, bu) ->
      r.rr_last_stamp <- ls;
      r.rr_times_banned <- tb;
      r.rr_banned_until <- bu)
    sv.sv_rules sv.sv_rule_states;
  eng.iteration <- sv.sv_iteration;
  eng.rule_counter <- sv.sv_rule_counter;
  eng.rulesets <- sv.sv_rulesets;
  eng.stack <- sv.sv_stack;
  eng.merge_exprs <- Hashtbl.copy sv.sv_merge_exprs;
  eng.default_exprs <- Hashtbl.copy sv.sv_default_exprs;
  eng.decl_log <- sv.sv_decl_log;
  Join.clear_all eng.join_cache;
  eng.current_reason <- Proof_forest.Asserted

let compile_env eng : Compile.env =
  {
    Compile.find_func =
      (fun name ->
        match Database.find_func eng.db (Symbol.intern name) with
        | Some table -> Some (Table.func table)
        | None -> None);
  }

(* ------------------------------------------------------------------ *)
(* Evaluation of compiled expressions and actions                      *)
(* ------------------------------------------------------------------ *)

let table_of eng (f : Schema.func) =
  match Database.find_func eng.db f.Schema.name with
  | Some t -> t
  | None -> error "function %s is not declared (popped scope?)" (Symbol.name f.Schema.name)

(* ------------------------------------------------------------------ *)
(* Rule plans                                                          *)
(* ------------------------------------------------------------------ *)

(* A rule's one plan: its compile-time variable order, lowered to
   closures the first time the rule runs and reused by the full query and
   every delta variant after. *)
let rule_plan (r : rt_rule) : Join.compiled =
  match r.rr_plan with
  | Some cp -> cp
  | None ->
    Telemetry.bump c_plans_built 1;
    let cp = Join.compile_plan r.rr_rule.Compile.cr_query in
    r.rr_plan <- Some cp;
    cp

let rec eval_expr eng (slots : Value.t array) (e : Compile.cexpr) : Value.t =
  match e with
  | Compile.C_var i -> slots.(i)
  | Compile.C_const v -> v
  | Compile.C_func (f, args) -> (
    let vals = Array.map (eval_expr eng slots) args in
    let table = table_of eng f in
    match Database.lookup eng.db table vals with
    | Some v -> v
    | None ->
      let v =
        match f.Schema.default with
        | Schema.Default_fresh -> (
          match f.Schema.ret_ty with
          | Ty.Sort s -> Database.fresh_id eng.db s
          | _ -> error "internal error: Default_fresh on base-type function")
        | Schema.Default_expr _ ->
          eval_expr eng [||] (Hashtbl.find eng.default_exprs f.Schema.name)
        | Schema.Default_panic ->
          error "function %s is not defined on %s" (Symbol.name f.Schema.name)
            (String.concat " " (Array.to_list (Array.map Value.to_string vals)))
      in
      Database.set eng.db table vals v;
      Database.canon eng.db v)
  | Compile.C_prim (p, args) -> (
    let vals = Array.map (fun a -> Database.canon eng.db (eval_expr eng slots a)) args in
    match p.Primitives.impl vals with
    | Some v -> v
    | None ->
      error "primitive %s failed on %s" p.Primitives.pname
        (String.concat " " (Array.to_list (Array.map Value.to_string vals))))

let exec_action eng (slots : Value.t array) (a : Compile.caction) =
  match a with
  | Compile.C_set (f, args, value) ->
    let vals = Array.map (eval_expr eng slots) args in
    let v = eval_expr eng slots value in
    Database.set eng.db (table_of eng f) vals v
  | Compile.C_union (e1, e2) ->
    let v1 = eval_expr eng slots e1 and v2 = eval_expr eng slots e2 in
    ignore (Database.union eng.db ~reason:eng.current_reason v1 v2)
  | Compile.C_let (slot, e) -> slots.(slot) <- eval_expr eng slots e
  | Compile.C_do e -> ignore (eval_expr eng slots e)
  | Compile.C_panic msg -> error "panic: %s" msg
  | Compile.C_delete (f, args) ->
    let vals = Array.map (eval_expr eng slots) args in
    Database.remove eng.db (table_of eng f) vals

let create ?(seminaive = true) ?(scheduler = Simple) ?node_limit ?time_limit ?memory_limit
    ?jobs:(_ : int option) () =
  let trail = Trail.create () in
  let eng =
    {
      db = Database.create ~trail ();
      trail;
      rules = [];
      merge_exprs = Hashtbl.create 16;
      default_exprs = Hashtbl.create 16;
      stack = [];
      seminaive;
      scheduler;
      iteration = 0;
      rule_counter = 0;
      default_node_limit = node_limit;
      default_time_limit = time_limit;
      default_memory_limit = memory_limit;
      join_cache = Join.new_cache ();
      current_reason = Proof_forest.Asserted;
      rulesets = [];
      decl_log = [];
      report_sink = None;
    }
  in
  Database.set_merge_hook eng.db (fun func old_v new_v ->
      match Hashtbl.find_opt eng.merge_exprs func.Schema.name with
      | Some ce -> eval_expr eng [| old_v; new_v |] ce
      | None -> error "internal error: missing merge expression for %s" (Symbol.name func.Schema.name));
  eng

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let rec resolve_ty eng (t : Ast.tyexpr) : Ty.t =
  match t with
  | Ast.T_set inner -> Ty.Set (resolve_ty eng inner)
  | Ast.T_vec inner -> Ty.Vec (resolve_ty eng inner)
  | Ast.T_name name -> (
    match name with
    | "i64" -> Ty.Int
    | "Unit" | "unit" -> Ty.Unit
    | "bool" | "Bool" -> Ty.Bool
    | "String" -> Ty.String
    | "Rational" -> Ty.Rational
    | _ ->
      if Database.is_sort eng.db (Symbol.intern name) then Ty.Sort (Symbol.intern name)
      else error "unknown type %s" name)

(* The declaration log records every committed schema-shaping operation
   (sorts, functions, rules, rulesets) as a replayable command, at the level
   of the primitive typed-API entry points: sugar (datatype, relation,
   rewrite, define) is logged desugared, so replaying the log into a fresh
   engine reproduces the schema, the rule set and the deterministic
   auto-naming counters exactly. Checkpoints persist this log alongside the
   data dump (a {!Serialize.dump} carries no declarations). *)
let log_decl eng cmd = eng.decl_log <- cmd :: eng.decl_log
let decl_commands eng = List.rev eng.decl_log
let scope_depth eng = List.length eng.stack

let declare_sort eng name =
  let sym = Symbol.intern name in
  if Database.is_sort eng.db sym then error "sort %s is already declared" name;
  Database.declare_sort eng.db sym;
  log_decl eng (Ast.Decl_sort name)

let wrap_compile f = try f () with Compile.Error msg -> raise (Egglog_error msg)

let declare_function eng (decl : Ast.function_decl) =
  wrap_compile (fun () ->
      let arg_tys = Array.of_list (List.map (resolve_ty eng) decl.arg_tys) in
      let ret_ty = resolve_ty eng decl.ret_ty in
      let name = Symbol.intern decl.fname in
      let merge =
        match decl.merge with
        | Ast.Merge_expr e -> Schema.Merge_expr e
        | Ast.Merge_default ->
          if Ty.is_sort ret_ty then Schema.Merge_union
          else if Ty.equal ret_ty Ty.Unit then Schema.Merge_union (* never conflicts *)
          else Schema.Merge_panic
      in
      let default =
        match decl.default with
        | Some e -> Schema.Default_expr e
        | None ->
          if Ty.is_sort ret_ty then Schema.Default_fresh
          else if Ty.equal ret_ty Ty.Unit then Schema.Default_expr (Ast.Lit Value.VUnit)
          else Schema.Default_panic
      in
      let func =
        {
          Schema.name;
          arg_tys;
          ret_ty;
          merge;
          default;
          cost = Option.value decl.cost ~default:1;
          is_relation = Ty.equal ret_ty Ty.Unit;
        }
      in
      (try Database.declare_func eng.db func
       with Invalid_argument msg -> error "%s" msg);
      let env = compile_env eng in
      (match merge with
       | Schema.Merge_expr e -> Hashtbl.replace eng.merge_exprs name (Compile.compile_merge_expr env func e)
       | Schema.Merge_union | Schema.Merge_panic -> ());
      (match default with
       | Schema.Default_expr e ->
         let ce, _ = Compile.compile_closed_expr env ~expected:ret_ty e in
         Hashtbl.replace eng.default_exprs name ce
       | Schema.Default_fresh | Schema.Default_panic -> ());
      log_decl eng (Ast.Decl_function decl))

let declare_relation eng name arg_tys =
  declare_function eng
    {
      Ast.fname = name;
      arg_tys;
      ret_ty = Ast.T_name "Unit";
      merge = Ast.Merge_default;
      default = None;
      cost = None;
    }

let declare_datatype eng name variants =
  declare_sort eng name;
  List.iter
    (fun (cname, args) ->
      declare_function eng
        {
          Ast.fname = cname;
          arg_tys = args;
          ret_ty = Ast.T_name name;
          merge = Ast.Merge_default;
          default = None;
          cost = None;
        })
    variants

let add_rule eng (rule : Ast.rule) =
  wrap_compile (fun () ->
      let name =
        match rule.Ast.rule_name with
        | Some n -> n
        | None ->
          eng.rule_counter <- eng.rule_counter + 1;
          Printf.sprintf "rule_%d" eng.rule_counter
      in
      let crule = Compile.compile_rule (compile_env eng) ~name rule in
      let ruleset = Option.value rule.Ast.ruleset ~default:"" in
      if ruleset <> "" && not (List.mem ruleset eng.rulesets) then
        error "unknown ruleset %s (declare it with (ruleset %s))" ruleset ruleset;
      let rt =
        {
          rr_name = name;
          rr_ruleset = ruleset;
          rr_rule = crule;
          rr_last_stamp = 0;
          rr_times_banned = 0;
          rr_banned_until = 0;
          rr_plan = None;
        }
      in
      eng.rules <- eng.rules @ [ rt ];
      log_decl eng (Ast.Add_rule rule))

let declare_ruleset eng name =
  if List.mem name eng.rulesets then error "ruleset %s is already declared" name;
  eng.rulesets <- name :: eng.rulesets;
  log_decl eng (Ast.Decl_ruleset name)

let rewrite_counter = ref 0

let add_rewrite eng ?(conds = []) ?ruleset lhs rhs =
  incr rewrite_counter;
  let v = Printf.sprintf "__rewrite_%d" !rewrite_counter in
  add_rule eng
    {
      Ast.rule_name = None;
      query = conds @ [ Ast.Eq (Ast.Var v, lhs) ];
      actions = [ Ast.Union (Ast.Var v, rhs) ];
      ruleset;
    }

(* ------------------------------------------------------------------ *)
(* Typed fact API                                                      *)
(* ------------------------------------------------------------------ *)

let find_table_exn eng name =
  match Database.find_func eng.db (Symbol.intern name) with
  | Some t -> t
  | None -> error "unknown function %s" name

let eval_call eng name args =
  let table = find_table_exn eng name in
  eval_expr eng (Array.of_list args)
    (Compile.C_func
       (Table.func table, Array.of_list (List.mapi (fun i _ -> Compile.C_var i) args)))

let set_fact eng name args value =
  Database.set eng.db (find_table_exn eng name) (Array.of_list args) value

let union_values eng a b = Database.union eng.db a b
let rebuild eng = Database.rebuild eng.db

let lookup_fact eng name args =
  Database.lookup eng.db (find_table_exn eng name) (Array.of_list args)

let check_facts eng facts =
  wrap_compile (fun () ->
      Database.rebuild eng.db;
      match Compile.compile_query (compile_env eng) facts with
      | q -> Join.exists eng.db q
      | exception Compile.Unsat -> false)

(* Deterministic dump of every rule's plan: atoms, variable order,
   primitive schedule and lowering. A plan is fixed when its rule is
   compiled, so the dump reads no table. *)
let explain_plans eng : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun r ->
      let q = r.rr_rule.Compile.cr_query in
      let ruleset = if r.rr_ruleset = "" then "default" else r.rr_ruleset in
      Buffer.add_string buf (Printf.sprintf "rule %s (ruleset %s)\n" r.rr_name ruleset);
      if Array.length q.Compile.atoms = 0 then Buffer.add_string buf "  (no atoms)\n"
      else begin
        let lowering = Join.describe_lowering q in
        let dump = Format.asprintf "%a" (Compile.pp_plan ~lowering) q in
        List.iter
          (fun line -> Buffer.add_string buf ("  " ^ line ^ "\n"))
          (String.split_on_char '\n' dump)
      end)
    eng.rules;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The run loop                                                        *)
(* ------------------------------------------------------------------ *)

let describe_stop_reason = function
  | Saturated -> "saturated"
  | Iteration_limit -> "iteration limit"
  | Node_limit n -> Printf.sprintf "node limit, %d tuples" n
  | Time_limit s -> Printf.sprintf "time limit after %.2fs" s
  | Memory_limit b -> Printf.sprintf "memory limit, %d modeled bytes" b
  | Until_satisfied -> "until condition satisfied"

(* Raised cooperatively inside the run loop when a budget trips. Never
   escapes run_iterations. *)
exception Stop_run of stop_reason

(* The search units of one rule: per-atom stamp ranges, one array per
   variant, in ascending variant order. One full-range unit when
   semi-naïve doesn't apply; otherwise the delta variants — atom j sees
   rows new since the rule last ran, the others see everything. A match
   whose rows are new in k atoms is found k times; egglog actions are
   idempotent (set/union), so the duplicates are harmless, and the scheme
   lets every variant reuse the same cached full-table tries (only the
   tiny delta trie differs). Variant j is dropped when atom j's table
   logged nothing since the rule last ran: its delta scan reads exactly
   those log entries, so it could yield nothing, and skipping it also
   skips building or patching its full-table structures. *)
let rule_variants eng (r : rt_rule) : Join.stamp_range array list =
  let atoms = r.rr_rule.Compile.cr_query.Compile.atoms in
  let n_atoms = Array.length atoms in
  let low = r.rr_last_stamp in
  if (not eng.seminaive) || low = 0 || n_atoms = 0 then
    [ Array.make n_atoms Join.all_rows ]
  else
    List.filter_map
      (fun j ->
        if Table.entries_since (table_of eng atoms.(j).Compile.a_func) low = 0 then begin
          Telemetry.bump c_variants_skipped 1;
          None
        end
        else
          Some
            (Array.init n_atoms (fun i ->
                 if i = j then { Join.lo = low; hi = max_int } else Join.all_rows)))
      (List.init n_atoms Fun.id)

exception Limit_reached

(* Search every variant of a rule, in ascending variant order, into one
   list: matches come back in reversed discovery order (the natural cons
   order), the last variant's first. The plan is lowered on the first
   variant searched, so a rule whose variants are all skipped builds none.
   The search stops at its [threshold + 1]th match, counted across the
   variants, as egg's [search_with_limit] does: a longer list only gets
   the rule banned, so the ban test sees the same answer. *)
let search_matches eng (r : rt_rule) ~threshold : Value.t array list =
  let acc = ref [] and n = ref 0 in
  let emit b =
    acc := Array.copy b :: !acc;
    incr n;
    if !n > threshold then raise Limit_reached
  in
  (try
     List.iter
       (fun ranges ->
         Join.search_compiled eng.db ~cache:eng.join_cache (rule_plan r) ~ranges emit)
       (rule_variants eng r)
   with Limit_reached -> ());
  !acc

let apply_match eng (r : rt_rule) (binding : Value.t array) =
  eng.current_reason <- Proof_forest.Rule r.rr_name;
  let crule = r.rr_rule in
  let slots = Array.make crule.Compile.cr_slots Value.VUnit in
  Array.blit binding 0 slots 0 (Array.length binding);
  (* Re-canonicalize: earlier matches in this application phase may have
     unioned ids that appear in this binding. *)
  for i = 0 to Array.length binding - 1 do
    slots.(i) <- Database.canon eng.db slots.(i)
  done;
  Array.iter (exec_action eng slots) crule.Compile.cr_actions

let any_banned eng = List.exists (fun r -> r.rr_banned_until > eng.iteration) eng.rules

type phase_times = {
  mutable ph_search : float;
  mutable ph_apply : float;
  mutable ph_rebuild : float;
  mutable ph_matches : int;
  mutable ph_delta : int;
}

(* Per-rule accounting across one run. [ra_inserted] counts database change
   events (inserts + unions) attributable to the rule's actions;
   [ra_deduplicated] counts matches whose actions changed nothing — the
   semi-naïve duplicates and already-derived facts. *)
type rule_acc = {
  mutable ra_matches : int;
  mutable ra_inserted : int;
  mutable ra_deduplicated : int;
  mutable ra_bytes : int;  (* modeled byte growth from the rule's apply phases *)
}

let rule_acc_for tbl name =
  match Hashtbl.find_opt tbl name with
  | Some acc -> acc
  | None ->
    let acc = { ra_matches = 0; ra_inserted = 0; ra_deduplicated = 0; ra_bytes = 0 } in
    Hashtbl.replace tbl name acc;
    acc

(* Re-raise join invariant failures with the rule that triggered them. *)
let with_rule_context (r : rt_rule) f =
  try f ()
  with Join.Internal_error { in_func; detail } ->
    let where =
      match in_func with
      | Some fn -> Printf.sprintf " (function %s)" (Symbol.name fn)
      | None -> ""
    in
    error "internal error in rule %s%s: %s" r.rr_name where detail

let no_budget_check ~within_iteration:_ = ()

(* While a scope is open the trail keeps every inverse until the pop, past
   the commit of the command that recorded it, so the footprint counts each
   at a fixed cost: the closure with its captures and its trail slot. Run
   budgets and the daemon's quotas all read this one figure. *)
let trail_entry_cost = 64
let modeled_bytes eng = Database.modeled_bytes eng.db + (Trail.held eng.trail * trail_entry_cost)

(* The fractions of a run's memory limit at which pressure tiers 1 and 2
   begin. *)
let pressure_tier1 = 0.7
let pressure_tier2 = 0.85

(* One rule's slice of the apply phase: every match in search order, with
   the per-rule and per-match accounting. *)
let apply_rule eng ~budget_check ~rule_accs ~t0 (ph : phase_times) (r : rt_rule) matches =
  let db = eng.db in
  let rule_t0 = if Telemetry.is_enabled () then Telemetry.now () else 0.0 in
  let n_matches = List.length matches in
  ph.ph_matches <- ph.ph_matches + n_matches;
  Telemetry.bump c_matches n_matches;
  let acc =
    match rule_accs with
    | Some tbl ->
      let acc = rule_acc_for tbl r.rr_name in
      acc.ra_matches <- acc.ra_matches + n_matches;
      Some acc
    | None -> None
  in
  let bytes_before = match acc with Some _ -> modeled_bytes eng | None -> 0 in
  List.iter
    (fun binding ->
      let changes_before = Database.change_counter db in
      with_rule_context r (fun () -> apply_match eng r binding);
      let delta = Database.change_counter db - changes_before in
      if delta = 0 then Telemetry.bump c_dup 1 else Telemetry.bump c_new delta;
      (match acc with
       | Some acc ->
         if delta = 0 then acc.ra_deduplicated <- acc.ra_deduplicated + 1
         else acc.ra_inserted <- acc.ra_inserted + delta
       | None -> ());
      budget_check ~within_iteration:true)
    matches;
  (match acc with
   | Some acc -> acc.ra_bytes <- acc.ra_bytes + (modeled_bytes eng - bytes_before)
   | None -> ());
  r.rr_last_stamp <- t0 + 1;
  if Telemetry.is_enabled () then begin
    Telemetry.hist_record h_rule_matches (float_of_int n_matches);
    Telemetry.hist_record
      (Telemetry.histogram ("rule.apply_s." ^ r.rr_name))
      (Telemetry.now () -. rule_t0)
  end

let run_one_iteration ?ruleset ?(budget_check = no_budget_check)
    ?(rule_accs : (string, rule_acc) Hashtbl.t option) ?(pressure = 0) eng
    (ph : phase_times) : bool =
  let in_scope r =
    match ruleset with None -> true | Some rs -> r.rr_ruleset = rs
  in
  (* Durability injection point: a crash here models process death in the
     middle of a long fixpoint run ("mid-run apply"). *)
  Fault.hit "engine.iteration";
  Telemetry.bump c_iterations 1;
  let db = eng.db in
  Database.rebuild db;
  eng.iteration <- eng.iteration + 1;
  (* Tier-2 memory pressure: before searching, ban the not-yet-banned rule
     whose apply phases have grown the modeled footprint the most this run,
     shedding the biggest allocator before the hard stop. Deterministic:
     byte deltas are modeled, ties break by declaration order. *)
  (match rule_accs with
   | Some tbl when pressure >= 2 ->
     let best = ref None in
     List.iter
       (fun r ->
         if in_scope r && r.rr_banned_until <= eng.iteration then
           match Hashtbl.find_opt tbl r.rr_name with
           | Some acc when acc.ra_bytes > 0 -> (
             match !best with
             | Some (_, b) when b >= acc.ra_bytes -> ()
             | Some _ | None -> best := Some (r, acc.ra_bytes))
           | Some _ | None -> ())
       eng.rules;
     (match !best with
      | Some (r, bytes) ->
        let ban_length =
          match eng.scheduler with Backoff { ban_length; _ } -> ban_length | Simple -> 5
        in
        r.rr_banned_until <- eng.iteration + (ban_length lsl r.rr_times_banned);
        r.rr_times_banned <- r.rr_times_banned + 1;
        Telemetry.bump c_pressure_bans 1;
        if Telemetry.is_enabled () then
          Telemetry.instant "engine.memory.pressure"
            [
              ("rule", Telemetry.Json.Str r.rr_name);
              ("reason", Telemetry.Json.Str "highest-byte-growth");
              ("bytes", Telemetry.Json.Int bytes);
              ("banned_until", Telemetry.Json.Int r.rr_banned_until);
            ]
      | None -> ())
   | Some _ | None -> ());
  (* Under memory pressure the backoff policy tightens — match limits
     shrink 8x per tier — and applies even when the configured scheduler
     is Simple, so runs degrade to slower-but-bounded before the hard
     memory stop. Pressure is computed from modeled bytes, so the
     tightening is identical from run to run. One policy sets both the
     search cap and the ban. *)
  let effective_scheduler =
    if pressure <= 0 then eng.scheduler
    else begin
      let base = match eng.scheduler with Backoff _ as b -> b | Simple -> backoff_default in
      match base with
      | Backoff { match_limit; ban_length } ->
        Backoff { match_limit = max 1 (match_limit lsr (3 * pressure)); ban_length }
      | Simple -> Simple
    end
  in
  let threshold r =
    match effective_scheduler with
    | Simple -> max_int
    | Backoff { match_limit; _ } -> match_limit lsl r.rr_times_banned
  in
  let t0 = Database.timestamp db in
  let changes0 = Database.change_counter db in
  let log0 = Database.total_log_entries db in
  Join.clear_scratch eng.join_cache;
  (* The change feeds computed for the join cache serve this phase only. *)
  let dt_search, searched =
    Telemetry.timed_span "engine.search" (fun () ->
        Fun.protect
          ~finally:(fun () -> Database.iter_tables db Table.drop_feed)
          (fun () ->
            let eligible =
              List.filter
                (fun r -> in_scope r && r.rr_banned_until <= eng.iteration)
                eng.rules
            in
            List.map
              (fun r ->
                let threshold = threshold r in
                let matches =
                  with_rule_context r (fun () -> search_matches eng r ~threshold)
                in
                budget_check ~within_iteration:true;
                (r, threshold, matches))
              eligible))
  in
  ph.ph_search <- ph.ph_search +. dt_search;
  let to_apply =
    List.filter_map
      (fun (r, threshold, matches) ->
        match effective_scheduler with
        | Simple -> Some (r, matches)
        | Backoff { ban_length; _ } ->
          let n_matches = List.length matches in
          if n_matches > threshold then begin
            r.rr_banned_until <- eng.iteration + (ban_length lsl r.rr_times_banned);
            r.rr_times_banned <- r.rr_times_banned + 1;
            Telemetry.bump c_bans 1;
            if Telemetry.is_enabled () then
              Telemetry.instant "scheduler.ban"
                [
                  ("rule", Telemetry.Json.Str r.rr_name);
                  ( "reason",
                    Telemetry.Json.Str
                      (if pressure > 0 then "memory-pressure" else "match-limit-exceeded") );
                  ("matches", Telemetry.Json.Int n_matches);
                  ("threshold", Telemetry.Json.Int threshold);
                  ("banned_until", Telemetry.Json.Int r.rr_banned_until);
                  ("times_banned", Telemetry.Json.Int r.rr_times_banned);
                ];
            None
          end
          else Some (r, matches))
      searched
  in
  Database.bump_timestamp db;
  let dt_apply, () =
    Telemetry.timed_span "engine.apply" (fun () ->
        List.iter
          (fun (r, matches) -> apply_rule eng ~budget_check ~rule_accs ~t0 ph r matches)
          to_apply)
  in
  eng.current_reason <- Proof_forest.Asserted;
  ph.ph_apply <- ph.ph_apply +. dt_apply;
  let dt_rebuild, () =
    Telemetry.timed_span "engine.rebuild" (fun () -> Database.rebuild db)
  in
  ph.ph_rebuild <- ph.ph_rebuild +. dt_rebuild;
  ph.ph_delta <- ph.ph_delta + (Database.total_log_entries db - log0);
  Database.change_counter db > changes0

let run_iterations ?ruleset ?node_limit ?time_limit ?memory_limit ?(until = []) eng n =
  let start_all = Telemetry.now () in
  let stats = ref [] in
  let total = ref 0.0 in
  let rule_accs : (string, rule_acc) Hashtbl.t = Hashtbl.create 16 in
  let bans0 = List.map (fun r -> (r, r.rr_times_banned)) eng.rules in
  (* Budgets are checked cooperatively: between iterations always, and
     within an iteration after every rule search and (throttled) after each
     applied match, so one explosive iteration cannot run away. Deadlines
     read the telemetry clock (monotonic), so a wall-clock jump can neither
     fire a time budget early nor let a run outlive it. The memory budget
     reads the modeled footprint — a pure function of database contents, so
     it trips at the same tick on every run. *)
  let peak_bytes = ref 0 in
  let note_bytes () =
    let b = modeled_bytes eng in
    if b > !peak_bytes then peak_bytes := b;
    b
  in
  (* Pressure level against the memory limit: 0 below tier 1, then 1, then
     2 at tier 2. Recomputed between iterations (never mid-iteration, so
     one iteration sees one consistent policy). *)
  let pressure_of bytes =
    match memory_limit with
    | None -> 0
    | Some m ->
      let fb = float_of_int bytes and fm = float_of_int m in
      if fb >= pressure_tier2 *. fm then 2 else if fb >= pressure_tier1 *. fm then 1 else 0
  in
  let tick = ref 0 in
  let budget_check ~within_iteration =
    let due =
      if not within_iteration then true
      else begin
        incr tick;
        !tick land 15 = 0
      end
    in
    if due then begin
      (match node_limit with
       | Some k ->
         let rows = Database.total_rows eng.db in
         if rows > k then raise (Stop_run (Node_limit rows))
       | None -> ());
      (match memory_limit with
       | Some m ->
         let b = note_bytes () in
         if b > m then raise (Stop_run (Memory_limit b))
       | None -> ());
      match time_limit with
      | Some s ->
        let dt = Telemetry.now () -. start_all in
        if dt > s then raise (Stop_run (Time_limit dt))
      | None -> ()
    end
  in
  let until_holds () = until <> [] && check_facts eng until in
  let stop = ref Iteration_limit in
  let pressure = ref (pressure_of (note_bytes ())) in
  (try
     if until_holds () then raise (Stop_run Until_satisfied);
     budget_check ~within_iteration:false;
     for i = 1 to n do
       let ph =
         { ph_search = 0.0; ph_apply = 0.0; ph_rebuild = 0.0; ph_matches = 0; ph_delta = 0 }
       in
       let dt, outcome =
         Telemetry.timed_span "engine.iteration" (fun () ->
             let outcome =
               try
                 Ok
                   (run_one_iteration ?ruleset ~budget_check ~rule_accs ~pressure:!pressure eng
                      ph)
               with Stop_run r -> Error r
             in
             (* A budget can trip mid-iteration; restore the canonical
                invariant before reporting (partial progress is kept, as in
                egg). *)
             (match outcome with
              | Error _ ->
                eng.current_reason <- Proof_forest.Asserted;
                Database.rebuild eng.db
              | Ok _ -> ());
             outcome)
       in
       total := !total +. dt;
       let bytes_now = note_bytes () in
       let p = pressure_of bytes_now in
       if p <> !pressure && Telemetry.is_enabled () then
         Telemetry.instant "engine.memory.pressure"
           [
             ("level", Telemetry.Json.Int p);
             ("bytes", Telemetry.Json.Int bytes_now);
             ( "limit",
               Telemetry.Json.Int (match memory_limit with Some m -> m | None -> 0) );
           ];
       pressure := p;
       let stat =
         {
           it_index = i;
           it_seconds = dt;
           it_rows = Database.total_rows eng.db;
           it_classes = Database.n_classes eng.db;
           it_changed = (match outcome with Ok c -> c | Error _ -> true);
           it_search_seconds = ph.ph_search;
           it_apply_seconds = ph.ph_apply;
           it_rebuild_seconds = ph.ph_rebuild;
           it_matches = ph.ph_matches;
           it_delta_rows = ph.ph_delta;
         }
       in
       stats := stat :: !stats;
       if Telemetry.is_enabled () then
         Telemetry.instant "engine.iteration.stat"
           [
             ("iter", Telemetry.Json.Int eng.iteration);
             ("rows", Telemetry.Json.Int stat.it_rows);
             ("classes", Telemetry.Json.Int stat.it_classes);
             ("delta_rows", Telemetry.Json.Int stat.it_delta_rows);
             ("matches", Telemetry.Json.Int stat.it_matches);
             ("changed", Telemetry.Json.Bool stat.it_changed);
           ];
       match outcome with
       | Error r -> raise (Stop_run r)
       | Ok changed ->
         if until_holds () then raise (Stop_run Until_satisfied);
         budget_check ~within_iteration:false;
         if (not changed) && not (any_banned eng) then raise (Stop_run Saturated)
     done
   with Stop_run r -> stop := r);
  let rule_stats =
    List.filter_map
      (fun (r, bans_before) ->
        let in_scope =
          match ruleset with None -> true | Some rs -> r.rr_ruleset = rs
        in
        if not in_scope then None
        else begin
          let acc =
            Option.value (Hashtbl.find_opt rule_accs r.rr_name)
              ~default:{ ra_matches = 0; ra_inserted = 0; ra_deduplicated = 0; ra_bytes = 0 }
          in
          Some
            {
              rs_rule = r.rr_name;
              rs_matches = acc.ra_matches;
              rs_inserted = acc.ra_inserted;
              rs_deduplicated = acc.ra_deduplicated;
              rs_bans = r.rr_times_banned - bans_before;
              rs_bytes = acc.ra_bytes;
            }
        end)
      bans0
  in
  if Telemetry.is_enabled () then
    List.iter
      (fun rs ->
        if rs.rs_matches > 0 || rs.rs_bans > 0 then
          Telemetry.instant "rule.stats"
            [
              ("rule", Telemetry.Json.Str rs.rs_rule);
              ("matches", Telemetry.Json.Int rs.rs_matches);
              ("inserted", Telemetry.Json.Int rs.rs_inserted);
              ("deduplicated", Telemetry.Json.Int rs.rs_deduplicated);
              ("bans", Telemetry.Json.Int rs.rs_bans);
            ])
      rule_stats;
  ignore (note_bytes ());
  Telemetry.record_max c_mem_modeled !peak_bytes;
  Telemetry.record_max c_mem_top_heap ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8));
  let report =
    {
      iterations = List.rev !stats;
      stop_reason = !stop;
      rule_stats;
      total_seconds = !total;
      peak_memory_bytes = !peak_bytes;
    }
  in
  (match eng.report_sink with Some sink -> sink := report :: !sink | None -> ());
  report

(* Human-readable report: one summary line, a phase split, and — only when
   at least one rule was searched — a per-rule table. A run over an empty
   or fully-banned ruleset must not print a dangling table header. *)
let pp_run_report fmt (r : run_report) =
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 r.iterations in
  let sum_i f = List.fold_left (fun acc s -> acc + f s) 0 r.iterations in
  Format.fprintf fmt "%d iteration(s) in %.6fs (%s); %d match(es) applied@\n"
    (List.length r.iterations) r.total_seconds
    (describe_stop_reason r.stop_reason)
    (sum_i (fun s -> s.it_matches));
  if r.iterations <> [] then begin
    let search = sum (fun s -> s.it_search_seconds) in
    let apply = sum (fun s -> s.it_apply_seconds) in
    let rebuild = sum (fun s -> s.it_rebuild_seconds) in
    Format.fprintf fmt "  phases: search %.6fs, apply %.6fs, rebuild %.6fs, other %.6fs@\n"
      search apply rebuild
      (Float.max 0.0 (r.total_seconds -. search -. apply -. rebuild))
  end;
  if r.rule_stats <> [] then begin
    Format.fprintf fmt "  %-28s %10s %10s %8s %6s@\n" "rule" "matches" "inserted" "dedup"
      "bans";
    List.iter
      (fun rs ->
        Format.fprintf fmt "  %-28s %10d %10d %8d %6d@\n" rs.rs_rule rs.rs_matches
          rs.rs_inserted rs.rs_deduplicated rs.rs_bans)
      r.rule_stats
  end

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let total_rows eng = Database.total_rows eng.db
let n_classes eng = Database.n_classes eng.db
let table_size eng name = Table.length (find_table_exn eng name)

let extract_value eng v =
  Database.rebuild eng.db;
  Extract.extract eng.db v

let extract_candidates eng v ~max =
  Database.rebuild eng.db;
  Extract.candidates eng.db v ~max

(* Evaluate a ground expression without inserting anything (used by check
   to report values, per Fig. 3b's `(check (path 1 3)) ;; prints "20"`). *)
let rec ground_value eng (e : Ast.expr) : Value.t option =
  match e with
  | Ast.Lit v -> Some v
  | Ast.Var x -> (
    match Database.find_func eng.db (Symbol.intern x) with
    | Some table when Schema.arity (Table.func table) = 0 -> Database.lookup eng.db table [||]
    | Some _ | None -> None)
  | Ast.Call (fname, args) -> (
    let vals = List.map (ground_value eng) args in
    if List.exists Option.is_none vals then None
    else begin
      let vals = Array.of_list (List.map Option.get vals) in
      match Database.find_func eng.db (Symbol.intern fname) with
      | Some table -> Database.lookup eng.db table vals
      | None -> (
        match Primitives.find fname with
        | Some p -> p.Primitives.impl (Array.map (Database.canon eng.db) vals)
        | None -> None)
    end)

let exec_top_actions eng (actions : Ast.action list) =
  Fault.hit "engine.top-action";
  wrap_compile (fun () ->
      let cas, n_slots = Compile.compile_top_actions (compile_env eng) actions in
      let slots = Array.make (max n_slots 1) Value.VUnit in
      Array.iter (exec_action eng slots) cas;
      Database.rebuild eng.db)

let infer_closed_ty eng e =
  wrap_compile (fun () -> snd (Compile.compile_closed_expr (compile_env eng) e))

let rec run_command_inner eng (cmd : Ast.command) : string list =
  match cmd with
  | Ast.Decl_sort name ->
    declare_sort eng name;
    []
  | Ast.Decl_ruleset name ->
    declare_ruleset eng name;
    []
  | Ast.Run_schedule scheds ->
    let total = ref 0 in
    let resolve_rs = function
      | None -> None
      | Some rs ->
        if List.mem rs eng.rulesets then Some rs
        else error "unknown ruleset %s" rs
    in
    let rec exec (sched : Ast.schedule) : bool (* changed *) =
      match sched with
      | Ast.Sched_run (rs, n) ->
        (* Session-wide budgets also bound schedules; once a budget trips,
           each sub-run stops at its entry check with zero iterations, so
           saturate loops see "no change" and terminate. *)
        let report =
          run_iterations ?ruleset:(resolve_rs rs) ?node_limit:eng.default_node_limit
            ?time_limit:eng.default_time_limit ?memory_limit:eng.default_memory_limit eng n
        in
        total := !total + List.length report.iterations;
        List.exists (fun s -> s.it_changed) report.iterations
      | Ast.Sched_seq scheds ->
        List.fold_left (fun acc s -> exec s || acc) false scheds
      | Ast.Sched_repeat (n, scheds) ->
        let changed = ref false in
        for _ = 1 to n do
          List.iter (fun s -> if exec s then changed := true) scheds
        done;
        !changed
      | Ast.Sched_saturate scheds ->
        let changed = ref false in
        let continue_ = ref true in
        let fuel = ref run_cap in
        while !continue_ && !fuel > 0 do
          decr fuel;
          let round = List.fold_left (fun acc s -> exec s || acc) false scheds in
          if round then changed := true else continue_ := false
        done;
        !changed
    in
    List.iter (fun s -> ignore (exec s)) scheds;
    [ Printf.sprintf "schedule ran %d iteration(s); %d tuples, %d classes" !total
        (total_rows eng) (n_classes eng) ]
  | Ast.Decl_datatype (name, variants) ->
    declare_datatype eng name variants;
    []
  | Ast.Decl_function decl ->
    declare_function eng decl;
    []
  | Ast.Decl_relation (name, tys) ->
    declare_relation eng name tys;
    []
  | Ast.Add_rule rule ->
    add_rule eng rule;
    []
  | Ast.Add_rewrite { lhs; rhs; conds; ruleset } ->
    add_rewrite eng ~conds ?ruleset lhs rhs;
    []
  | Ast.Define (x, e) ->
    let ty = infer_closed_ty eng e in
    let tyexpr =
      let rec unresolve = function
        | Ty.Set t -> Ast.T_set (unresolve t)
        | Ty.Vec t -> Ast.T_vec (unresolve t)
        | t -> Ast.T_name (Ty.to_string t)
      in
      unresolve ty
    in
    declare_function eng
      {
        Ast.fname = x;
        arg_tys = [];
        ret_ty = tyexpr;
        merge = Ast.Merge_default;
        default = None;
        (* a defined alias must never beat a real term during extraction *)
        cost = Some 1_000_000_000;
      };
    exec_top_actions eng [ Ast.Set (x, [], e) ];
    []
  | Ast.Top_action a ->
    exec_top_actions eng [ a ];
    []
  | Ast.Run spec ->
    (* As in egglog, (run n) runs the default ruleset; named rulesets run
       through (run-schedule ...). Budgets from the command override the
       session-wide defaults (CLI --node-limit / --time-limit). *)
    let n = Option.value spec.Ast.run_limit ~default:run_cap in
    let first_some a b = match a with Some _ -> a | None -> b in
    let node_limit = first_some spec.Ast.run_node_limit eng.default_node_limit in
    let time_limit = first_some spec.Ast.run_time_limit eng.default_time_limit in
    let memory_limit = first_some spec.Ast.run_memory_limit eng.default_memory_limit in
    let report =
      run_iterations ~ruleset:"" ?node_limit ?time_limit ?memory_limit
        ~until:spec.Ast.run_until eng n
    in
    let stop_note =
      match report.stop_reason with
      | Saturated -> " (saturated)"
      | Iteration_limit -> ""
      | (Node_limit _ | Time_limit _ | Memory_limit _ | Until_satisfied) as r ->
        Printf.sprintf " (stopped: %s)" (describe_stop_reason r)
    in
    [ Printf.sprintf "ran %d iteration(s)%s; %d tuples, %d classes"
        (List.length report.iterations) stop_note (total_rows eng) (n_classes eng) ]
  | Ast.Check facts ->
    if check_facts eng facts then begin
      match facts with
      | [ Ast.Holds (Ast.Call (_, _) as e) ] -> (
        match ground_value eng e with
        | Some v when not (Value.equal v Value.VUnit) ->
          [ Printf.sprintf "check passed: %s" (Value.to_string v) ]
        | Some _ | None -> [ "check passed" ])
      | _ -> [ "check passed" ]
    end
    else
      error "check failed: %s"
        (String.concat " " (List.map (Format.asprintf "%a" Ast.pp_fact) facts))
  | Ast.Check_fail facts ->
    if check_facts eng facts then
      error "check unexpectedly passed: %s"
        (String.concat " " (List.map (Format.asprintf "%a" Ast.pp_fact) facts))
    else [ "check failed as expected" ]
  | Ast.Extract (e, variants) ->
    wrap_compile (fun () ->
        let ce, _ = Compile.compile_closed_expr (compile_env eng) e in
        let v = eval_expr eng [||] ce in
        Database.rebuild eng.db;
        if variants <= 1 then begin
          match extract_value eng v with
          | Some { Extract.term; cost } ->
            [ Printf.sprintf "%s : cost %d" (Format.asprintf "%a" Extract.pp_term term) cost ]
          | None -> error "nothing to extract for %s" (Value.to_string v)
        end
        else begin
          match extract_candidates eng v ~max:variants with
          | [] -> error "nothing to extract for %s" (Value.to_string v)
          | terms -> List.map (fun t -> Format.asprintf "%a" Extract.pp_term t) terms
        end)
  | Ast.Explain (e1, e2) ->
    wrap_compile (fun () ->
        let ce1, _ = Compile.compile_closed_expr (compile_env eng) e1 in
        let ce2, _ = Compile.compile_closed_expr (compile_env eng) e2 in
        let v1 = eval_expr eng [||] ce1 and v2 = eval_expr eng [||] ce2 in
        Database.rebuild eng.db;
        if not (Database.are_equal eng.db v1 v2) then
          [ "not equal: no explanation" ]
        else begin
          let describe v =
            match extract_value eng v with
            | Some { Extract.term; _ } -> Format.asprintf "%a" Extract.pp_term term
            | None -> Value.to_string v
          in
          (* Render each endpoint as its extracted term next to the raw id:
             "#4 (Mul a b) = #9 (Shl a 1)  [rule mul-to-shift]". Ids whose
             class yields no extractable term fall back to the bare id. *)
          let endpoint id =
            let raw = Printf.sprintf "#%d" id in
            let d = describe (Value.VId id) in
            if d = raw then raw else Printf.sprintf "%s %s" raw d
          in
          let render steps =
            List.map
              (fun (s : Proof_forest.step) ->
                Format.asprintf "%s = %s  [%a]" (endpoint s.Proof_forest.from_id)
                  (endpoint s.Proof_forest.to_id) Proof_forest.pp_reason s.Proof_forest.why)
              steps
          in
          match Database.explain eng.db v1 v2 with
          | Some (_ :: _ as steps) -> render steps
          | Some [] | None -> (
            (* the two terms resolve to one canonical id; report the union
               events that built the shared class *)
            match Database.class_history eng.db v1 with
            | [] -> [ "identical (no unions involved)" ]
            | steps ->
              Printf.sprintf "equal; the class of %s was built by:" (describe v1)
              :: render steps)
        end)
  | Ast.Push ->
    let sv = save eng in
    Trail.push_scope eng.trail;
    eng.stack <- sv :: eng.stack;
    []
  | Ast.Pop -> (
    match eng.stack with
    | [] -> error "pop: no matching push"
    | sv :: _ ->
      ignore (Trail.pop_scope eng.trail);
      restore eng sv;
      [])
  | Ast.Print_function (name, n) ->
    let table = find_table_exn eng name in
    let rows = ref [] in
    Table.iter
      (fun key row ->
        if List.length !rows < n then begin
          let args = String.concat " " (Array.to_list (Array.map Value.to_string key)) in
          rows :=
            Printf.sprintf "(%s %s) -> %s" name args (Value.to_string row.Table.value) :: !rows
        end)
      table;
    List.rev !rows
  | Ast.Print_size name -> [ Printf.sprintf "%s: %d" name (table_size eng name) ]
  | Ast.Print_stats ->
    [ Printf.sprintf "%d tuples, %d classes, %d ids" (total_rows eng) (n_classes eng)
        (Database.n_ids eng.db) ]
  | Ast.Simplify (n, e) ->
    (* materialize the term, saturate, extract — in a scratch scope so the
       exploration does not pollute the database *)
    ignore (run_command_inner eng Ast.Push);
    Fun.protect
      ~finally:(fun () -> ignore (run_command_inner eng Ast.Pop))
      (fun () ->
        wrap_compile (fun () ->
            let ce, _ = Compile.compile_closed_expr (compile_env eng) e in
            let v = eval_expr eng [||] ce in
            (* the session budgets bound the exploration too — a simplify
               must not be a way around --node-limit / --time-limit *)
            ignore
              (run_iterations ?node_limit:eng.default_node_limit
                 ?time_limit:eng.default_time_limit ?memory_limit:eng.default_memory_limit
                 eng n);
            match extract_value eng v with
            | Some { Extract.term; cost } ->
              [ Printf.sprintf "%s : cost %d" (Format.asprintf "%a" Extract.pp_term term) cost ]
            | None -> error "nothing to extract for %s" (Value.to_string v)))
  | Ast.Include path ->
    let src =
      try In_channel.with_open_text path In_channel.input_all
      with Sys_error msg -> error "include: %s" msg
    in
    (try List.concat_map (run_command_inner eng) (Frontend.parse_program src) with
     | Frontend.Syntax_error msg -> error "include %s: %s" path msg
     | Sexpr.Parse_error { line; col; message } ->
       error "include %s:%d:%d: %s" path line col message)

(* ------------------------------------------------------------------ *)
(* Transactional command execution                                     *)
(* ------------------------------------------------------------------ *)

let c_rollbacks = Telemetry.counter "txn.rollbacks"
let c_undone = Telemetry.counter "txn.undone"

(* Normalize internal failures (merge conflicts, bad unions, primitive
   division by zero, broken join invariants) into the single user-facing
   exception. *)
let user_error (e : exn) : exn =
  match e with
  | Failure msg -> Egglog_error msg
  | Invalid_argument msg -> Egglog_error msg
  | Division_by_zero -> Egglog_error "division by zero"
  | Database.Merge_conflict { func; old_value; new_value } ->
    Egglog_error
      (Printf.sprintf "merge conflict on function %s: %s vs %s (no :merge declared)"
         (Symbol.name func) (Value.to_string old_value) (Value.to_string new_value))
  | Database.Internal_error msg -> Egglog_error (Printf.sprintf "internal error: %s" msg)
  | Join.Internal_error { in_func; detail } ->
    let where =
      match in_func with
      | Some fn -> Printf.sprintf " (function %s)" (Symbol.name fn)
      | None -> ""
    in
    Egglog_error (Printf.sprintf "internal error%s: %s" where detail)
  | e -> e

(* Run [f] as one transaction: commit on return, roll back and re-raise
   the normalized error on any exception. Transactions nest on the trail,
   so the commands of a whole server request can run, commit and fail
   inside [f] and a failure of [f] still restores the exact entry state. *)
let with_transaction eng f =
  Trail.begin_txn eng.trail;
  let sv = save eng in
  match f () with
  | result ->
    Trail.commit eng.trail;
    result
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    let undone = Trail.rollback eng.trail in
    Telemetry.bump c_rollbacks 1;
    Telemetry.bump c_undone undone;
    restore eng sv;
    Printexc.raise_with_backtrace (user_error e) bt

let run_command eng cmd =
  match cmd with
  (* Read-only commands skip the transaction machinery entirely, and so do
     push and pop: neither can fail once it writes, and a pop inside its
     own transaction would cross that transaction's mark. *)
  | Ast.Print_function _ | Ast.Print_size _ | Ast.Print_stats | Ast.Push | Ast.Pop -> (
    try run_command_inner eng cmd with e -> raise (user_error e))
  | _ -> with_transaction eng (fun () -> run_command_inner eng cmd)

let run_program eng cmds = List.concat_map (run_command eng) cmds

(* ------------------------------------------------------------------ *)
(* Server-side request machinery                                       *)
(* ------------------------------------------------------------------ *)

let collect_reports eng f =
  let sink = ref [] in
  let previous = eng.report_sink in
  eng.report_sink <- Some sink;
  let result =
    Fun.protect ~finally:(fun () -> eng.report_sink <- previous) f
  in
  (result, List.rev !sink)

let set_session_limits ?node_limit ?time_limit ?memory_limit eng () =
  eng.default_node_limit <- node_limit;
  eng.default_time_limit <- time_limit;
  eng.default_memory_limit <- memory_limit
