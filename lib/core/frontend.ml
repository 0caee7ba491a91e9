exception Syntax_error of string

let error fmt = Format.kasprintf (fun s -> raise (Syntax_error s)) fmt

let rec expr_of_sexp (s : Sexpr.t) : Ast.expr =
  match s with
  | Sexpr.Int i -> Ast.Lit (Value.VInt i)
  | Sexpr.Rational r -> Ast.Lit (Value.VRat r)
  | Sexpr.String str -> Ast.Lit (Value.VStr (Symbol.intern str))
  | Sexpr.Atom "true" -> Ast.Lit (Value.VBool true)
  | Sexpr.Atom "false" -> Ast.Lit (Value.VBool false)
  | Sexpr.Atom name -> Ast.Var name
  | Sexpr.List (Sexpr.Atom f :: args) -> Ast.Call (f, List.map expr_of_sexp args)
  | Sexpr.List [] -> error "empty application ()"
  | Sexpr.List _ -> error "application head must be a symbol: %s" (Sexpr.to_string s)

let fact_of_sexp (s : Sexpr.t) : Ast.fact =
  match s with
  | Sexpr.List [ Sexpr.Atom "="; a; b ] -> Ast.Eq (expr_of_sexp a, expr_of_sexp b)
  | _ -> Ast.Holds (expr_of_sexp s)

let rec tyexpr_of_sexp (s : Sexpr.t) : Ast.tyexpr =
  match s with
  | Sexpr.Atom name -> Ast.T_name name
  | Sexpr.List [ Sexpr.Atom "Set"; inner ] -> Ast.T_set (tyexpr_of_sexp inner)
  | Sexpr.List [ Sexpr.Atom "Vec"; inner ] -> Ast.T_vec (tyexpr_of_sexp inner)
  | _ -> error "malformed type %s" (Sexpr.to_string s)

let action_of_sexp (s : Sexpr.t) : Ast.action =
  match s with
  | Sexpr.List [ Sexpr.Atom "set"; Sexpr.List (Sexpr.Atom f :: args); value ] ->
    Ast.Set (f, List.map expr_of_sexp args, expr_of_sexp value)
  | Sexpr.List [ Sexpr.Atom "union"; a; b ] -> Ast.Union (expr_of_sexp a, expr_of_sexp b)
  | Sexpr.List [ Sexpr.Atom ("let" | "define"); Sexpr.Atom x; e ] -> Ast.Let (x, expr_of_sexp e)
  | Sexpr.List [ Sexpr.Atom "panic"; Sexpr.String msg ] -> Ast.Panic msg
  | Sexpr.List [ Sexpr.Atom "delete"; Sexpr.List (Sexpr.Atom f :: args) ] ->
    Ast.Delete (f, List.map expr_of_sexp args)
  | other -> Ast.Do (expr_of_sexp other)

(* Keyword arguments at the tail of a declaration: :merge e, :default e,
   :cost n, :when (facts), :name "s". *)
let rec keywords_of (items : Sexpr.t list) : (string * Sexpr.t) list =
  match items with
  | [] -> []
  | Sexpr.Atom kw :: value :: rest when String.length kw > 0 && kw.[0] = ':' ->
    (kw, value) :: keywords_of rest
  | s :: _ -> error "malformed keyword arguments near %s" (Sexpr.to_string s)

let command_of_sexp (s : Sexpr.t) : Ast.command list =
  match s with
  | Sexpr.List (Sexpr.Atom head :: rest) -> (
    match (head, rest) with
    | "sort", [ Sexpr.Atom name ] -> [ Ast.Decl_sort name ]
    | "datatype", Sexpr.Atom name :: variants ->
      let variant = function
        | Sexpr.List (Sexpr.Atom cname :: args) -> (cname, List.map tyexpr_of_sexp args)
        | v -> error "malformed datatype variant %s" (Sexpr.to_string v)
      in
      [ Ast.Decl_datatype (name, List.map variant variants) ]
    | "function", Sexpr.Atom fname :: Sexpr.List args :: ret :: kw_items ->
      let kws = keywords_of kw_items in
      let merge =
        match List.assoc_opt ":merge" kws with
        | Some e -> Ast.Merge_expr (expr_of_sexp e)
        | None -> Ast.Merge_default
      in
      let default = Option.map expr_of_sexp (List.assoc_opt ":default" kws) in
      let cost =
        match List.assoc_opt ":cost" kws with
        | Some (Sexpr.Int n) -> Some n
        | Some v -> error "malformed :cost %s" (Sexpr.to_string v)
        | None -> None
      in
      [ Ast.Decl_function
          {
            Ast.fname;
            arg_tys = List.map tyexpr_of_sexp args;
            ret_ty = tyexpr_of_sexp ret;
            merge;
            default;
            cost;
          } ]
    | "relation", [ Sexpr.Atom name; Sexpr.List args ] ->
      [ Ast.Decl_relation (name, List.map tyexpr_of_sexp args) ]
    | "ruleset", [ Sexpr.Atom name ] -> [ Ast.Decl_ruleset name ]
    | "rule", Sexpr.List query :: Sexpr.List actions :: kw_items ->
      let kws = keywords_of kw_items in
      let rule_name =
        match List.assoc_opt ":name" kws with
        | Some (Sexpr.String n) | Some (Sexpr.Atom n) -> Some n
        | Some v -> error "malformed :name %s" (Sexpr.to_string v)
        | None -> None
      in
      let ruleset =
        match List.assoc_opt ":ruleset" kws with
        | Some (Sexpr.Atom n) -> Some n
        | Some v -> error "malformed :ruleset %s" (Sexpr.to_string v)
        | None -> None
      in
      [ Ast.Add_rule
          {
            Ast.rule_name;
            query = List.map fact_of_sexp query;
            actions = List.map action_of_sexp actions;
            ruleset;
          } ]
    | "rewrite", lhs :: rhs :: kw_items ->
      let kws = keywords_of kw_items in
      let conds =
        match List.assoc_opt ":when" kws with
        | Some (Sexpr.List facts) -> List.map fact_of_sexp facts
        | Some v -> error "malformed :when %s" (Sexpr.to_string v)
        | None -> []
      in
      let ruleset =
        match List.assoc_opt ":ruleset" kws with
        | Some (Sexpr.Atom n) -> Some n
        | Some v -> error "malformed :ruleset %s" (Sexpr.to_string v)
        | None -> None
      in
      [ Ast.Add_rewrite { lhs = expr_of_sexp lhs; rhs = expr_of_sexp rhs; conds; ruleset } ]
    | "birewrite", lhs :: rhs :: kw_items ->
      let kws = keywords_of kw_items in
      let conds =
        match List.assoc_opt ":when" kws with
        | Some (Sexpr.List facts) -> List.map fact_of_sexp facts
        | Some v -> error "malformed :when %s" (Sexpr.to_string v)
        | None -> []
      in
      let ruleset =
        match List.assoc_opt ":ruleset" kws with
        | Some (Sexpr.Atom n) -> Some n
        | Some v -> error "malformed :ruleset %s" (Sexpr.to_string v)
        | None -> None
      in
      [ Ast.Add_rewrite { lhs = expr_of_sexp lhs; rhs = expr_of_sexp rhs; conds; ruleset };
        Ast.Add_rewrite { lhs = expr_of_sexp rhs; rhs = expr_of_sexp lhs; conds; ruleset } ]
    | ("define" | "let"), [ Sexpr.Atom x; e ] -> [ Ast.Define (x, expr_of_sexp e) ]
    | "run", rest ->
      let limit, kw_items =
        match rest with
        | Sexpr.Int n :: tl -> (Some n, tl)
        | tl -> (None, tl)
      in
      let kws = keywords_of kw_items in
      List.iter
        (fun (kw, _) ->
          match kw with
          | ":until" | ":node-limit" | ":time-limit" | ":jobs" | ":memory-limit" -> ()
          | other -> error "unknown run option %s" other)
        kws;
      let node_limit =
        match List.assoc_opt ":node-limit" kws with
        | Some (Sexpr.Int k) when k >= 0 -> Some k
        | Some v -> error "malformed :node-limit %s (want a non-negative integer)" (Sexpr.to_string v)
        | None -> None
      in
      let time_limit =
        match List.assoc_opt ":time-limit" kws with
        | Some (Sexpr.Int s) when s >= 0 -> Some (float_of_int s)
        | Some (Sexpr.Rational r) when Rat.to_float r >= 0.0 -> Some (Rat.to_float r)
        | Some v -> error "malformed :time-limit %s (want seconds)" (Sexpr.to_string v)
        | None -> None
      in
      let until =
        match List.assoc_opt ":until" kws with
        (* either one fact, or a parenthesized list of facts *)
        | Some (Sexpr.List (Sexpr.List _ :: _) as fs) ->
          (match fs with
           | Sexpr.List items -> List.map fact_of_sexp items
           | _ -> assert false)
        | Some (Sexpr.List (Sexpr.Atom _ :: _) as f) -> [ fact_of_sexp f ]
        | Some v -> error "malformed :until %s (want a fact or a list of facts)" (Sexpr.to_string v)
        | None -> []
      in
      let jobs =
        match List.assoc_opt ":jobs" kws with
        | Some (Sexpr.Int j) when j >= 0 -> Some j
        | Some v ->
          error "malformed :jobs %s (want a non-negative integer; 0 = one per core)"
            (Sexpr.to_string v)
        | None -> None
      in
      let memory_limit =
        match List.assoc_opt ":memory-limit" kws with
        | Some (Sexpr.Int b) when b >= 0 -> Some b
        | Some v ->
          error "malformed :memory-limit %s (want a non-negative byte count)" (Sexpr.to_string v)
        | None -> None
      in
      [ Ast.Run { Ast.run_limit = limit; run_node_limit = node_limit;
                  run_time_limit = time_limit; run_until = until; run_jobs = jobs;
                  run_memory_limit = memory_limit } ]
    | "run-schedule", scheds ->
      let rec sched_of_sexp (s : Sexpr.t) : Ast.schedule =
        match s with
        | Sexpr.List [ Sexpr.Atom "run"; Sexpr.Int n ] -> Ast.Sched_run (None, n)
        | Sexpr.List [ Sexpr.Atom "run"; Sexpr.Atom rs ] -> Ast.Sched_run (Some rs, 1)
        | Sexpr.List [ Sexpr.Atom "run"; Sexpr.Atom rs; Sexpr.Int n ] -> Ast.Sched_run (Some rs, n)
        | Sexpr.List (Sexpr.Atom "saturate" :: inner) ->
          Ast.Sched_saturate (List.map sched_of_sexp inner)
        | Sexpr.List (Sexpr.Atom "seq" :: inner) -> Ast.Sched_seq (List.map sched_of_sexp inner)
        | Sexpr.List (Sexpr.Atom "repeat" :: Sexpr.Int n :: inner) ->
          Ast.Sched_repeat (n, List.map sched_of_sexp inner)
        | Sexpr.Atom rs -> Ast.Sched_run (Some rs, 1)
        | _ -> error "malformed schedule %s" (Sexpr.to_string s)
      in
      [ Ast.Run_schedule (List.map sched_of_sexp scheds) ]
    | "check", facts -> [ Ast.Check (List.map fact_of_sexp facts) ]
    | "fail", [ Sexpr.List (Sexpr.Atom "check" :: facts) ] ->
      [ Ast.Check_fail (List.map fact_of_sexp facts) ]
    | "extract", (e :: kw_items) ->
      let kws = keywords_of kw_items in
      let variants =
        match List.assoc_opt ":variants" kws with
        | Some (Sexpr.Int n) -> max 1 n
        | Some v -> error "malformed :variants %s" (Sexpr.to_string v)
        | None -> 1
      in
      [ Ast.Extract (expr_of_sexp e, variants) ]
    | "simplify", [ Sexpr.Int n; e ] -> [ Ast.Simplify (n, expr_of_sexp e) ]
    | "include", [ Sexpr.String path ] -> [ Ast.Include path ]
    | "print-stats", [] -> [ Ast.Print_stats ]
    | "explain", [ e1; e2 ] -> [ Ast.Explain (expr_of_sexp e1, expr_of_sexp e2) ]
    | "push", [] -> [ Ast.Push ]
    | "pop", [] -> [ Ast.Pop ]
    | "print-function", [ Sexpr.Atom name; Sexpr.Int n ] -> [ Ast.Print_function (name, n) ]
    | "print-size", [ Sexpr.Atom name ] -> [ Ast.Print_size name ]
    | ("set" | "union" | "panic" | "delete"), _ -> [ Ast.Top_action (action_of_sexp s) ]
    | _ -> [ Ast.Top_action (Ast.Do (expr_of_sexp s)) ])
  | _ -> error "expected a command, got %s" (Sexpr.to_string s)

exception Input_too_large of { bytes : int; limit : int }

let parse_program ?max_bytes src =
  (match max_bytes with
   | Some limit when String.length src > limit ->
     raise (Input_too_large { bytes = String.length src; limit })
   | Some _ | None -> ());
  List.concat_map command_of_sexp (Sexpr.parse_string src)

(* ---- printing commands back to concrete syntax ----

   The durability subsystem journals committed commands as text and replays
   them through [command_of_sexp]; the invariant is that for every command
   the parser can produce, [command_of_sexp (sexp_of_command c) = [c]].
   Commands built through the typed API can mention literals that have no
   concrete syntax (ids, sets, vectors, unit); printing those raises
   [Syntax_error] — the journal layer prints before executing, so such a
   command is rejected up front rather than silently dropped from the
   durable history. *)

let sexp_of_lit (v : Value.t) : Sexpr.t =
  match v with
  | Value.VBool true -> Sexpr.Atom "true"
  | Value.VBool false -> Sexpr.Atom "false"
  | Value.VInt i -> Sexpr.Int i
  | Value.VRat r ->
    (* [Rat.pp] prints integral rationals as bare integers, which would
       re-parse as i64; force the n/d form so the literal keeps its type. *)
    if Rat.is_integer r then Sexpr.Atom (Rat.to_string r ^ "/1") else Sexpr.Rational r
  | Value.VStr s -> Sexpr.String (Symbol.name s)
  | Value.VUnit | Value.VId _ | Value.VSet _ | Value.VVec _ ->
    error "literal %s has no concrete syntax" (Value.to_string v)

let rec sexp_of_expr (e : Ast.expr) : Sexpr.t =
  match e with
  | Ast.Var x -> Sexpr.Atom x
  | Ast.Lit v -> sexp_of_lit v
  | Ast.Call (f, args) -> Sexpr.List (Sexpr.Atom f :: List.map sexp_of_expr args)

let sexp_of_fact (f : Ast.fact) : Sexpr.t =
  match f with
  | Ast.Eq (a, b) -> Sexpr.List [ Sexpr.Atom "="; sexp_of_expr a; sexp_of_expr b ]
  | Ast.Holds e -> sexp_of_expr e

let rec sexp_of_tyexpr (t : Ast.tyexpr) : Sexpr.t =
  match t with
  | Ast.T_name n -> Sexpr.Atom n
  | Ast.T_set inner -> Sexpr.List [ Sexpr.Atom "Set"; sexp_of_tyexpr inner ]
  | Ast.T_vec inner -> Sexpr.List [ Sexpr.Atom "Vec"; sexp_of_tyexpr inner ]

let sexp_of_action (a : Ast.action) : Sexpr.t =
  match a with
  | Ast.Set (f, args, v) ->
    Sexpr.List
      [ Sexpr.Atom "set"; Sexpr.List (Sexpr.Atom f :: List.map sexp_of_expr args);
        sexp_of_expr v ]
  | Ast.Union (a, b) -> Sexpr.List [ Sexpr.Atom "union"; sexp_of_expr a; sexp_of_expr b ]
  | Ast.Let (x, e) -> Sexpr.List [ Sexpr.Atom "let"; Sexpr.Atom x; sexp_of_expr e ]
  | Ast.Do e -> sexp_of_expr e
  | Ast.Panic msg -> Sexpr.List [ Sexpr.Atom "panic"; Sexpr.String msg ]
  | Ast.Delete (f, args) ->
    Sexpr.List [ Sexpr.Atom "delete"; Sexpr.List (Sexpr.Atom f :: List.map sexp_of_expr args) ]

(* A float budget re-parses as Int when integral, Rational otherwise; both
   are accepted by the [run] keyword parser and round-trip exactly. *)
let sexp_of_seconds s =
  if Float.is_integer s && Float.abs s < 1e15 then Sexpr.Int (int_of_float s)
  else Sexpr.Rational (Rat.of_float s)

let sexp_of_command (cmd : Ast.command) : Sexpr.t =
  match cmd with
  | Ast.Decl_sort name -> Sexpr.List [ Sexpr.Atom "sort"; Sexpr.Atom name ]
  | Ast.Decl_ruleset name -> Sexpr.List [ Sexpr.Atom "ruleset"; Sexpr.Atom name ]
  | Ast.Decl_datatype (name, variants) ->
    Sexpr.List
      (Sexpr.Atom "datatype" :: Sexpr.Atom name
       :: List.map
            (fun (cname, args) ->
              Sexpr.List (Sexpr.Atom cname :: List.map sexp_of_tyexpr args))
            variants)
  | Ast.Decl_function { fname; arg_tys; ret_ty; merge; default; cost } ->
    let kws =
      (match merge with
       | Ast.Merge_default -> []
       | Ast.Merge_expr e -> [ Sexpr.Atom ":merge"; sexp_of_expr e ])
      @ (match default with
         | None -> []
         | Some e -> [ Sexpr.Atom ":default"; sexp_of_expr e ])
      @ (match cost with None -> [] | Some n -> [ Sexpr.Atom ":cost"; Sexpr.Int n ])
    in
    Sexpr.List
      (Sexpr.Atom "function" :: Sexpr.Atom fname
       :: Sexpr.List (List.map sexp_of_tyexpr arg_tys)
       :: sexp_of_tyexpr ret_ty :: kws)
  | Ast.Decl_relation (name, arg_tys) ->
    Sexpr.List
      [ Sexpr.Atom "relation"; Sexpr.Atom name;
        Sexpr.List (List.map sexp_of_tyexpr arg_tys) ]
  | Ast.Add_rule { rule_name; query; actions; ruleset } ->
    let kws =
      (match rule_name with
       | None -> []
       | Some n -> [ Sexpr.Atom ":name"; Sexpr.String n ])
      @ (match ruleset with
         | None -> []
         | Some rs -> [ Sexpr.Atom ":ruleset"; Sexpr.Atom rs ])
    in
    Sexpr.List
      (Sexpr.Atom "rule"
       :: Sexpr.List (List.map sexp_of_fact query)
       :: Sexpr.List (List.map sexp_of_action actions)
       :: kws)
  | Ast.Add_rewrite { lhs; rhs; conds; ruleset } ->
    let kws =
      (match conds with
       | [] -> []
       | _ -> [ Sexpr.Atom ":when"; Sexpr.List (List.map sexp_of_fact conds) ])
      @ (match ruleset with
         | None -> []
         | Some rs -> [ Sexpr.Atom ":ruleset"; Sexpr.Atom rs ])
    in
    Sexpr.List (Sexpr.Atom "rewrite" :: sexp_of_expr lhs :: sexp_of_expr rhs :: kws)
  | Ast.Define (x, e) -> Sexpr.List [ Sexpr.Atom "define"; Sexpr.Atom x; sexp_of_expr e ]
  | Ast.Top_action a -> sexp_of_action a
  | Ast.Run { run_limit; run_node_limit; run_time_limit; run_until; run_jobs; run_memory_limit }
    ->
    let limit = match run_limit with None -> [] | Some n -> [ Sexpr.Int n ] in
    let kws =
      (match run_node_limit with
       | None -> []
       | Some k -> [ Sexpr.Atom ":node-limit"; Sexpr.Int k ])
      @ (match run_time_limit with
         | None -> []
         | Some s -> [ Sexpr.Atom ":time-limit"; sexp_of_seconds s ])
      @ (match run_jobs with
         | None -> []
         | Some j -> [ Sexpr.Atom ":jobs"; Sexpr.Int j ])
      @ (match run_memory_limit with
         | None -> []
         | Some b -> [ Sexpr.Atom ":memory-limit"; Sexpr.Int b ])
      @
      match run_until with
      | [] -> []
      | [ f ] -> [ Sexpr.Atom ":until"; sexp_of_fact f ]
      | fs -> [ Sexpr.Atom ":until"; Sexpr.List (List.map sexp_of_fact fs) ]
    in
    Sexpr.List ((Sexpr.Atom "run" :: limit) @ kws)
  | Ast.Run_schedule scheds ->
    let rec sexp_of_sched (s : Ast.schedule) : Sexpr.t =
      match s with
      | Ast.Sched_run (None, n) -> Sexpr.List [ Sexpr.Atom "run"; Sexpr.Int n ]
      | Ast.Sched_run (Some rs, n) ->
        Sexpr.List [ Sexpr.Atom "run"; Sexpr.Atom rs; Sexpr.Int n ]
      | Ast.Sched_saturate inner ->
        Sexpr.List (Sexpr.Atom "saturate" :: List.map sexp_of_sched inner)
      | Ast.Sched_seq inner -> Sexpr.List (Sexpr.Atom "seq" :: List.map sexp_of_sched inner)
      | Ast.Sched_repeat (n, inner) ->
        Sexpr.List (Sexpr.Atom "repeat" :: Sexpr.Int n :: List.map sexp_of_sched inner)
    in
    Sexpr.List (Sexpr.Atom "run-schedule" :: List.map sexp_of_sched scheds)
  | Ast.Check facts -> Sexpr.List (Sexpr.Atom "check" :: List.map sexp_of_fact facts)
  | Ast.Check_fail facts ->
    Sexpr.List
      [ Sexpr.Atom "fail"; Sexpr.List (Sexpr.Atom "check" :: List.map sexp_of_fact facts) ]
  | Ast.Extract (e, variants) ->
    Sexpr.List
      [ Sexpr.Atom "extract"; sexp_of_expr e; Sexpr.Atom ":variants"; Sexpr.Int variants ]
  | Ast.Simplify (n, e) -> Sexpr.List [ Sexpr.Atom "simplify"; Sexpr.Int n; sexp_of_expr e ]
  | Ast.Include path -> Sexpr.List [ Sexpr.Atom "include"; Sexpr.String path ]
  | Ast.Explain (a, b) -> Sexpr.List [ Sexpr.Atom "explain"; sexp_of_expr a; sexp_of_expr b ]
  | Ast.Push -> Sexpr.List [ Sexpr.Atom "push" ]
  | Ast.Pop -> Sexpr.List [ Sexpr.Atom "pop" ]
  | Ast.Print_function (name, n) ->
    Sexpr.List [ Sexpr.Atom "print-function"; Sexpr.Atom name; Sexpr.Int n ]
  | Ast.Print_size name -> Sexpr.List [ Sexpr.Atom "print-size"; Sexpr.Atom name ]
  | Ast.Print_stats -> Sexpr.List [ Sexpr.Atom "print-stats" ]

let command_to_string cmd = Sexpr.to_string (sexp_of_command cmd)

(* ---- incremental-input support (the REPL's line reader) ---- *)

type balance = Balanced | Incomplete | Unbalanced

let paren_balance src =
  let depth = ref 0 in
  let state = ref `Code in
  let unbalanced = ref false in
  String.iter
    (fun c ->
      match !state with
      | `Code ->
        if c = '(' then incr depth
        else if c = ')' then begin
          decr depth;
          if !depth < 0 then unbalanced := true
        end
        else if c = '"' then state := `Str
        else if c = ';' then state := `Comment
      | `Str -> if c = '\\' then state := `Esc else if c = '"' then state := `Code
      | `Esc -> state := `Str
      | `Comment -> if c = '\n' then state := `Code)
    src;
  if !unbalanced then Unbalanced
  else if !depth > 0 || !state = `Str || !state = `Esc then Incomplete
  else Balanced
