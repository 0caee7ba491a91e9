(* Surface abstract syntax of the egglog language (§3). The frontend parses
   s-expressions into these commands; [Engine] desugars the sugar forms
   (datatype, rewrite, define, relation facts) into the core constructs. *)

type expr =
  | Var of string
  | Lit of Value.t
  | Call of string * expr list

(* A fact in a rule query: either an equation between patterns or a bare
   pattern that must be defined/hold (unit functions, primitive guards). *)
type fact = Eq of expr * expr | Holds of expr

type action =
  | Set of string * expr list * expr  (* (set (f args) v) *)
  | Union of expr * expr
  | Let of string * expr  (* action-local binding *)
  | Do of expr  (* evaluate for effect: populates terms / relation shorthand *)
  | Panic of string
  | Delete of string * expr list  (* extension: remove a row *)

type rule = {
  rule_name : string option;
  query : fact list;
  actions : action list;
  ruleset : string option;  (* None: the default ruleset *)
}

(* Type expressions as written in declarations, e.g. i64 or (Set Ident). *)
type tyexpr = T_name of string | T_set of tyexpr | T_vec of tyexpr

type merge_spec =
  | Merge_default  (* union for sorts, panic for base types *)
  | Merge_expr of expr  (* with [old] and [new] bound *)

type function_decl = {
  fname : string;
  arg_tys : tyexpr list;
  ret_ty : tyexpr;
  merge : merge_spec;
  default : expr option;
  cost : int option;
}

(* Resource budget for a run: every field optional, all enforced
   cooperatively by the engine (see Engine.stop_reason). *)
type run_spec = {
  run_limit : int option;  (* iteration cap; None: engine default *)
  run_node_limit : int option;  (* stop once total tuples exceed this *)
  run_time_limit : float option;  (* stop after this many wall-clock seconds *)
  run_until : fact list;  (* stop as soon as all facts hold; [] = never *)
  run_memory_limit : int option;  (* stop once modeled database bytes exceed this *)
}

let plain_run limit =
  { run_limit = limit; run_node_limit = None; run_time_limit = None; run_until = [];
    run_memory_limit = None }

(* Run schedules: compose rulesets into saturation strategies. *)
type schedule =
  | Sched_run of string option * int  (* (run <ruleset>? <n>) *)
  | Sched_saturate of schedule list  (* repeat until nothing changes *)
  | Sched_seq of schedule list
  | Sched_repeat of int * schedule list

type command =
  | Decl_sort of string
  | Decl_ruleset of string
  | Decl_datatype of string * (string * tyexpr list) list
  | Decl_function of function_decl
  | Decl_relation of string * tyexpr list
  | Add_rule of rule
  | Add_rewrite of { lhs : expr; rhs : expr; conds : fact list; ruleset : string option }
  | Define of string * expr
  | Top_action of action
  | Run of run_spec  (* limit None: run to saturation (bounded by engine cap) *)
  | Run_schedule of schedule list
  | Check of fact list
  | Check_fail of fact list  (* (fail (check ...)) *)
  | Extract of expr * int  (* number of variants to report (>= 1) *)
  | Simplify of int * expr  (* run n iterations in a scratch scope, extract *)
  | Include of string  (* load another .egg file *)
  | Explain of expr * expr
  | Push
  | Pop
  | Print_function of string * int
  | Print_size of string
  | Print_stats

let rec pp_expr fmt = function
  | Var x -> Format.pp_print_string fmt x
  | Lit v -> Value.pp fmt v
  | Call (f, []) -> Format.fprintf fmt "(%s)" f
  | Call (f, args) ->
    Format.fprintf fmt "(@[<hov 1>%s %a@])" f
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_expr)
      args

let pp_fact fmt = function
  | Eq (a, b) -> Format.fprintf fmt "(= %a %a)" pp_expr a pp_expr b
  | Holds e -> pp_expr fmt e
