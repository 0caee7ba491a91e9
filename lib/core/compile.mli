(** Compilation of rules: flatten nested patterns into function atoms
    (§4.2's [flatten]), infer variable types, plan a generic-join variable
    order, and schedule primitive guards at the earliest point their inputs
    are bound (the relational e-matching of §5.1's query engine). *)

exception Error of string
(** Static error: unknown symbol, type mismatch, unbound variable, … *)

exception Unsat
(** The query can never match (e.g. two distinct literals equated); callers
    treat this as an empty match set rather than an error. *)

type arg = A_var of int | A_const of Value.t

type atom = {
  a_func : Schema.func;
  a_args : arg array;  (** length arity+1; the last entry is the output *)
}

type prim_app = {
  p_prim : Primitives.prim;
  p_args : arg array;
  p_out : arg;  (** variable to bind/check, or constant to check *)
  p_binds : bool;
      (** in a scheduled plan: [p_out] is a primitive-computed variable
          written here for the first time, so this application binds it;
          [false] means it checks [p_out] against a bound value. Fixed
          when the plan is scheduled, read by every lowering. *)
}

type cquery = {
  n_vars : int;
  var_names : string array;  (** names for user variables, "$n" for internals *)
  var_tys : Ty.t array;
  atoms : atom array;
  order : int array;
      (** join variable order: every variable an atom covers, those in more
          atoms first, ties by variable index — the rule's one plan *)
  var_depth : int array;  (** var -> 1+position in [order]; 0 when prim-computed *)
  schedule : prim_app list array;
      (** length [Array.length order + 1]; entry [d] runs once the first
          [d] variables of [order] are bound *)
  name_args : (string * arg) list;
      (** user variable name -> surviving variable or constant after
          resolving the query's equalities *)
}

type cexpr =
  | C_var of int
  | C_const of Value.t
  | C_func of Schema.func * cexpr array
  | C_prim of Primitives.prim * cexpr array

type caction =
  | C_set of Schema.func * cexpr array * cexpr
  | C_union of cexpr * cexpr
  | C_let of int * cexpr
  | C_do of cexpr
  | C_panic of string
  | C_delete of Schema.func * cexpr array

type crule = {
  cr_name : string;
  cr_query : cquery;
  cr_actions : caction array;
  cr_slots : int;  (** query vars + action lets *)
}

type env = { find_func : string -> Schema.func option }

val compile_query : env -> Ast.fact list -> cquery

val reorder : cquery -> order:int array -> cquery
(** Rebuild the plan with an explicit variable order (must be a permutation
    of the query's join variables); [q] itself when [order] is already its
    order. Atom and variable numbering are preserved — only [order],
    [var_depth] and [schedule] change. Used by differential tests to check
    that every ordering produces the same matches. *)

val pp_plan : ?lowering:string -> Format.formatter -> cquery -> unit
(** Deterministic textual plan dump: atoms, variable order, the primitive
    schedule, and — when [lowering] is given — the closures the plan
    lowers to (see {!Join.describe_lowering}). *)

val compile_rule : env -> name:string -> Ast.rule -> crule

val compile_top_actions : env -> Ast.action list -> caction array * int
(** Actions with no surrounding query (top-level commands). *)

val compile_closed_expr : env -> ?expected:Ty.t -> Ast.expr -> cexpr * Ty.t

val compile_merge_expr : env -> Schema.func -> Ast.expr -> cexpr
(** Compile a [:merge] body; slots 0 and 1 are [old] and [new]. *)
