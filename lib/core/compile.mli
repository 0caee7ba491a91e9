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
}

type planning
(** What the cost-based planner reads of a query's structure (constant
    columns per atom, covering atoms per variable), computed once when the
    query is compiled and shared by every plan derived from it. *)

type cquery = {
  n_vars : int;
  var_names : string array;  (** names for user variables, "$n" for internals *)
  var_tys : Ty.t array;
  atoms : atom array;
  order : int array;  (** join variable order (variables covered by atoms) *)
  var_depth : int array;  (** var -> 1+position in [order]; 0 when prim-computed *)
  schedule : prim_app list array;  (** length [Array.length order + 1] *)
  name_args : (string * arg) list;
      (** user variable name -> surviving variable or constant after
          resolving the query's equalities *)
  planning : planning;
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

type atom_card = {
  ac_rows : int;  (** current row count of the atom's table *)
  ac_distinct : int array;  (** distinct values per column (args, then output) *)
}
(** Per-atom cardinality statistics, supplied by the runtime (see
    {!Database.table_stats}). *)

val replan_order : cquery -> cards:atom_card array -> int array
(** The join variable order of a greedy cost model: at each step bind the
    variable whose cheapest covering atom enumerates the fewest values
    (row count divided by the distinct counts of bound/constant columns,
    capped by the distinct count of the variable's own column). Ties break
    toward variables covered by more atoms, then toward the smaller
    variable index, so the result is deterministic. Builds no plan:
    callers compare the order with the one they hold and rebuild only
    when it moved. *)

val replan : cquery -> cards:atom_card array -> cquery
(** [reorder q ~order:(replan_order q ~cards)]. Atom and variable
    numbering are preserved — only [order], [var_depth] and [schedule]
    change — so compiled actions remain valid. *)

val reorder : cquery -> order:int array -> cquery
(** Rebuild the plan with an explicit variable order (must be a permutation
    of the query's join variables); [q] itself when [order] is already its
    order. Used by the engine after {!replan_order}, and by differential
    tests to check that every ordering produces the same matches. *)

val pp_plan : ?cards:atom_card array -> ?lowering:string -> Format.formatter -> cquery -> unit
(** Deterministic textual plan dump: atoms, variable order (with cost
    estimates when [cards] is given), the primitive schedule, and — when
    [lowering] is given — the closures the plan lowers to (see
    {!Join.describe_lowering}). *)

val compile_rule : env -> name:string -> Ast.rule -> crule

val compile_top_actions : env -> Ast.action list -> caction array * int
(** Actions with no surrounding query (top-level commands). *)

val compile_closed_expr : env -> ?expected:Ty.t -> Ast.expr -> cexpr * Ty.t

val compile_merge_expr : env -> Schema.func -> Ast.expr -> cexpr
(** Compile a [:merge] body; slots 0 and 1 are [old] and [new]. *)
