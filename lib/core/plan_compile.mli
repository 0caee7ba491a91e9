(** Plan compilation: lower query plans to specialized OCaml closures,
    doing the per-plan dispatch once per rule instead of once per tuple.
    This module is the table-level toolkit — typed cell readers, hoisted
    constant checks, per-arity binding loops, pre-resolved primitive
    guards; the lowered evaluators that tie the kernels to tries, indexes
    and the join cache live in {!Join}. *)

type check =
  | Check_const of int * Value.t  (** position must equal the literal *)
  | Check_same of int * int  (** position must equal an earlier position *)

type shape = {
  sh_func : Schema.func;
  sh_checks : check list;
  sh_sources : int array;
      (** row positions feeding the binding path, in variable-depth order *)
  sh_vars : int array;  (** the query var bound at each path level *)
  sh_lookup : bool;
      (** every key column is a constant or a variable bound by an earlier
          atom: the atom is a point query, one {!Table.get} *)
}

val shape_atom : ?bound:(int -> bool) -> Compile.cquery -> Compile.atom -> shape
(** The per-atom analysis behind every lowering: checks, binding sources
    and bound variables, and whether the atom is a lookup once the
    variables [bound] by earlier atoms (default: none) are known. The
    join cache keys derive from checks and sources, so every lowering that
    reads an atom asks for the same entry. *)

val compile_key : Compile.atom -> unit -> Value.t array -> Value.t array
(** [compile_key atom] builds a lookup atom's key from its constants and
    the environment slots of its (bound) key variables. The outer [unit ->]
    instantiates the key buffer, once per search; an all-constant key is
    built once, at compile time. The atom's checks on key columns hold
    for the row at that key, so a lookup can run the atom's whole
    {!compile_filter}. *)

type filter = Value.t array -> Table.row -> bool

val compile_filter : Schema.func -> check list -> filter
(** Compile an atom's checks into one closure: constants hoisted, unboxed
    integer comparison for i64/bool/sort columns ({!Table.int_reader}),
    Unit-typed columns elided, 0/1/2-check cases composed directly. *)

val compile_binder :
  Schema.func ->
  vars:int array ->
  sources:int array ->
  Value.t array ->
  Value.t array ->
  Table.row ->
  unit
(** [compile_binder f ~vars ~sources env key row] writes the atom's
    variables into [env]. Monomorphic binding loop, hand-specialized for
    1-4 sources with every column reader resolved at construction; arities
    above fall back to a readers-array loop. *)

val compile_prims : Compile.prim_app list -> unit -> Value.t array -> bool
(** Compile a primitive checklist, in schedule order, for an environment
    that holds every variable bound before it runs; each step binds or
    checks its output as its [p_binds] says. One checklist serves every
    lowering: a single- or two-atom kernel runs the whole schedule, the
    generic trie join one depth's entry. The outer [unit ->] instantiates
    private argument buffers: instantiate once per search so no two
    searches of one compiled plan share state. *)
