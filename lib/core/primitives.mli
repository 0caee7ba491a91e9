(** Built-in operations over base types (§5.2): i64 and rational arithmetic,
    comparisons-as-guards, and the canonical set container.

    A primitive that "fails" (comparison guard that does not hold, division
    by zero) yields [None]; in a query this filters the match, in an action
    the engine raises. Result typing is demand-driven: [typer] may consult
    the expected result type (needed for e.g. [(set-empty)]). *)

type prim = {
  pname : string;
  typer : args:Ty.t option list -> ret:Ty.t option -> Ty.t option;
      (** Result type given (partially known) argument types and the expected
          result type; [None] when not yet determinable or ill-typed. *)
  impl : Value.t array -> Value.t option;
}

val find : string -> prim option

val arg_hints : string -> ret:Ty.t option -> nargs:int -> Ty.t option list
(** Expected argument types given the expected result type, used when
    compiling actions bottom-up (e.g. the element type of the sets flowing
    into [set-insert]). Empty list when no hint applies. *)
