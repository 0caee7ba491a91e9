(** Runtime values. Ids are members of uninterpreted sorts (the paper's
    uninterpreted constants [n ∈ N]); everything else is an interpreted
    constant. Sets are kept sorted and deduplicated so structural equality
    is set equality. *)

type t =
  | VUnit
  | VBool of bool
  | VInt of int
  | VRat of Rat.t
  | VStr of Symbol.t
  | VId of int
  | VSet of t list  (** invariant: strictly sorted by {!compare} *)
  | VVec of t list  (** ordered container, duplicates allowed *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val mk_set : t list -> t
(** Sort and deduplicate. *)

val modeled_bytes : t -> int
(** Deterministic modeled size of the value in bytes. A pure function of the
    value's structure (never of allocator or GC state), so byte budgets built
    on it are reproducible run-to-run. *)

val type_of : sort_of_id:(int -> Ty.t) -> t -> Ty.t
(** Runtime type; id sorts are resolved through the database callback. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Hashtable over value-array keys (the backing maps of egglog functions). *)
module Key_tbl : Hashtbl.S with type key = t array
