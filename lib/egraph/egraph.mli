(** A classic egg-style equality-saturation engine (Willsey et al. 2021):
    hash-consed e-nodes, union-find over e-classes, deferred rebuilding,
    backtracking e-matching, and the BackOff rule scheduler.

    This is the paper's [egg] baseline for the Fig. 7 micro-benchmark,
    reimplemented in OCaml so the egglog-vs-egg comparison is
    engine-vs-engine inside one runtime. It also supports a built-in
    integer constant-folding e-class analysis, the canonical example of
    egg's (single) analysis slot. *)

type op = Op of string | Lit of int

type term = T of op * term list

type pattern = P_var of string | P_app of op * pattern list

type subst = (string * int) list

type rewrite = { rw_name : string; lhs : pattern; rhs : pattern }

exception Parse_error of string

val term_of_string : string -> term
(** Parse an s-expression term such as ["(+ x (pow y 2))"]. Integer atoms
    become {!Lit} leaves, other atoms nullary {!Op} nodes. *)

val pattern_of_string : string -> pattern
(** As {!term_of_string}, but atoms starting with [?] are pattern
    variables. *)

val rewrite_of_strings : name:string -> string -> string -> rewrite

type t

val create : ?const_ops:(string * (int list -> int option)) list -> unit -> t
(** [const_ops] enables the constant-folding analysis: for each listed
    operator, a partial evaluator over child constants. *)

val add_term : t -> term -> int
val add_node : t -> op -> int list -> int
val union : t -> int -> int -> int
val find : t -> int -> int
val equiv : t -> int -> int -> bool
val rebuild : t -> unit

val n_nodes : t -> int
(** Canonical (hash-consed) e-nodes — egg's reported e-graph size. *)

val n_classes : t -> int

val class_const : t -> int -> int option
(** Constant-folding analysis data of a class, when enabled. *)

val ematch : ?limit:int -> t -> pattern -> (int * subst) list
(** The matches of the pattern, as (matched class, substitution): all of
    them, or [limit] of them when there are more. *)

val instantiate : t -> pattern -> subst -> int

(** {1 Equality-saturation runner} *)

type scheduler = Simple | Backoff of { match_limit : int; ban_length : int }

val backoff_default : scheduler

type iter_stat = {
  is_index : int;
  is_nodes : int;
  is_classes : int;
  is_seconds : float;
  is_applied : int;  (** matches applied this iteration *)
}

type run_stats = { iters : iter_stat list; saturated : bool; total_seconds : float }

val run : t -> ?scheduler:scheduler -> ?node_limit:int -> rewrite list -> int -> run_stats

(** {1 Extraction} *)

val extract : t -> int -> (term * int) option
(** Smallest (ast-size) term of a class. *)

val term_to_string : term -> string

val audit : t -> string list
(** Invariant violations after a rebuild (empty when healthy): every
    hashcons key canonical, one entry per canonical node, class node lists
    canonical and in sync with the hashcons. For tests. *)
