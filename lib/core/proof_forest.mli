(** Explanation support: why are two ids equal?

    The paper lists proof generation as future work (§7, citing the
    proof-producing congruence closure of Nieuwenhuis & Oliveras 2005);
    this module implements the classic {e proof forest}: every union
    records an edge labelled with its justification, and an explanation
    is the path between the two ids through their common ancestor. *)

type reason =
  | Asserted  (** a top-level [union] or [set] *)
  | Rule of string  (** fired by the named rule *)
  | Congruence of Symbol.t  (** functional-dependency repair of this function *)

type step = { from_id : int; to_id : int; why : reason }

type t

val create : ?trail:Trail.t -> unit -> t
(** Parent writes and the edge count are recorded on [trail] while a
    transaction or scope is open there (default: a private, never-opened
    trail). *)

val record : t -> int -> int -> reason -> unit
(** Remember that the two ids were made equal for this reason. *)

val explain : t -> int -> int -> step list option
(** A chain of recorded steps connecting the ids ([Some []] when they are
    identical); [None] when no recorded chain connects them. *)

val n_edges : t -> int
(** Number of recorded union edges (each {!record} of distinct ids adds
    exactly one, rerooting included); feeds the modeled memory footprint. *)

val edges_in_class : t -> member:int -> find:(int -> int) -> step list
(** All recorded union events whose endpoints are in the given class —
    the construction trace of the e-class. *)

val pp_reason : Format.formatter -> reason -> unit
