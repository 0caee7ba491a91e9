(** S-expressions: the concrete syntax of the egglog language (§3).

    Atoms distinguish symbols, string literals, integers and rationals at
    the lexical level so the frontend does not need to re-parse numerals. *)

type t =
  | Atom of string  (** bare symbol, including keywords like [:merge] *)
  | String of string  (** double-quoted literal, unescaped *)
  | Int of int
  | Rational of Rat.t  (** [n/d] or decimal [i.f] numerals *)
  | List of t list

exception Parse_error of { line : int; col : int; message : string }

val parse_string : string -> t list
(** All toplevel s-expressions in the input. Comments run from [;] to end of
    line. @raise Parse_error on malformed input. *)

val parse_one : string -> t
(** Exactly one toplevel expression. @raise Parse_error otherwise. *)

val to_string : t -> string
(** Flat rendering for machine formats: one line, tokens separated by
    single spaces, strings escaped as OCaml's [%S] does (so the output
    holds no raw newline). [parse_one (to_string e)] is [equal] to [e]. *)

val to_buffer : Buffer.t -> t -> unit
(** {!to_string}, appended to a buffer: for printers that write a large
    payload piecewise instead of building one tree. *)

val pp : Format.formatter -> t -> unit
(** The same tokens as {!to_string}, laid out in [Format] boxes that break
    at the margin: for terms a person reads, such as extraction output. *)

val equal : t -> t -> bool
