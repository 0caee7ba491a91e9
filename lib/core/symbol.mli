(** Globally interned strings. Function names, sort names and string values
    are interned so the hot paths (table keys, trie probes) compare ints. *)

type t = private int

val intern : string -> t
val name : t -> string

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
