(** Globally interned strings. Function names, sort names and string values
    are interned so the hot paths (table keys, trie probes) compare ints. *)

type t = private int

val intern : string -> t
val name : t -> string

(** {1 Speculative interning}

    During a parallel search fan-out, string primitives can intern fresh
    symbols from several domains at once; without care the id assignment
    order — and with it {!compare}, which orders set elements and hence
    canonical dumps — would depend on scheduling. While speculative mode
    is on, a miss gets a {e provisional} id from a disjoint high range and
    the global table is untouched (hits still return their real ids). The
    engine then walks its match buffers in the canonical serial order and
    {!resolve}s each provisional symbol, so real ids are handed out in a
    deterministic order regardless of which domain first saw the string.
    Provisional ids must never escape the search phase. *)

val begin_speculative : unit -> unit
(** Enter speculative mode. @raise Invalid_argument when already on. *)

val clear_speculative : unit -> unit
(** Leave speculative mode and drop all provisional ids (idempotent). *)

val speculating : unit -> bool

(** [resolve i] assigns (or looks up) the real id for a provisional
    symbol; identity on real ids. Usable during and after speculative
    mode, until {!clear_speculative} drops the provisional names. *)
val resolve : t -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
