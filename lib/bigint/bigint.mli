(** Arbitrary-precision signed integers.

    Sign-magnitude representation over base-[2^30] limbs. Implemented in-repo
    because the sealed environment has no zarith; egglog's [Rational] base
    type (and the interval analysis of the Herbie case study) needs exact,
    overflow-free arithmetic.

    Costs are in limbs: {!divmod} is Knuth's Algorithm D (one pass for a
    one-limb divisor), O(m·n) for an (m+n)-limb dividend and an n-limb
    divisor; {!gcd} is a binary gcd run in place on one copy of each
    operand, O(limbs) per step without allocating, finishing in native
    ints. *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t

val to_int : t -> int option
(** [to_int x] is [Some n] when [x] fits in a native [int]. *)

val of_string : string -> t
(** Parse an optionally ['-']-prefixed decimal numeral.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val sign : t -> int
(** [-1], [0] or [1]. *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Truncated division: [divmod a b = (q, r)] with [a = q*b + r],
    [|r| < |b|] and [r] carrying the sign of [a].
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd zero zero = zero]. *)

val pow : t -> int -> t
(** [pow x n] for [n >= 0]. @raise Invalid_argument on negative exponent. *)

val shift_left : t -> int -> t
val is_zero : t -> bool

val to_float : t -> float
(** Nearest-double approximation (may overflow to infinity). *)

val pp : Format.formatter -> t -> unit
