(** Exact rational numbers over {!Bigint}.

    Invariant: denominator is strictly positive and [gcd num den = 1]
    ([num = 0] implies [den = 1]). All solver arithmetic (simplex pivots,
    Fourier-Motzkin combinations, Cooper coefficients) is exact.

    Two paths compute every result and both keep the invariant. When
    every numerator and denominator of the operands is a [Bigint.Small]
    below 2^30 in magnitude, {!make}, {!add}, {!sub}, {!mul}, {!div},
    {!inv} and {!compare} run on native ints: cross products stay below
    2^60 and one native gcd reduces the result. Any other operand takes
    the {!Bigint} path. The two return equal values, so which one ran is
    never observable. *)

type t = private { num : Bigint.t; den : Bigint.t }

val zero : t
val one : t
val minus_one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] normalizes sign and reduces by the gcd.
    @raise Division_by_zero when [den] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t
val of_ints : int -> int -> t

val of_string : string -> t
(** Parses ["n"], ["n/d"], or a decimal literal ["i.frac"]. *)

val to_string : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Structural hash consistent with {!equal}; built on {!Bigint.hash},
    so it is independent of the numerator/denominator representation
    and allocation-free. Never use the polymorphic [Hashtbl.hash]. *)

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero when dividing by zero. *)

val inv : t -> t
val min : t -> t -> t
val max : t -> t -> t

val floor : t -> Bigint.t
val ceil : t -> Bigint.t
val to_float : t -> float
val of_float_approx : ?max_den:int -> float -> t
(** Best rational approximation of a float with bounded denominator,
    via continued fractions. Used to rationalize SVM hyperplanes. *)

val pp : Format.formatter -> t -> unit
