(** Arbitrary-precision signed integers.

    Sia's simplex tableau and Fourier-Motzkin elimination square coefficient
    magnitudes; native [int] overflows silently, so every exact computation
    in the solver goes through this module.

    Representation: [Small n] for every value that fits a native [int],
    [Big] (a sign and a little-endian magnitude in base 10^9) only for
    values beyond it. The representation is canonical — the one exception
    is the testing hook {!denormalized_of_int} — so a [Small] operand is
    a native int, and callers with their own fast paths (such as [Rat])
    may match on it. The type is private: values are built only through
    this module's functions, which keep the representation canonical. *)

type t = private
  | Small of int
  | Big of { sign : int; mag : int array }

val zero : t
val one : t
val minus_one : t
val two : t

val of_int : int -> t

val to_int : t -> int option
(** [to_int x] is [Some n] when [x] fits in a native [int]. *)

val to_int_exn : t -> int

val of_string : string -> t
(** Accepts an optional leading ['-'] followed by decimal digits.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], truncated (round toward
    zero) division, [sign r = sign a] or [r = 0].
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val fdiv : t -> t -> t
(** Floor division: largest [q] with [q*b <= a] (for [b > 0]). *)

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val lcm : t -> t -> t
val min : t -> t -> t
val max : t -> t -> t
val pow : t -> int -> t
val to_float : t -> float

val hash : t -> int
(** Representation-independent structural hash: agrees with {!equal}
    even across the internal small/large representation split (see
    {!denormalized_of_int}). Never use the polymorphic [Hashtbl.hash] on
    values of this type. *)

val pp : Format.formatter -> t -> unit

val denormalized_of_int : int -> t
(** Testing hook: the value [n] in a deliberately non-canonical internal
    representation (the arbitrary-precision form, zero-padded, even when
    [n] fits the native fast path). Observationally equal to
    [of_int n] — [compare], [equal] and [hash] must not distinguish the
    two — but structurally distinct, which is what the representation
    robustness properties in the test suite exercise. *)
