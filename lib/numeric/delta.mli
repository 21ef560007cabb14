(** Delta-rationals: values of the form [r + k*delta] where [delta] is a
    positive infinitesimal.

    The Dutertre-de Moura general simplex represents strict bounds
    [x < c] as [x <= c - delta]; comparisons are lexicographic on the
    rational and infinitesimal parts. *)

type t = { real : Rat.t; inf : Rat.t }

val make : Rat.t -> Rat.t -> t
val of_rat : Rat.t -> t
val of_int : int -> t
val zero : t

val delta : t
(** The infinitesimal itself: [0 + 1*delta]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Rat.t -> t -> t
val min : t -> t -> t
val max : t -> t -> t

val choose_delta : t list -> Rat.t
(** A concrete positive value for delta small enough that every pairwise
    lexicographic comparison among the given values is preserved when
    delta is substituted: [a < b] concretizes to a strict [<], [a = b]
    to [=] (callers pass all assignments and bounds in play).

    Exactly [min 1 m / 2], where [m] is the least
    [(b.real - a.real) / (a.inf - b.inf)] over the pairs with
    [a.real < b.real] and [a.inf > b.inf] — the same rational as an
    all-pairs scan, so models do not depend on the algorithm. Computed
    by sorting the values into groups by [inf] and one merge sweep per
    pair of groups: O(k n + n log n) for [n] values with [k] distinct
    [inf]s, and O(n) when all [inf]s are equal. *)

val apply : Rat.t -> t -> Rat.t
(** [apply delta0 v] is [v.real + v.inf * delta0]. *)

val concretize : t list -> t -> Rat.t
(** [concretize constraints v] = [apply (choose_delta constraints) v]. *)

val pp : Format.formatter -> t -> unit
