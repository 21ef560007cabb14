(** Simplex over delta-rationals (Dutertre–de Moura general simplex),
    deciding conjunctions of linear atoms and producing Farkas
    certificates for infeasible ones.

    Two interfaces share one engine. The one-shot functions ({!solve},
    {!solve_delta}, {!solve_delta_cert}) build a tableau from an atom
    list and discard it. The session interface exposes the persistent
    tableau directly: external-variable interning and slack rows survive
    across rounds, each round re-scans its atom bounds into caches, and
    branch-and-bound cuts assert and retract bounds through {!push} /
    {!pop} over a trail.

    Determinism contract: every {!check} restarts from the canonical
    basis and pivots through a per-round priority order equal to the
    dense numbering a scratch build of the round's atoms would use, so
    verdicts, models, and certificates are a function of the round's
    atoms alone — bit-identical to one-shot solving — regardless of
    tableau history. *)

open Sia_numeric

(** {1 One-shot interface} *)

type result =
  | Sat of (int * Rat.t) list  (** variable assignment *)
  | Unsat of int list  (** indices of an infeasible subset of the atoms *)

type farkas = (int * Rat.t) list
(** Farkas certificate: per atom index, the multiplier such that the
    weighted sum of the atoms is a contradiction. *)

val solve : Atom.t list -> result
(** Decide a conjunction of linear atoms over the rationals. [Dvd] atoms
    are not handled here ([Invalid_argument]); see {!Theory}. *)

val solve_delta : Atom.t list -> ((int * Delta.t) list, int list) Stdlib.result
(** Like {!solve} but returns the delta-rational model, before
    concretization of strict-inequality infinitesimals. *)

val solve_delta_cert :
  Atom.t list ->
  ((int * Delta.t) list * Delta.t list, int list * farkas) Stdlib.result
(** Like {!solve_delta} but [Ok] additionally carries every in-play
    delta-rational (assignments and bounds, for {!Delta.choose_delta})
    and [Error] carries the Farkas certificate behind the core. *)

val core_of_farkas : (int * Rat.t) list -> int list
(** Sorted, deduplicated indices of a Farkas combination. *)

(** {1 Sessions: persistent tableau, rounds, and cut push/pop} *)

type t
(** A persistent tableau. Structure (interned variables, slack rows) only
    grows; bound state is per round. Not thread-safe. *)

val create : unit -> t

val n_vars : t -> int
(** Dense variables ever allocated — externals plus slacks; the
    structure-bloat measure for rebuild heuristics. *)

type bref =
  | Hyp of int  (** round-local atom index, as passed to the scans *)
  | Cut of int  (** branch-and-bound cut, by root distance at assert *)

type bfarkas = (bref * Rat.t) list
(** Farkas certificate phrased over bound provenance. *)

exception Conflict of bfarkas
(** Raised by the scans and {!assert_cut} when a bound crosses the
    opposite cached bound (or a constant atom is false): the pair is
    already an infeasible combination, no pivoting needed. *)

val begin_round : t -> unit
(** Start a round: clears the active-variable set, cut list, and trail.
    Bound caches are lazily reset as variables are (re-)activated. *)

val intern_var : t -> int -> int
(** Dense id for an external variable, interning it permanently. *)

val touch : t -> int -> unit
(** Activate a dense variable for the current round, assigning it the
    next round priority. Idempotent within a round. Priorities must be
    assigned in the order a scratch build would allocate dense ids —
    externals in atom order first, then slacks in atom order (see
    {!Theory}'s round setup) — for the determinism contract to hold. *)

val seal_base : t -> unit
(** Freeze the base segment of the priority order; cut slacks asserted
    afterwards are numbered behind it (newest cut first). *)

type trans =
  | TConst of {
      ok : bool;  (** whether the constant atom is true *)
      coeff : Rat.t;  (** its Farkas multiplier when false *)
    }
  | TBounds of {
      svar : int;  (** dense slack variable carrying the bounds *)
      bnds : (bool * Delta.t) list;  (** [(upper?, value)] in scan order *)
    }

val translate : t -> Atom.t -> trans
(** Translate a linear atom against the tableau structure, interning its
    variables and (form-keyed) slack. Pure with respect to round state —
    results are cacheable until the tableau is discarded. *)

val scan_upper : t -> int -> Delta.t -> bref -> unit
val scan_lower : t -> int -> Delta.t -> bref -> unit
(** Offer a bound to the round's tightest-bound cache. Only a strictly
    tighter bound replaces the cached one (first-tightest wins ties, as
    in a scratch build scanning atoms in order).
    @raise Conflict on a crossing with the opposite bound. *)

val push : t -> unit
(** Mark a backtracking point for {!pop}. *)

val assert_cut : t -> trans -> depth:int -> unit
(** Assert a translated branching cut at root distance [depth], recording
    the displaced bound on the trail.
    @raise Conflict if the cut crosses an existing bound. *)

val pop : t -> unit
(** Undo every bound assertion since the matching {!push}. *)

val at_base : t -> bool
(** No pushed levels are outstanding. *)

val check : t -> (unit, bfarkas) Stdlib.result
(** Decide the active bounds, restarting from the canonical basis (slacks
    basic on their definitional rows, all assignments zero) and running
    Bland's rule through the round priority order. *)

val model : t -> (int * Delta.t) list
(** After [check = Ok]: assignments of the round's external variables, in
    priority (= scratch dense) order. *)

val first_frac : t -> is_int:(int -> bool) -> (int * Delta.t) option
(** After [check = Ok]: the first external variable in priority order
    that [is_int] holds of and whose assignment is not an integer —
    the branching variable, without materializing the model. *)

val in_play : t -> Delta.t list
(** After [check = Ok]: every in-play delta-rational — assignments and
    active bounds of all round variables — for {!Delta.choose_delta}. *)

val farkas_of_bfarkas : bfarkas -> farkas
(** Specialize bound provenance to atom indices. Meaningful only when no
    cuts were asserted (one-shot solving). *)

val pivot_count : unit -> int
(** Cumulative pivot operations (monotone, process-wide); callers sample
    deltas. *)
