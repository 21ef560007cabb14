(** Rewrite/statement cache of the [sia serve] daemon.

    Entries are keyed on canonical predicate keys ({!Sia_smt.Key}): the
    query's non-join predicate is encoded and canonicalized —
    alpha-renamed variables, sorted/deduplicated conjuncts — and the canonical-variable → column-name mapping plus the
    sorted target columns join the key. Two requests whose WHERE clauses
    differ only in formatting, conjunct order, or variable naming
    therefore hit the same entry and skip {e all} solver work, while
    alpha-equivalent predicates over {e different} columns stay
    distinct.

    Only definitive synthesis outcomes are cached ([Optimal] / [Valid] /
    [Trivial]); failures — including solver resource-limit [Unknown]s —
    are never stored: an [Unknown] is a resource artifact, not a truth.
    The constructor set of {!verdict} makes the invariant structural:
    there is no way to insert a failure.

    Entries expire after a TTL and can be invalidated per table (the
    [invalidate] request, for table-stats changes). The cache registers
    with {!Sia_smt.Solver.on_reset_caches} so a global cache reset also
    flushes it. *)

type t

type key
(** Canonical identity of a rewrite request. Opaque; build with
    {!key}. *)

(** A cachable synthesis verdict. [Failed] outcomes have no
    constructor here on purpose. *)
type verdict =
  | Optimal of Sia_sql.Ast.pred
  | Pushed
      (** optimal, and the predicate is the request's own target-table
          conjuncts ({!Sia_core.Rewrite.pushed_pred}): nothing is
          attached ([Rewrite.Already_pushed]). The predicate is not
          stored: two requests on one key may order or repeat those
          conjuncts differently, so a hit renders the incoming
          request's own. *)
  | Valid of Sia_sql.Ast.pred
  | Trivial

type entry = {
  verdict : verdict;
  tables : string list;  (** FROM tables, the invalidation footprint *)
}

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  expirations : int;  (** entries dropped by TTL *)
  invalidations : int;  (** entries dropped by [invalidate] or [clear] *)
  entries : int;  (** current live entries *)
}

val create :
  ?now:(unit -> float) -> ?ttl:float -> ?capacity:int -> ?register:bool ->
  unit -> t
(** [create ()] builds an empty cache.
    [now] is the clock used for TTL decisions (default
    [Unix.gettimeofday]; tests inject a fake clock).
    [ttl] is the entry lifetime in seconds; [0.] (the default) disables
    expiry. [capacity] bounds the entry count (default 4096): an insert
    into a full cache first sweeps expired entries, then falls back to a
    wholesale reset, which keeps inserts O(1) amortized. [register]
    (default [true]) hooks the cache into
    {!Sia_smt.Solver.on_reset_caches}; unit tests that create many
    short-lived caches pass [false]. *)

val key :
  Sia_relalg.Schema.catalog ->
  from:string list ->
  pred:Sia_sql.Ast.pred ->
  target_cols:string list ->
  (key, string) result
(** Build the canonical key for a rewrite request: encode [pred] (the
    non-join predicate, {!Sia_core.Rewrite.target_pred}) over [from],
    canonicalize the formula, and attach the canonical-variable column
    names, the sorted [target_cols], and whether [pred] splits for the
    separable shortcut ({!Sia_core.Rewrite.pushed_pred}). Requests on
    one key thus agree on whether a fresh rewrite may answer
    {!Pushed}. [Error] when the predicate
    cannot be encoded (unsupported construct, unresolvable column) — the
    request then simply bypasses the cache. *)

val find : t -> key -> entry option
(** Lookup, counting a hit or a miss. An entry past its TTL is dropped
    (counted as an expiration {e and} a miss), so a caller never sees
    stale state. *)

val add : t -> key -> entry -> unit
(** Insert or refresh the entry for [key], resetting its TTL stamp. *)

val invalidate : t -> string list -> int
(** [invalidate t tables] drops every entry whose footprint intersects
    [tables] — the table-stats-change hook. The empty list drops
    everything. Returns the number of entries dropped. *)

val clear : t -> unit
(** Drop all entries (counted as invalidations). Counters survive. *)

val stats : t -> stats
val length : t -> int
