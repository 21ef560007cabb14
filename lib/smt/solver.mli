(** Lazy DPLL(T): CDCL boolean search over the Tseitin abstraction with
    theory checking (simplex + integer branch-and-bound) of each candidate
    assignment, blocking-clause refinement on theory conflicts.

    This is the [Z3]-replacement facade used by Sia: satisfiability plus
    model generation for quantifier-free linear integer/rational arithmetic
    with divisibility atoms. *)

open Sia_numeric

type model = (int * Rat.t) list

type result =
  | Sat of model
  | Unsat
  | Unknown  (** resource limit (unbounded integer branch and bound) *)

val solve :
  ?max_rounds:int -> ?node_limit:int -> is_int:(int -> bool) -> Formula.t ->
  result
(** Find a model of the formula, assigning every variable that occurs in
    it (unconstrained variables default to zero). Integer variables take
    integral values. Each call solves on a fresh instance, so in paranoid
    mode the verdict of this very call is certificate-checked.
    [node_limit] caps each integer branch-and-bound check, as in
    {!Session.solve_under}. *)

val solve_many :
  ?max_rounds:int ->
  is_int:(int -> bool) ->
  count:int ->
  distinct_on:int list ->
  Formula.t ->
  model list * bool
(** Enumerate up to [count] models that pairwise differ on at least one of
    the [distinct_on] variables, reusing one learned-clause state across
    the enumeration (each model adds a blocking clause of fresh
    disequality atoms). The flag is true when the model space was
    exhausted before [count] models were found. *)

val entails : is_int:(int -> bool) -> Formula.t -> Formula.t -> bool option
(** [entails p q] decides whether [p] implies [q] ([Some true]),
    exhibits a countermodel ([Some false]), or gives up ([None]).

    Soundness direction for callers: [None] (Unknown) carries no
    information — it must never be treated as [Some true]. *)

val model_value : model -> int -> Rat.t
(** Lookup with zero default. *)

val model_value_strict : model -> int -> Rat.t
(** Lookup that raises [Invalid_argument] on a missing assignment. Use at
    every call site that requires a total model (countermodel extraction,
    certificate checking) — a silent zero there turns an incomplete model
    into a wrong sample. *)

(** {2 Paranoid mode and certificate auditing}

    In paranoid mode every solver instance streams its proof events,
    theory lemmas (with certificates) and models to an auditor, which
    raises {!Cert.Certificate_error} on anything it cannot independently
    verify. The auditor implementation lives in [lib/check] and installs
    itself via {!set_auditor_factory}; this library only defines the
    injection point, so the checker never depends on solver internals. *)

type auditor = {
  on_sat_event : Cert.sat_event -> unit;
      (** Every clause given to the SAT core, every learnt clause (RUP),
          and a [Final] event per Unsat answer. *)
  on_lemma : is_int:(int -> bool) -> Theory.lit list -> Cert.theory_cert -> unit;
      (** Each theory conflict: the Unsat core and its certificate. *)
  on_model : (int -> Rat.t) -> Formula.t list -> unit;
      (** Each Sat answer: a total model lookup and the formulas it must
          satisfy. *)
}

val set_auditor_factory : (unit -> auditor) -> unit
(** Install the auditor constructor (one auditor per solver instance). *)

val set_paranoid : bool -> unit
(** Enable/disable auditing of new instances. Existing instances and
    sessions keep the mode they were created under. *)

val paranoid : unit -> bool

val reset_caches : unit -> unit
(** Run every {!on_reset_caches} hook, so the caches of higher layers
    (the model pool, the serve-mode rewrite cache) go cold —
    differential test harnesses use this to compare genuinely cold
    runs. The solver itself keeps no state across calls. *)

val on_reset_caches : (unit -> unit) -> unit
(** Register a hook to run on every {!reset_caches}. Hooks must not call
    back into the solver. Used by {!Mpool} and [lib/serve] to flush
    without a reverse dependency. *)

(** {2 Persistent sessions}

    A session keeps one solver instance — atom table, Tseitin encoding,
    theory blocking clauses, SAT learnt clauses — alive across a batch of
    queries that share a base formula. Each query formula is encoded once
    into an activation literal and then passed to the SAT core as an
    assumption, so repeats of the same side formula cost no re-encoding
    and everything learnt in one query speeds up the next. *)
module Session : sig
  type t

  val create : is_int:(int -> bool) -> Formula.t -> t
  (** New session whose base formula is permanently asserted. The [is_int]
      map must cover every variable later used in queries on this
      session. *)

  val solve_under :
    ?max_rounds:int ->
    ?node_limit:int ->
    ?assumptions:Formula.t list ->
    t ->
    result
  (** Satisfiability of [base ∧ assumptions]. The assumption formulas hold
      only for this call; a model assigns every variable of the base and of
      the assumptions. [Unsat] means unsat under these assumptions — the
      session stays usable. [node_limit] caps each integer
      branch-and-bound check (default 4000): callers whose queries are
      unbounded — no domain box — and who handle [Unknown] gracefully
      should pass a small cap so one unlucky candidate cannot stall the
      whole loop. *)

  val add_clause : t -> Formula.t -> unit
  (** Permanently conjoin a formula to the session (cheap on the live
      solver: no re-encoding of anything already seen). *)

  val solve_many_under :
    ?max_rounds:int ->
    ?assumptions:Formula.t list ->
    count:int ->
    distinct_on:int list ->
    t ->
    model list * bool
  (** Like {!solve_many} but on the live session. The per-model blocking
      clauses are scoped to this call (guarded by a fresh activation
      literal): models are pairwise distinct on [distinct_on] within the
      call, and later queries on the session are unaffected — re-exclude
      earlier models with explicit assumptions if needed. The flag is
      true when enumeration stopped before [count] models (model space
      exhausted, or resource limit). *)

  val n_encodings : t -> int
  (** Distinct side formulas encoded into this session so far. *)
end

(** {2 Statistics}

    Global counters over all solver activity in the process; snapshot
    with {!stats} and subtract with {!stats_since} for per-phase deltas. *)

type stats = {
  queries : int;  (** satisfiability questions asked *)
  sat_answers : int;
  unsat_answers : int;
  unknown_answers : int;
  cache_hits : int;
      (** always 0: the memo cache that counted these is gone. The field
          stays only because the end-to-end benchmark ([e2e_bench/e2e.ml])
          reads it for [smt.memo_hit_rate]; it goes with the next
          benchmark change. *)
  encodings : int;  (** Tseitin encodings performed (base + side formulas) *)
  instances : int;  (** fresh solver instances built *)
  theory_rounds : int;  (** simplex / branch-and-bound checks *)
  conflicts : int;
  propagations : int;
  restarts : int;
  pivots : int;  (** simplex pivot operations *)
  tableau_rebuilds : int;  (** scratch rebuilds of a session tableau (bloat escape hatch) *)
  reused_rounds : int;  (** theory rounds served by an already-populated tableau *)
  extended_rounds : int;
      (** theory rounds extending the previous round's sealed bound state
          in place (suffix-only setup, no O(n_base) rescan) *)
  shared_hits : int;
      (** always 0: the shared-context cluster layer that counted these is
          gone. The field stays only because the end-to-end benchmark
          ([e2e_bench/e2e.ml]) reads it for [smt.shared_hit_rate]; it goes
          with the next benchmark change. *)
  shared_misses : int;  (** always 0, like [shared_hits] *)
  pool_hits : int;  (** gen samples replayed from the model pool (no solve) *)
  underapprox_solves : int;  (** constant-narrowed under-approximation queries *)
  gen_fallbacks : int;  (** gen chunks that fell through the ladder to a full solve *)
  cegqi_instantiations : int;  (** universal instantiations added by CEGQI loops *)
  encode_time : float;  (** CPU seconds spent encoding *)
  search_time : float;  (** CPU seconds spent in SAT search + theory *)
  theory_time : float;  (** CPU seconds spent in theory checks (part of [search_time]) *)
  cert_lemmas : int;  (** theory-conflict certificates checked *)
  cert_proofs : int;  (** Unsat proof logs replayed (Final events) *)
  cert_models : int;  (** Sat models independently evaluated *)
  cert_rejections : int;  (** certificates the checker refused (must stay 0) *)
  cert_time : float;  (** CPU seconds spent checking certificates *)
}

val stats : unit -> stats
val stats_zero : stats
val stats_since : stats -> stats
(** Delta between now and an earlier {!stats} snapshot. *)

val stats_add : stats -> stats -> stats
(** Field-wise sum; {!stats_since} is the field-wise difference. *)

val absorb_stats : stats -> unit
(** Merge a delta computed in another process (a pool worker's
    {!stats_since} over its lifetime) into this process's totals, so
    {!stats} accounts for work forked children did on the caller's
    behalf. *)

val reset_stats : unit -> unit
val pp_stats : Format.formatter -> stats -> unit

(** {2 Sample-generation fast-path accounting}

    The under-approximation ladder ({!Mpool}, [Sia_sia.Samples]) and the
    CEGQI loop ({!Cegqi}) run above the solver but report here, so their
    counters ride the same snapshot/absorb plumbing as every other
    statistic (per-phase deltas, fork-pool worker absorption). *)

val note_pool_hits : int -> unit
(** [n] samples served by model-pool replay without any solver query. *)

val note_underapprox_solve : unit -> unit
(** One constant-narrowed (pinned) under-approximation query issued. *)

val note_gen_fallback : unit -> unit
(** One generation chunk fell through the ladder to a full solve. *)

val note_cegqi_instantiation : unit -> unit
(** One universal instantiation added to a CEGQI existential query. *)
