(** Training-sample generation (the paper's [GenerateSamples], section 5.3)
    plus the NotOld bookkeeping shared with counter-example generation.

    TRUE samples are feasible restrictions: models of [p] projected onto
    the target columns. FALSE samples are unsatisfaction tuples: models of
    [NotOld /\ forall other-columns. not p], answered by quantifier
    elimination (section 4.2's decidability argument) or, when
    elimination blows up, by counterexample-guided instantiation
    ({!Sia_smt.Cegqi}) — see {!false_oracle}.

    Every generation query climbs an under-approximation ladder before
    the full DPLL(T) enumeration runs: replay of pooled models from
    earlier CEGIS iterations of the same query family
    ({!Sia_smt.Mpool}), then enumeration inside a constant-narrowed slice
    (non-target variables pinned to a pooled model, conflicts remembered
    to prune later pins), then the full solver. The ladder runs in every
    mode; {!Config.t.paranoid} only selects how fast-path answers are
    checked (trusted checkable witness vs certified re-derivation), so
    results are byte-identical across modes. *)

open Sia_numeric
open Sia_smt

type gen_state = {
  env : Encode.env;
  target_vars : int list;  (** value variables of the target columns *)
  rand : Random.State.t;
  cfg : Config.t;
  pool_key : string option;
      (** model-pool family key ({!Sia_smt.Mpool}); [None] disables the
          pool rungs of the ladder *)
  crange : int * int;
      (** {!Encode.const_range} snapshotted at creation, so the sampling
          box is sized from the original predicate's constants and does
          not drift as learned predicates are encoded through the same
          mutable env *)
  session : Solver.Session.t Lazy.t;
      (** one incremental solver session shared by every query this state
          issues (sample generation and the residual optimality check);
          lazy so projection-only callers never build it *)
}

val make_state :
  ?pool_key:string -> Config.t -> Encode.env -> target_cols:string list ->
  gen_state
(** Sampling state for one synthesis attempt: target-variable order fixed
    by [target_cols], RNG seeded from {!Config.t.seed} (same config, same
    samples), solver session created lazily on first use. [pool_key]
    names the attempt's query family for the model pool; it must be a
    function of the fork-pool shard key ((tables, predicate) — see
    [Synthesize.pool_key_of]) so that pool state evolves identically in
    sequential and parallel runs. *)

val not_old : gen_state -> Rat.t array list -> Formula.t
(** Conjunction of "differs from this sample" constraints over the target
    variables. *)

val bounds : gen_state -> Formula.t
(** Domain box for every variable of the predicate, sized from the
    predicate's own constant range (capped at cfg.domain_bound): keeps
    integer branch-and-bound finite and samples near the decision
    boundary. *)

val gen_models :
  ?side:Mpool.side ->
  gen_state -> base:Formula.t -> count:int -> existing:Rat.t array list ->
  Rat.t array list * bool
(** Up to [count] fresh models of [base /\ NotOld /\ bounds], projected on
    the target variables, with randomized diversity hints, served by the
    under-approximation ladder (pool replay, narrowed slice, full solve —
    in that order; [side] names the pool partition, default
    {!Mpool.True_side}). The flag is true when the sample space was
    exhausted — only a hint-free full-solver verdict ever sets it. *)

val solve_residual :
  gen_state -> base:Formula.t -> existing:Rat.t array list -> Solver.result
(** One unboxed query on the shared session: a model of [base] that
    differs from every [existing] sample on the target variables. Used for
    the optimality-confirmation check of the main loop; never answered
    from the pool. *)

val project_away_others :
  gen_state -> Formula.t -> Formula.t option
(** [exists other-columns. p] via the configured QE method; [None] when
    elimination blows up. Prefer {!false_oracle}, which falls back to
    CEGQI instead of giving up. *)

(** {2 The FALSE-sample oracle} *)

type false_oracle =
  | Negated_projection of Formula.t
      (** eager elimination succeeded; the payload is
          [not (exists others. p)], the FALSE-sample base *)
  | Cegqi_block of { univ : int list }
      (** elimination blew up; each sample request runs a CEGQI loop over
          the ∃∀ block with these universal variables *)

val false_oracle : gen_state -> Formula.t -> false_oracle
(** Backend choice depends only on the formula and the configured QE
    method — never on paranoid mode — so all run modes sample
    identically. *)

val gen_false :
  gen_state -> false_oracle -> p_formula:Formula.t -> extra:Formula.t list ->
  count:int -> existing:Rat.t array list -> Rat.t array list * bool
(** Up to [count] unsatisfaction tuples also satisfying the [extra]
    conjuncts (the running candidate predicate, for counter-example
    queries), distinct from [existing]. Exhaustion flag as in
    {!gen_models}; on the CEGQI backend only a definitive [Unsat_ea] sets
    it. *)

val residual_false :
  gen_state -> false_oracle -> p_formula:Formula.t -> extra:Formula.t list ->
  existing:Rat.t array list -> Solver.result
(** Unboxed optimality confirmation over the FALSE region: a fresh
    unsatisfaction tuple satisfying [extra] away from [existing], or
    [Unsat] ([Unknown] on any resource limit — never treated as
    exhaustion). *)
