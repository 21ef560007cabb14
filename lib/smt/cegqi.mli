(** Counterexample-guided quantifier instantiation (Reynolds et al.) for
    the ∃∀ query shape behind Sia's FALSE-sample oracle:

    {v exists x.  G(x)  /\  forall y. not P(x, y) v}

    Used when eager elimination ({!Qe.project}) blows up (see
    {!Qe.project_or_defer}). Maintains a growing set of universal
    instantiations refuting previous candidates and alternates two
    quantifier-free solver queries until a candidate survives its
    universal check or the existential side becomes unsatisfiable.

    Certificate story: both directions reduce to plain {!Solver.solve}
    verdicts — audited under paranoid mode — so the final
    Unsat proof (for {!Unsat_ea}) and each model (for
    {!Witness}) carry the same certificates as any direct solve. The
    instantiation count is reported through
    {!Solver.note_cegqi_instantiation}. *)

type outcome =
  | Witness of Solver.model
      (** a model of the existential block: it satisfies [G] and its
          universal check ([P] with every non-universal variable pinned)
          came back Unsat. Assigns every non-universal variable of [G]
          and [P], plus whatever else the existential query mentioned
          (universal variables occurring in the guard keep the sampled
          values, so guards evaluate strictly against the witness). *)
  | Unsat_ea of int
      (** no such [x]; payload is the number of instantiations the final
          unsatisfiable existential query carried *)
  | Unknown_ea  (** iteration budget or solver resource limit *)

val solve_exists_forall :
  ?max_iters:int ->
  ?max_rounds:int ->
  ?node_limit:int ->
  is_int:(int -> bool) ->
  univ:int list ->
  matrix:Formula.t ->
  guard:Formula.t list ->
  unit ->
  outcome
(** [max_iters] (default 24) bounds the instantiation loop; overruns are
    [Unknown_ea], which callers must treat like a solver resource limit
    (never as an Unsat or a validity claim). [node_limit] caps each
    integer branch-and-bound check, as in {!Solver.Session.solve_under} —
    unboxed callers (the residual optimality confirmation) must set it. *)
