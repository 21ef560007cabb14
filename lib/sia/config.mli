(** Synthesis configuration: the knobs Table 1 of the paper compares. *)

type t = {
  max_iterations : int;  (** learning-loop bound (41 for Sia) *)
  initial_true : int;  (** initial TRUE samples *)
  initial_false : int;  (** initial FALSE samples *)
  per_iteration : int;  (** counter-examples added per loop iteration *)
  qe_method : [ `Real | `Int ];  (** FALSE-sample projection: FM or Cooper *)
  svm_epochs : int;
  max_learn_models : int;  (** disjunction cap in Learn (Alg 2) *)
  tighten : bool;
      (** round SVM directions and solver-tighten their thresholds
          (stabilized learner); disable to reproduce the paper's plain
          Algorithm 2 and its section 6.7 limitation *)
  domain_bound : int;  (** cap on the sampling box's expansion beyond the
      predicate's own constant range *)
  time_budget : float option;
      (** wall-clock cap in seconds on the learning loop, checked between
          iterations ([None] = unbounded). The paper's section 6.2
          recommends exactly such a timeout for production use. *)
  seed : int;
  paranoid : bool;
      (** audit every solver verdict through the independent certificate
          checker ([lib/check]), re-derive every fast-path sample
          (model-pool replay, CEGQI witness) on the certified slow path
          ({!Sia_smt.Solver.solve_fresh}), and re-derive the validity of
          every emitted rewrite before it is returned. Defaults to the
          [SIA_PARANOID] environment variable (tests/CI set it; bench and
          the CLI opt in explicitly). *)
  jobs : int;
      (** worker processes for synthesis batches ({!Synthesize.synthesize_batch},
          {!Rewrite.rewrite_all}): attempts are sharded over this many
          forked workers. [1] (the default, or the [SIA_JOBS] environment
          variable) runs in-process with no fork. Parallel runs emit
          byte-identical results to sequential ones — see [lib/pool]. *)
  trace : bool;
      (** emit structured trace events ([lib/trace]) for this run:
          {!Synthesize.synthesize} enables the global trace sink when set.
          Defaults to the [SIA_TRACE] environment variable; the CLI and
          bench set it from their [--trace]/[--metrics] flags. Export is
          the caller's job ([Sia_trace.Trace.write_chrome] /
          [metrics_string]). *)
}

val default : t
(** The paper's Sia: 41 iterations, 10+10 initial samples, 5 per
    iteration. *)

val sia_v1 : t
(** Non-iterative baseline: 1 iteration, 110+110 initial samples. *)

val sia_v2 : t
(** Non-iterative baseline: 1 iteration, 220+220 initial samples. *)

val apply_switches : t -> unit
(** Turn on the process-global switches [t] asks for: the certificate
    checker when [paranoid], the trace sink when [trace]. Both are
    idempotent and never turned off here, so every entry point that
    runs solver work under [t] can call this first. *)
