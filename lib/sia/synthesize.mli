(** The [Synthesize] procedure (Algorithm 1): counter-example guided
    learning of a valid, ideally optimal, dimensionality reduction of a
    predicate onto a target column set. *)

type outcome =
  | Optimal of Sia_sql.Ast.pred
      (** valid, and no unsatisfaction tuple satisfies it *)
  | Valid of Sia_sql.Ast.pred
      (** valid; optimality not established within the iteration budget *)
  | Trivial
      (** only [TRUE] is valid (no unsatisfaction tuples exist); the paper
          reports these as NULL results *)
  | Failed of string
      (** unsatisfiable input, projection blow-up, or no valid non-trivial
          predicate found *)

type stats = {
  outcome : outcome;
  iterations : int;  (** learning-loop iterations executed *)
  n_true : int;  (** TRUE samples at the final iteration *)
  n_false : int;
  gen_time : float;  (** seconds in sample/counter-example generation *)
  learn_time : float;
  verify_time : float;
  solver : Sia_smt.Solver.stats;
      (** solver activity attributable to this synthesis run *)
}

val synthesize :
  ?cfg:Config.t ->
  Sia_relalg.Schema.catalog ->
  from:string list ->
  pred:Sia_sql.Ast.pred ->
  target_cols:string list ->
  stats

val canonical_order : Sia_sql.Ast.pred -> Sia_sql.Ast.pred
(** The top-level conjuncts sorted by their SQL rendering: the form every
    emitted predicate takes, so that conjunct order never depends on
    sample order or on how a request ordered its WHERE clause. *)

val predicate : stats -> Sia_sql.Ast.pred option
(** The synthesized predicate of an [Optimal] or [Valid] outcome. *)

val is_valid_outcome : stats -> bool
(** Whether the outcome carries a predicate at all ([Optimal] or
    [Valid]). *)

val is_optimal_outcome : stats -> bool
(** Whether the outcome is [Optimal]: the predicate provably rejects
    every unsatisfaction tuple, not just some. *)

(** {2 Batched synthesis}

    A batch runs many independent synthesis attempts — typically every
    (query, target-column-subset) pair of a workload — and, when
    {!Config.t.jobs} [> 1], fans them out over forked workers
    ([lib/pool]). Attempts of the same query shard to the same worker in
    submission order, so everything the sequential run would have shared
    between them (the sample model pool) is shared inside the worker
    too; results are therefore identical to a [jobs = 1]
    run, in the same order. *)

type attempt = {
  from : string list;
  pred : Sia_sql.Ast.pred;
  target_cols : string list;
}
(** One synthesis task, mirroring {!synthesize}'s labelled arguments. *)

val map_sharded :
  cfg:Config.t ->
  ('a -> 'k) ->
  ('a -> 'b) ->
  'a list ->
  'b list * Sia_smt.Solver.stats Sia_pool.Pool.summary
(** [map_sharded ~cfg key run tasks] runs [run] over [tasks] on up to
    {!Config.t.jobs} forked workers. Tasks with the same [key] share a
    worker, in submission order; the worker count is also capped by the
    number of keys and by {!Sia_pool.Pool.online_cores}, and one worker
    means no fork at all. Results are in submission order. The summary's
    epilogues are each worker's solver delta, already absorbed into this
    process's {!Sia_smt.Solver.stats}. Shared by {!synthesize_batch} and
    {!Rewrite.rewrite_all}. *)

type batch = {
  results : stats list;  (** per-attempt stats, in submission order *)
  jobs : int;
      (** workers actually used (1 = in-process, no fork): the requested
          width capped by the detected online cores and by the number of
          shard groups in the batch *)
  jobs_requested : int;  (** {!Config.t.jobs} as asked for *)
  worker_tasks : int list;  (** attempts completed per worker *)
  worker_wall : float list;  (** wall-clock seconds per worker *)
  worker_solver : Sia_smt.Solver.stats list;
      (** each worker's whole-lifetime solver delta; already absorbed
          into this process's {!Sia_smt.Solver.stats} totals *)
}

val synthesize_batch :
  ?cfg:Config.t -> Sia_relalg.Schema.catalog -> attempt list -> batch
(** Raises [Pool.Worker_error] if a forked worker dies or an attempt
    raises (attempt failures are normally reported as {!Failed}
    outcomes, not exceptions). *)
