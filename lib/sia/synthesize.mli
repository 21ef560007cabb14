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
    between them (the solver memo cache, warm learnt clauses) is shared
    inside the worker too; results are therefore identical to a [jobs = 1]
    run, in the same order. *)

type attempt = {
  from : string list;
  pred : Sia_sql.Ast.pred;
  target_cols : string list;
}
(** One synthesis task, mirroring {!synthesize}'s labelled arguments. *)

val plan_shards :
  requested:int -> 'a list -> ('a -> 'b) -> int array * int
(** [plan_shards ~requested tasks key] numbers each task's shard group
    (same [key] → same group, first-occurrence order) and returns the
    effective worker count: [requested] capped by the number of groups
    and by {!Sia_pool.Pool.online_cores}. Shared with
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
