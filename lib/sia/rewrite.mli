(** Query rewriting: attach a synthesized predicate to a query so that the
    optimizer's pushdown rule can exploit it (the end-to-end flow of the
    paper's Fig 5). *)

type audit_result =
  | Audit_passed  (** validity re-derived by the certificate-checked audit *)
  | Audit_failed of string
      (** audit could not re-derive validity; the rewrite was dropped *)
  | Audit_off  (** no audit ran (non-paranoid config, or nothing to audit) *)

type rewrite_result = {
  original : Sia_sql.Ast.query;
  rewritten : Sia_sql.Ast.query option;  (** [None] when synthesis failed *)
  synthesized : Sia_sql.Ast.pred option;
  audit : audit_result;
  stats : Synthesize.stats;
}

val audit :
  Sia_relalg.Schema.catalog ->
  from:string list ->
  p:Sia_sql.Ast.pred ->
  p1:Sia_sql.Ast.pred ->
  audit_result
(** Statically re-derive the validity of a rewrite: re-encode [p] and
    [p1] from scratch and decide [is_true p /\ not (is_true p1)] with the
    solver's memo cache bypassed and the independent certificate checker
    ([lib/check]) forced on for the duration of the call. [Audit_passed]
    therefore means a fresh, certificate-checked Unsat verdict — not a
    replay of anything the synthesis run concluded. Under
    {!Config.t.paranoid}, every emitted rewrite passes through this
    audit; failures drop the rewrite. *)

val rewrite_for_table :
  ?cfg:Config.t ->
  Sia_relalg.Schema.catalog ->
  Sia_sql.Ast.query ->
  target_table:string ->
  rewrite_result
(** Synthesize a predicate over the columns of [target_table] that appear
    in the query's WHERE clause (excluding join-key equalities), and
    conjoin it to the WHERE clause. *)

val rewrite_for_columns :
  ?cfg:Config.t ->
  Sia_relalg.Schema.catalog ->
  Sia_sql.Ast.query ->
  target_cols:string list ->
  rewrite_result
(** Like {!rewrite_for_table}, but over an explicit column subset instead
    of every predicate column of one table. *)

val plans :
  Sia_relalg.Schema.catalog ->
  rewrite_result ->
  Sia_relalg.Plan.t * Sia_relalg.Plan.t option
(** Optimized plans for the original and (when present) rewritten query. *)

val target_pred :
  Sia_relalg.Schema.catalog -> Sia_sql.Ast.query -> Sia_sql.Ast.pred
(** The predicate the synthesizer reasons about for a query: its WHERE
    clause minus cross-table join-key equalities (those stay with the
    join operator). Exposed so serving-layer caches key on exactly the
    predicate {!rewrite_for_columns} would hand to synthesis. *)

val table_target_cols :
  Sia_relalg.Schema.catalog ->
  from:string list ->
  pred:Sia_sql.Ast.pred ->
  target_table:string ->
  string list
(** The columns of [pred] that resolve to [target_table] over [from], in
    predicate order — the column subset {!rewrite_for_table} synthesizes
    over when [pred] is the query's {!target_pred}. Unresolvable columns
    are skipped. *)

(** Hot-state handle for long-running processes (the [sia serve]
    daemon): catalog, config, and the solver's paranoid mode are fixed
    once at creation instead of re-derived per call, and the
    process-global solver hot state — memo cache, model pool — stays
    deliberately resident between requests. The handle additionally
    accumulates per-request solver deltas for serving-side statistics. *)
module Hot : sig
  type t

  val create : ?cfg:Config.t -> Sia_relalg.Schema.catalog -> t
  (** Build a handle. Applies [cfg]'s paranoid/trace switches to
      the process-global solver state once, up front. *)

  val config : t -> Config.t
  val catalog : t -> Sia_relalg.Schema.catalog

  val target_pred : t -> Sia_sql.Ast.query -> Sia_sql.Ast.pred
  (** {!target_pred} over the handle's catalog. *)

  val rewrite :
    t ->
    Sia_sql.Ast.query ->
    target:[ `Cols of string list | `Table of string ] ->
    rewrite_result
  (** One request: {!rewrite_for_columns} or {!rewrite_for_table} under
      the handle's config, with the solver delta folded into
      {!solver_delta}. *)

  val requests : t -> int
  (** Requests served through this handle. *)

  val solver_delta : t -> Sia_smt.Solver.stats
  (** Accumulated solver activity across all {!rewrite} calls. *)
end

val rewrite_all :
  ?cfg:Config.t ->
  Sia_relalg.Schema.catalog ->
  (Sia_sql.Ast.query * string list) list ->
  rewrite_result list
(** [rewrite_all cat tasks] rewrites each [(query, target_cols)] pair —
    {!rewrite_for_columns} over the list — fanning out over
    {!Config.t.jobs} forked workers when [jobs > 1]. Tasks on the same
    query shard to one worker; results are in submission order and
    identical to the sequential run's (see {!Synthesize.synthesize_batch}).
    Raises [Pool.Worker_error] on worker death. *)
