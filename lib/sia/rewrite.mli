(** Query rewriting: attach a synthesized predicate to a query so that the
    optimizer's pushdown rule can exploit it (the end-to-end flow of the
    paper's Fig 5). *)

type audit_result =
  | Audit_passed  (** validity re-derived by the certificate-checked audit *)
  | Audit_failed of string
      (** audit could not re-derive validity; the rewrite was dropped *)
  | Audit_off  (** no audit ran (non-paranoid config, or nothing to audit) *)

(** Why a rewrite attached nothing to the query. *)
type not_attached =
  | Already_pushed
      (** The predicate is separable (DESIGN.md §23): [synthesized] is
          the exact projection, decided without synthesis, and it is the
          query's own target-table conjuncts, which pushdown already
          sinks to the target scan. Attaching it could remove no row. *)
  | No_predicate
      (** [Trivial] or [Failed] outcome, a failed audit included. *)

type rewrite_result = {
  original : Sia_sql.Ast.query;
  rewritten : Sia_sql.Ast.query option;
      (** the query with [synthesized] conjoined to its WHERE clause;
          [None] when nothing was attached *)
  synthesized : Sia_sql.Ast.pred option;
  audit : audit_result;
  stats : Synthesize.stats;
}

val not_attached : rewrite_result -> not_attached option
(** Why nothing was attached, or [None] when [rewritten] is [Some _]:
    {!Already_pushed} when a predicate was synthesized but not attached,
    {!No_predicate} when there is none. *)

val not_attached_reason : not_attached -> string
(** One line for reports: why nothing was attached. *)

val audit :
  Sia_relalg.Schema.catalog ->
  from:string list ->
  p:Sia_sql.Ast.pred ->
  p1:Sia_sql.Ast.pred ->
  audit_result
(** Statically re-derive the validity of a rewrite: re-encode [p] and
    [p1] from scratch and decide [is_true p /\ not (is_true p1)] on a
    fresh solver instance with the independent certificate checker
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
    conjoin it to the WHERE clause.

    A separable predicate skips synthesis (DESIGN.md §23). Let L be the
    conjuncts that mention the target columns' table T and R the rest.
    When the target columns lie in T alone and are exactly L's columns,
    every conjunct of L mentions T alone (by
    {!Sia_relalg.Rules.pred_tables}, the planner's pushdown test), and
    is_true(R) is proved satisfiable over the domains, the outcome is
    [Optimal L], or [Trivial] when is_true(L) holds everywhere, and
    nothing is attached ({!Already_pushed}). An [Unsat] or [Unknown]
    verdict falls through to synthesis. *)

val rewrite_for_columns :
  ?cfg:Config.t ->
  Sia_relalg.Schema.catalog ->
  Sia_sql.Ast.query ->
  target_cols:string list ->
  rewrite_result
(** Like {!rewrite_for_table}, but over an explicit column subset instead
    of every predicate column of one table. *)

val attach : Sia_sql.Ast.query -> Sia_sql.Ast.pred -> Sia_sql.Ast.query
(** [attach q p1] conjoins [p1] to [q]'s WHERE clause ([p1] alone when
    [q] has none): the [rewritten] query of every attached result. A
    replayed verdict (the serve daemon's cache) goes through it too, so
    it prints exactly as a fresh rewrite of [q] would. *)

val plans :
  Sia_relalg.Schema.catalog ->
  rewrite_result ->
  Sia_relalg.Plan.t * Sia_relalg.Plan.t option
(** Optimized plans for the original and (when present) rewritten query. *)

val pushed_pred :
  Sia_relalg.Schema.catalog ->
  from:string list ->
  pred:Sia_sql.Ast.pred ->
  target_cols:string list ->
  Sia_sql.Ast.pred option
(** The conjuncts L of [pred] that the separable shortcut would answer
    with, in {!Synthesize.canonical_order}, when [pred] splits as
    {!rewrite_for_table} describes over [target_cols]; [None] when it
    does not split. Syntactic only: no solver call, so a split predicate
    may still fall through to synthesis when its other conjuncts are not
    proved satisfiable. When {!rewrite_for_columns} answers a query with
    {!Already_pushed}, its predicate is exactly [pushed_pred] of the
    query's {!target_pred}. *)

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
