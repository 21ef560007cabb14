open Sia_smt
module Ast = Sia_sql.Ast
module Schema = Sia_relalg.Schema
module Planner = Sia_relalg.Planner
module Trace = Sia_trace.Trace

type audit_result =
  | Audit_passed
  | Audit_failed of string
  | Audit_off

type rewrite_result = {
  original : Ast.query;
  rewritten : Ast.query option;
  synthesized : Ast.pred option;
  audit : audit_result;
  stats : Synthesize.stats;
}

(* The predicate Sia reasons about: the WHERE clause minus cross-table
   join-key equalities (those stay with the join operator). *)
let non_join_pred cat (q : Ast.query) =
  match q.Ast.where with
  | None -> Ast.Ptrue
  | Some w ->
    let is_join_eq p =
      match p with
      | Ast.Cmp (Ast.Eq, Ast.Col c1, Ast.Col c2) -> begin
        match
          ( Schema.table_of_column cat q.Ast.from c1,
            Schema.table_of_column cat q.Ast.from c2 )
        with
        | t1, t2 -> t1 <> t2
        | exception Not_found -> false
      end
      | Ast.Cmp _ | Ast.In _ | Ast.Between _ | Ast.Like _ | Ast.IsNull _
      | Ast.And _ | Ast.Or _ | Ast.Not _ | Ast.Ptrue | Ast.Pfalse -> false
    in
    Ast.conj (List.filter (fun p -> not (is_join_eq p)) (Ast.conjuncts w))

(* Static re-derivation of a rewrite's validity, independent of the
   synthesis run that produced it: re-encode [p] and [p1] from scratch
   and decide [is_true p /\ not (is_true p1)] with the memo cache
   bypassed and the certificate checker forced on. A bug anywhere in the
   synthesis pipeline (stale cache entry, unsound Verify shortcut) thus
   cannot survive into an emitted rewrite. *)
let audit cat ~from ~p ~p1 =
  Trace.span "rewrite.audit"
  @@ fun () ->
  let was = Solver.paranoid () in
  Fun.protect
    ~finally:(fun () -> Solver.set_paranoid was)
    (fun () ->
      Sia_check.Check.enable ();
      match Encode.build_env cat from (Ast.And (p, p1)) with
      | exception Encode.Unsupported msg ->
        Audit_failed ("unsupported predicate: " ^ msg)
      | exception Not_found -> Audit_failed "unresolvable column"
      | env -> (
        let query =
          Formula.and_
            [
              Encode.domains env;
              Encode.encode_is_true env p;
              Formula.not_ (Encode.encode_is_true env p1);
            ]
        in
        match Solver.solve_fresh ~is_int:(Encode.is_int_var env) query with
        | Solver.Unsat -> Audit_passed
        | Solver.Sat _ -> Audit_failed "rewrite admits a countermodel"
        | Solver.Unknown -> Audit_failed "solver resource limit"))

let attach_result ?cfg cat q pred target_cols =
  let cfg = Option.value cfg ~default:Config.default in
  let stats = Synthesize.synthesize ~cfg cat ~from:q.Ast.from ~pred ~target_cols in
  match Synthesize.predicate stats with
  | None ->
    { original = q; rewritten = None; synthesized = None; audit = Audit_off; stats }
  | Some p1 -> (
    let verdict =
      if cfg.Config.paranoid then audit cat ~from:q.Ast.from ~p:pred ~p1
      else Audit_off
    in
    match verdict with
    | Audit_failed reason ->
      (* The audited implication did not re-derive: drop the rewrite
         rather than emit an unproved predicate. *)
      {
        original = q;
        rewritten = None;
        synthesized = None;
        audit = verdict;
        stats =
          {
            stats with
            Synthesize.outcome =
              Synthesize.Failed ("rewrite audit failed: " ^ reason);
          };
      }
    | Audit_passed | Audit_off ->
      let where' =
        match q.Ast.where with None -> Some p1 | Some w -> Some (Ast.And (w, p1))
      in
      {
        original = q;
        rewritten = Some { q with Ast.where = where' };
        synthesized = Some p1;
        audit = verdict;
        stats;
      })

let target_pred = non_join_pred

let rewrite_for_columns ?cfg cat q ~target_cols =
  attach_result ?cfg cat q (non_join_pred cat q) target_cols

let rewrite_for_table ?cfg cat q ~target_table =
  let pred = non_join_pred cat q in
  let target_cols =
    List.filter_map
      (fun c ->
        match Schema.table_of_column cat q.Ast.from c with
        | t when t = target_table -> Some c.Ast.name
        | _ -> None
        | exception Not_found -> None)
      (Ast.pred_columns pred)
  in
  if target_cols = [] then
    {
      original = q;
      rewritten = None;
      synthesized = None;
      audit = Audit_off;
      stats =
        {
          Synthesize.outcome = Synthesize.Failed "no target-table columns in predicate";
          iterations = 0;
          n_true = 0;
          n_false = 0;
          gen_time = 0.0;
          learn_time = 0.0;
          verify_time = 0.0;
          solver = Sia_smt.Solver.stats_zero;
        };
    }
  else attach_result ?cfg cat q pred target_cols

let plans cat r =
  ( Planner.plan cat r.original,
    Option.map (Planner.plan cat) r.rewritten )

(* ------------------------------------------------------------------ *)
(* Hot-state handle: the long-running entry point                      *)
(* ------------------------------------------------------------------ *)

(* A handle pins everything the per-call entry points re-derive on every
   invocation — catalog, config, the paranoid solver mode — and
   accumulates per-request solver deltas, so a serving process pays the
   setup once and keeps the process-global hot state (memo cache, model
   pool) deliberately resident between requests. *)
module Hot = struct
  type t = {
    cat : Schema.catalog;
    cfg : Config.t;
    mutable requests : int;
    mutable solver_delta : Solver.stats;
  }

  let create ?cfg cat =
    let cfg = Option.value cfg ~default:Config.default in
    (* Fix the global solver modes once, at handle creation: a resident
       process must not have its auditing state flipped as a side effect
       of each request the way one-shot CLI calls tolerate. *)
    if cfg.Config.paranoid then Sia_check.Check.enable ();
    if cfg.Config.trace then Trace.enable ();
    { cat; cfg; requests = 0; solver_delta = Solver.stats_zero }

  let config t = t.cfg
  let catalog t = t.cat
  let target_pred t q = non_join_pred t.cat q

  let rewrite t q ~target =
    t.requests <- t.requests + 1;
    let baseline = Solver.stats () in
    let r =
      match target with
      | `Cols cols -> rewrite_for_columns ~cfg:t.cfg t.cat q ~target_cols:cols
      | `Table tbl -> rewrite_for_table ~cfg:t.cfg t.cat q ~target_table:tbl
    in
    t.solver_delta <- Solver.stats_add t.solver_delta (Solver.stats_since baseline);
    r

  let requests t = t.requests
  let solver_delta t = t.solver_delta
end

(* Batched rewriting with the same sharding discipline as
   [Synthesize.synthesize_batch]: tasks on the same query share a worker,
   results come back in submission order, worker solver deltas are folded
   into this process's totals. *)
let rewrite_all ?cfg cat tasks =
  let cfg = Option.value cfg ~default:Config.default in
  (* See [Synthesize.synthesize_batch]: the parent must be enabled for
     the pool to absorb the forked workers' trace events. *)
  if cfg.Config.trace then Trace.enable ();
  let run (q, target_cols) = rewrite_for_columns ~cfg cat q ~target_cols in
  (* Shard by the (from, pred) pair synthesis sees — the model-pool
     family key — so one query's tasks run on one worker in submission
     order. Cap the fork width like [synthesize_batch] does. *)
  let group_of, jobs =
    Synthesize.plan_shards ~requested:cfg.Config.jobs tasks (fun (q, _) ->
        (q.Ast.from, non_join_pred cat q))
  in
  if jobs <= 1 then List.map run tasks
  else begin
    let baseline = Solver.stats () in
    let results, summary =
      Sia_pool.Pool.map ~jobs
        ~shard:(fun i _ -> group_of.(i))
        ~epilogue:(fun () -> Solver.stats_since baseline)
        run tasks
    in
    List.iter Solver.absorb_stats summary.Sia_pool.Pool.epilogues;
    if Trace.enabled () then
      List.iteri
        (fun i (s : Solver.stats) ->
          Trace.counter ~tid:(i + 1) "worker.solver"
            [
              ("queries", float_of_int s.Solver.queries);
              ("cache_hits", float_of_int s.Solver.cache_hits);
              ("theory_rounds", float_of_int s.Solver.theory_rounds);
              ("pivots", float_of_int s.Solver.pivots);
            ])
        summary.Sia_pool.Pool.epilogues;
    results
  end
