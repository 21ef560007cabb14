open Sia_smt
module Ast = Sia_sql.Ast
module Schema = Sia_relalg.Schema
module Planner = Sia_relalg.Planner
module Rules = Sia_relalg.Rules
module Trace = Sia_trace.Trace

type audit_result =
  | Audit_passed
  | Audit_failed of string
  | Audit_off

type not_attached =
  | Already_pushed
  | No_predicate

type rewrite_result = {
  original : Ast.query;
  rewritten : Ast.query option;
  synthesized : Ast.pred option;
  audit : audit_result;
  stats : Synthesize.stats;
}

(* Nothing attached with a predicate in hand happens only on the
   separable shortcut; every other unattached result has no predicate. *)
let not_attached r =
  match (r.rewritten, r.synthesized) with
  | Some _, _ -> None
  | None, Some _ -> Some Already_pushed
  | None, None -> Some No_predicate

let not_attached_reason = function
  | Already_pushed ->
    "already pushed: the predicate is the query's own target-table \
     conjuncts, which pushdown sinks to the target scan"
  | No_predicate -> "no valid non-trivial predicate"

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
   and decide [is_true p /\ not (is_true p1)] on a fresh solver instance
   with the certificate checker forced on. A bug anywhere in the
   synthesis pipeline (stale pool entry, unsound Verify shortcut) thus
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
        match Solver.solve ~is_int:(Encode.is_int_var env) query with
        | Solver.Unsat -> Audit_passed
        | Solver.Sat _ -> Audit_failed "rewrite admits a countermodel"
        | Solver.Unknown -> Audit_failed "solver resource limit"))

(* The stats of an outcome decided without running CEGIS. *)
let sample_free_stats outcome solver =
  {
    Synthesize.outcome;
    iterations = 0;
    n_true = 0;
    n_false = 0;
    gen_time = 0.0;
    learn_time = 0.0;
    verify_time = 0.0;
    solver;
  }

(* A result that attaches nothing because there is no predicate. *)
let unattached ?(audit = Audit_off) q stats =
  {
    original = q;
    rewritten = None;
    synthesized = None;
    audit;
    stats;
  }

(* Separable predicates (DESIGN.md §23). [Some (l, r)] when the target
   columns lie in one table T, are exactly the columns of the conjuncts
   [l] that mention T, every conjunct of [l] mentions T alone, and the
   rest [r] never mention T. Tables come from the planner's own
   [Rules.pred_tables], so "on T alone" means exactly what pushdown sinks
   to T's scan; an unresolvable column ("?") counts as cross-table. *)
let separable_split cat ~from pred target_cols =
  let table_of name =
    Schema.table_of_column cat from { Ast.table = None; name }
  in
  match List.sort_uniq String.compare (List.map table_of target_cols) with
  | exception Not_found -> None
  | [ t ] -> (
    let rec split l r = function
      | [] -> Some (List.rev l, List.rev r)
      | c :: cs -> (
        match Rules.pred_tables cat from c with
        | [ t' ] when t' = t -> split (c :: l) r cs
        | ts when not (List.mem t ts || List.mem "?" ts) -> split l (c :: r) cs
        | _ -> None)
    in
    let names ps =
      List.sort_uniq String.compare
        (List.map
           (fun (c : Ast.column) -> c.Ast.name)
           (Ast.pred_columns (Ast.conj ps)))
    in
    match split [] [] (Ast.conjuncts pred) with
    | Some (l, r) when names l = List.sort_uniq String.compare target_cols ->
      Some (Ast.conj l, Ast.conj r)
    | Some _ | None -> None)
  | _ -> None

let pushed_pred cat ~from ~pred ~target_cols =
  Option.map
    (fun (l, _) -> Synthesize.canonical_order l)
    (separable_split cat ~from pred target_cols)

(* The outcome of a separable predicate, decided without CEGIS. Over
   disjoint variables Kleene AND gives is_true(l /\ r) = is_true(l) /\
   is_true(r), so once is_true(r) is satisfiable over the domains, [l]
   is the exact projection of the predicate onto the target columns:
   [Optimal l], or [Trivial] when is_true(l) holds everywhere. [None]
   (any Unsat or Unknown) falls through to synthesis. *)
let separable_outcome cat ~from ~pred (l, r) =
  Trace.span "rewrite.separable"
  @@ fun () ->
  let solver0 = Solver.stats () in
  match Encode.build_env cat from pred with
  | exception (Encode.Unsupported _ | Not_found) -> None
  | env -> (
    let sat f =
      Solver.solve ~is_int:(Encode.is_int_var env)
        (Formula.and_ [ Encode.domains env; f ])
    in
    let r_sat =
      match r with
      | Ast.Ptrue -> true
      | r -> (
        match sat (Encode.encode_is_true env r) with
        | Solver.Sat _ -> true
        | Solver.Unsat | Solver.Unknown -> false)
    in
    let outcome =
      if not r_sat then None
      else
        match sat (Formula.not_ (Encode.encode_is_true env l)) with
        | Solver.Unsat -> Some Synthesize.Trivial
        | Solver.Sat _ ->
          Some (Synthesize.Optimal (Synthesize.canonical_order l))
        | Solver.Unknown -> None
    in
    Option.map
      (fun outcome -> sample_free_stats outcome (Solver.stats_since solver0))
      outcome)

let attach q p1 =
  match q.Ast.where with
  | None -> { q with Ast.where = Some p1 }
  | Some w -> { q with Ast.where = Some (Ast.And (w, p1)) }

let attach_result ?cfg cat q pred target_cols =
  let cfg = Option.value cfg ~default:Config.default in
  let from = q.Ast.from in
  (* The switches [Synthesize.synthesize] applies, so the shortcut's
     solver calls are certificate-checked and traced like synthesis's
     own. *)
  Config.apply_switches cfg;
  let separable =
    Option.bind (separable_split cat ~from pred target_cols)
      (separable_outcome cat ~from ~pred)
  in
  let stats =
    match separable with
    | Some stats -> stats
    | None -> Synthesize.synthesize ~cfg cat ~from ~pred ~target_cols
  in
  match Synthesize.predicate stats with
  | None -> unattached q stats
  | Some p1 -> (
    let verdict =
      if cfg.Config.paranoid then audit cat ~from ~p:pred ~p1 else Audit_off
    in
    match verdict with
    | Audit_failed reason ->
      (* The audited implication did not re-derive: drop the rewrite
         rather than emit an unproved predicate. *)
      unattached ~audit:verdict q
        {
          stats with
          Synthesize.outcome =
            Synthesize.Failed ("rewrite audit failed: " ^ reason);
        }
    | Audit_passed | Audit_off when Option.is_some separable ->
      (* Every valid predicate is implied by the target-table conjuncts
         the planner already pushes to the target scan: attaching one
         could never remove a row. *)
      {
        original = q;
        rewritten = None;
        synthesized = Some p1;
        audit = verdict;
        stats;
      }
    | Audit_passed | Audit_off ->
      {
        original = q;
        rewritten = Some (attach q p1);
        synthesized = Some p1;
        audit = verdict;
        stats;
      })

let target_pred = non_join_pred

let rewrite_for_columns ?cfg cat q ~target_cols =
  attach_result ?cfg cat q (non_join_pred cat q) target_cols

let table_target_cols cat ~from ~pred ~target_table =
  List.filter_map
    (fun c ->
      match Schema.table_of_column cat from c with
      | t when t = target_table -> Some c.Ast.name
      | _ -> None
      | exception Not_found -> None)
    (Ast.pred_columns pred)

let rewrite_for_table ?cfg cat q ~target_table =
  let pred = non_join_pred cat q in
  let target_cols = table_target_cols cat ~from:q.Ast.from ~pred ~target_table in
  if target_cols = [] then
    unattached q
      (sample_free_stats
         (Synthesize.Failed "no target-table columns in predicate")
         Solver.stats_zero)
  else attach_result ?cfg cat q pred target_cols

let plans cat r =
  ( Planner.plan cat r.original,
    Option.map (Planner.plan cat) r.rewritten )

(* Batched rewriting on [Synthesize.map_sharded], sharded by the
   (from, pred) pair synthesis sees — the model-pool family key — so one
   query's tasks run on one worker in submission order. *)
let rewrite_all ?cfg cat tasks =
  let cfg = Option.value cfg ~default:Config.default in
  fst
    (Synthesize.map_sharded ~cfg
       (fun (q, _) -> (q.Ast.from, non_join_pred cat q))
       (fun (q, target_cols) -> rewrite_for_columns ~cfg cat q ~target_cols)
       tasks)
