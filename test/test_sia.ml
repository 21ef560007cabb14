(* Integration and unit tests for the Sia core: encoding, sample
   generation, learning, verification, tightening, synthesis (Algorithm 1),
   rewriting, and the syntactic baselines. *)

open Sia_numeric
open Sia_smt
module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Printer = Sia_sql.Printer
module Date = Sia_sql.Date
module Schema = Sia_relalg.Schema
module Planner = Sia_relalg.Planner
module Table = Sia_engine.Table
module Tpch = Sia_engine.Tpch
module Exec = Sia_engine.Exec
open Sia_core

let cat = Schema.tpch
let from2 = [ "lineitem"; "orders" ]

let motivating_pred =
  Parser.parse_predicate
    "l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01' AND \
     l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10"

(* A catalog with a nullable column, for the trivalent tests. *)
let nullable_cat : Schema.catalog =
  [
    {
      Schema.tname = "t";
      row_estimate = 100;
      columns =
        [
          { Schema.cname = "a"; ctype = Schema.Tint; nullable = true };
          { Schema.cname = "b"; ctype = Schema.Tint; nullable = true };
        ];
    };
  ]

(* --- Encode --- *)

let test_encode_dates () =
  let p = Parser.parse_predicate "o_orderdate < DATE '1993-06-01'" in
  let env = Encode.build_env cat [ "orders" ] p in
  let f = Encode.encode_bool env p in
  let v = Encode.var_of_column env "o_orderdate" in
  let day d = Rat.of_int (Date.to_days (Date.of_string d)) in
  Alcotest.(check bool) "1993-05-31 satisfies" true
    (Formula.eval f (fun x -> if x = v then day "1993-05-31" else Rat.zero));
  Alcotest.(check bool) "1993-06-01 violates" false
    (Formula.eval f (fun x -> if x = v then day "1993-06-01" else Rat.zero))

let test_encode_composite () =
  (* l_quantity * l_linenumber is non-linear: the product is folded into a
     composite variable (the factors are still interned as columns). *)
  let p = Parser.parse_predicate "l_quantity * l_linenumber > 10" in
  let env = Encode.build_env cat [ "lineitem" ] p in
  Alcotest.(check bool) "composite variable present" true
    (List.exists (fun c -> String.length c > 0 && c.[0] = '(') (Encode.columns env))

let test_encode_div_const () =
  let p = Parser.parse_predicate "l_quantity / 2 >= 5" in
  let env = Encode.build_env cat [ "lineitem" ] p in
  let f = Encode.encode_bool env p in
  let v = Encode.var_of_column env "l_quantity" in
  Alcotest.(check bool) "10/2 >= 5" true
    (Formula.eval f (fun x -> if x = v then Rat.of_int 10 else Rat.zero));
  Alcotest.(check bool) "9/2 >= 5 fails (exact rational semantics)" false
    (Formula.eval f (fun x -> if x = v then Rat.of_int 9 else Rat.zero))

let test_encode_const_range () =
  let p = Parser.parse_predicate "l_quantity > 7 AND l_quantity < 42" in
  let env = Encode.build_env cat [ "lineitem" ] p in
  let lo, hi = Encode.const_range env in
  Alcotest.(check bool) "range covers constants" true (lo <= -100 && hi >= 42)

(* --- Verify (incl. trivalent NULL semantics) --- *)

let test_verify_weaker () =
  let p = Parser.parse_predicate "l_quantity > 10" in
  let p1 = Parser.parse_predicate "l_quantity > 5" in
  let env = Encode.build_env cat [ "lineitem" ] (Ast.And (p, p1)) in
  Alcotest.(check bool) "p implies weaker p1" true
    (Verify.implies env ~p ~p1 = Verify.Valid);
  Alcotest.(check bool) "weaker does not imply stronger" true
    (Verify.implies env ~p:p1 ~p1:p = Verify.Invalid)

let test_verify_motivating () =
  (* The paper's three synthesized conjuncts are all implied. *)
  let implied =
    [
      "l_shipdate < DATE '1993-06-20'";
      "l_commitdate < DATE '1993-07-18'";
      "l_commitdate - l_shipdate < 29";
    ]
  in
  List.iter
    (fun s ->
      let p1 = Parser.parse_predicate s in
      let env = Encode.build_env cat from2 (Ast.And (motivating_pred, p1)) in
      Alcotest.(check bool) s true
        (Verify.implies env ~p:motivating_pred ~p1 = Verify.Valid))
    implied;
  (* And a strictly tighter bound is not. *)
  let p1 = Parser.parse_predicate "l_commitdate - l_shipdate < 28" in
  let env = Encode.build_env cat from2 (Ast.And (motivating_pred, p1)) in
  Alcotest.(check bool) "tighter bound rejected" true
    (Verify.implies env ~p:motivating_pred ~p1 = Verify.Invalid)

let test_verify_null_semantics () =
  (* p = (a > 0 OR b > 0) is TRUE for (a=1, b=NULL); p1 = b > -100 over {b}
     evaluates to NULL there, so the rewrite would drop the tuple: p1 must
     NOT verify, even though it is implied over non-null data. *)
  let p = Parser.parse_predicate "a > 0 OR b > 0" in
  let p1 = Parser.parse_predicate "b > -100 OR b <= -100 OR a > 0" in
  ignore p1;
  let bad = Parser.parse_predicate "b > -100 OR b <= -100" in
  let env = Encode.build_env nullable_cat [ "t" ] (Ast.And (p, bad)) in
  Alcotest.(check bool) "tautology-over-values is not valid under NULLs" true
    (Verify.implies env ~p ~p1:bad = Verify.Invalid);
  (* Whereas keeping a in the predicate repairs it. *)
  let good = Parser.parse_predicate "a > 0 OR b > 0" in
  let env2 = Encode.build_env nullable_cat [ "t" ] (Ast.And (p, good)) in
  Alcotest.(check bool) "p implies itself under NULLs" true
    (Verify.implies env2 ~p ~p1:good = Verify.Valid)

let test_verify_unknown_never_valid () =
  (* A zero branch-and-bound budget turns every theory check into
     Unknown: the verdict must surface as Unknown (treated as not-valid
     by every caller), never as Valid — pinning the soundness direction
     of resource limits. *)
  let p = Parser.parse_predicate "l_quantity > 10" in
  let p1 = Parser.parse_predicate "l_quantity > 5" in
  let env = Encode.build_env cat [ "lineitem" ] (Ast.And (p, p1)) in
  let s = Verify.make_session env ~p in
  let verdict, _ = Verify.implies_ce_session ~node_limit:0 s ~p1 in
  Alcotest.(check bool) "unknown, not valid" true (verdict = Verify.Unknown)

(* --- Samples --- *)

let sample_state pred target_cols =
  let env = Encode.build_env cat from2 pred in
  let st = Samples.make_state Config.default env ~target_cols in
  (env, st, Encode.encode_bool env pred)

let test_samples_true_are_feasible () =
  let env, st, pf = sample_state motivating_pred [ "l_shipdate"; "l_commitdate" ] in
  let ts, exhausted = Samples.gen_models st ~base:pf ~count:12 ~existing:[] in
  Alcotest.(check int) "got 12" 12 (List.length ts);
  Alcotest.(check bool) "not exhausted" false exhausted;
  (* Each TRUE sample must extend to a model of p: check p /\ cols=sample. *)
  let ship = Encode.var_of_column env "l_shipdate" in
  let commit = Encode.var_of_column env "l_commitdate" in
  List.iter
    (fun s ->
      let fixed =
        Formula.and_
          [
            pf;
            Formula.atom (Atom.mk_eq (Linexpr.var ship) (Linexpr.const s.(0)));
            Formula.atom (Atom.mk_eq (Linexpr.var commit) (Linexpr.const s.(1)));
          ]
      in
      match Solver.solve ~is_int:(Encode.is_int_var env) fixed with
      | Solver.Sat _ -> ()
      | Solver.Unsat | Solver.Unknown -> Alcotest.fail "TRUE sample is not feasible")
    ts;
  (* Distinctness. *)
  let key s = Rat.to_string s.(0) ^ "," ^ Rat.to_string s.(1) in
  Alcotest.(check int) "all distinct" 12
    (List.length (List.sort_uniq Stdlib.compare (List.map key ts)))

let test_samples_false_are_unsat_tuples () =
  let env, st, pf = sample_state motivating_pred [ "l_shipdate"; "l_commitdate" ] in
  let psi = Option.get (Samples.project_away_others st pf) in
  let fs, _ = Samples.gen_models st ~base:(Formula.not_ psi) ~count:8 ~existing:[] in
  Alcotest.(check bool) "got false samples" true (List.length fs > 0);
  let ship = Encode.var_of_column env "l_shipdate" in
  let commit = Encode.var_of_column env "l_commitdate" in
  List.iter
    (fun s ->
      (* No extension satisfies p: p /\ cols=sample must be unsat. *)
      let fixed =
        Formula.and_
          [
            pf;
            Formula.atom (Atom.mk_eq (Linexpr.var ship) (Linexpr.const s.(0)));
            Formula.atom (Atom.mk_eq (Linexpr.var commit) (Linexpr.const s.(1)));
          ]
      in
      match Solver.solve ~is_int:(Encode.is_int_var env) fixed with
      | Solver.Unsat -> ()
      | Solver.Sat _ -> Alcotest.fail "FALSE sample has a satisfying extension"
      | Solver.Unknown -> Alcotest.fail "solver unknown")
    fs

(* --- Tighten --- *)

let test_tighten_threshold () =
  (* p: 5 <= l_quantity <= 40; strongest t for w = (+1) is 5, for (-1) is -40. *)
  let p = Parser.parse_predicate "l_quantity >= 5 AND l_quantity <= 40" in
  let env = Encode.build_env cat [ "lineitem" ] p in
  let pf = Encode.encode_bool env p in
  Alcotest.(check (option int)) "lower bound" (Some 5)
    (Tighten.strongest_threshold env ~p_formula:pf ~cols:[ "l_quantity" ] ~w:[| Rat.one |]);
  Alcotest.(check (option int)) "upper bound (negated direction)" (Some (-40))
    (Tighten.strongest_threshold env ~p_formula:pf ~cols:[ "l_quantity" ]
       ~w:[| Rat.minus_one |])

let test_tighten_unbounded () =
  let p = Parser.parse_predicate "l_quantity <= 40" in
  let env = Encode.build_env cat [ "lineitem" ] p in
  let pf = Encode.encode_bool env p in
  Alcotest.(check (option int)) "unbounded below" None
    (Tighten.strongest_threshold env ~p_formula:pf ~cols:[ "l_quantity" ] ~w:[| Rat.one |])

(* --- Learn --- *)

let test_learn_accepts_all_true () =
  let env, st, pf = sample_state motivating_pred [ "l_shipdate"; "l_commitdate" ] in
  let psi = Option.get (Samples.project_away_others st pf) in
  let ts, _ = Samples.gen_models st ~base:pf ~count:10 ~existing:[] in
  let fs, _ = Samples.gen_models st ~base:(Formula.not_ psi) ~count:10 ~existing:[] in
  let learned =
    Learn.learn Config.default env ~p_formula:pf ~cols:[ "l_shipdate"; "l_commitdate" ]
      ~ts ~fs
  in
  let ship = Encode.var_of_column env "l_shipdate" in
  let commit = Encode.var_of_column env "l_commitdate" in
  List.iter
    (fun s ->
      let lookup v = if v = ship then s.(0) else if v = commit then s.(1) else Rat.zero in
      Alcotest.(check bool) "TRUE sample accepted" true
        (Formula.eval learned.Learn.formula lookup))
    ts

(* --- Synthesize (Algorithm 1) --- *)

let test_synthesize_motivating_optimal () =
  let st =
    Synthesize.synthesize cat ~from:from2 ~pred:motivating_pred
      ~target_cols:[ "l_shipdate"; "l_commitdate" ]
  in
  Alcotest.(check bool) "optimal outcome" true (Synthesize.is_optimal_outcome st);
  let p1 = Option.get (Synthesize.predicate st) in
  (* Validity double-check through an independent Verify call. *)
  let env = Encode.build_env cat from2 (Ast.And (motivating_pred, p1)) in
  Alcotest.(check bool) "independently valid" true
    (Verify.implies env ~p:motivating_pred ~p1 = Verify.Valid)

let test_synthesize_one_col_bound () =
  let st =
    Synthesize.synthesize cat ~from:from2 ~pred:motivating_pred
      ~target_cols:[ "l_shipdate" ]
  in
  Alcotest.(check bool) "optimal" true (Synthesize.is_optimal_outcome st);
  let p1 = Option.get (Synthesize.predicate st) in
  (* The optimal one-column reduction is l_shipdate <= 1993-06-19. *)
  let env = Encode.build_env cat from2 (Ast.And (motivating_pred, p1)) in
  let bound = Parser.parse_predicate "l_shipdate < DATE '1993-06-20'" in
  Alcotest.(check bool) "equivalent to the paper's bound (=>)" true
    (Verify.implies env ~p:p1 ~p1:bound = Verify.Valid);
  Alcotest.(check bool) "equivalent to the paper's bound (<=)" true
    (Verify.implies env ~p:bound ~p1 = Verify.Valid)

let test_synthesize_trivial () =
  (* For any l_shipdate there is an o_orderdate making p true: no
     unsatisfaction tuple exists, only TRUE is valid. *)
  let p = Parser.parse_predicate "l_shipdate - o_orderdate < 20" in
  let st = Synthesize.synthesize cat ~from:from2 ~pred:p ~target_cols:[ "l_shipdate" ] in
  Alcotest.(check bool) "trivial" true (st.Synthesize.outcome = Synthesize.Trivial)

let test_synthesize_finite_true_space () =
  (* p pins l_quantity to two values: the optimal reduction is that
     disjunction of equalities (section 5.3's finite shortcut). *)
  let p =
    Parser.parse_predicate
      "(l_quantity = 3 OR l_quantity = 7) AND o_shippriority > l_quantity"
  in
  let st = Synthesize.synthesize cat ~from:from2 ~pred:p ~target_cols:[ "l_quantity" ] in
  Alcotest.(check bool) "optimal" true (Synthesize.is_optimal_outcome st);
  let p1 = Option.get (Synthesize.predicate st) in
  let env = Encode.build_env cat from2 (Ast.And (p, p1)) in
  let expect = Parser.parse_predicate "l_quantity = 3 OR l_quantity = 7" in
  Alcotest.(check bool) "disjunction of the two values" true
    (Verify.implies env ~p:p1 ~p1:expect = Verify.Valid
     && Verify.implies env ~p:expect ~p1 = Verify.Valid)

let test_synthesize_band_with_tightening () =
  (* Section 6.7's non-separable band: tightening solves it. *)
  let p =
    Parser.parse_predicate
      "l_quantity > o_shippriority AND l_quantity < o_shippriority + 50 AND \
       o_shippriority > 0 AND o_shippriority < 150"
  in
  let st = Synthesize.synthesize cat ~from:from2 ~pred:p ~target_cols:[ "l_quantity" ] in
  Alcotest.(check bool) "optimal band" true (Synthesize.is_optimal_outcome st);
  let p1 = Option.get (Synthesize.predicate st) in
  let env = Encode.build_env cat from2 (Ast.And (p, p1)) in
  let expect = Parser.parse_predicate "l_quantity >= 2 AND l_quantity <= 198" in
  Alcotest.(check bool) "2 <= q <= 198" true
    (Verify.implies env ~p:p1 ~p1:expect = Verify.Valid
     && Verify.implies env ~p:expect ~p1 = Verify.Valid)

let test_synthesize_time_budget () =
  (* A one-millisecond budget still allows the first iteration, then stops;
     the call must return promptly with an honest outcome. Start cold:
     with the model pool warmed by earlier tests the whole run can finish
     within the budget, and the test would time the pool, not the
     budget. *)
  Solver.reset_caches ();
  let cfg = { Config.default with Config.time_budget = Some 0.001 } in
  let t0 = Unix.gettimeofday () in
  let st =
    Synthesize.synthesize ~cfg cat ~from:from2 ~pred:motivating_pred
      ~target_cols:[ "l_shipdate"; "l_commitdate" ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "stops early" true (st.Synthesize.iterations <= 2);
  Alcotest.(check bool) "returns quickly" true (elapsed < 30.0);
  (* Any predicate it does return must still be valid. *)
  match Synthesize.predicate st with
  | None -> ()
  | Some p1 ->
    let env = Encode.build_env cat from2 (Ast.And (motivating_pred, p1)) in
    Alcotest.(check bool) "budgeted result valid" true
      (Verify.implies env ~p:motivating_pred ~p1 = Verify.Valid)

let test_synthesize_missing_target () =
  let p = Parser.parse_predicate "l_shipdate - o_orderdate < 20" in
  let st = Synthesize.synthesize cat ~from:from2 ~pred:p ~target_cols:[ "l_commitdate" ] in
  match st.Synthesize.outcome with
  | Synthesize.Failed _ -> ()
  | Synthesize.Optimal _ | Synthesize.Valid _ | Synthesize.Trivial ->
    Alcotest.fail "expected failure for target column absent from predicate"

(* --- Rewrite + engine equivalence --- *)

let test_rewrite_end_to_end () =
  let q =
    Parser.parse_query
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
       l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01' AND \
       l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10"
  in
  let r = Rewrite.rewrite_for_table cat q ~target_table:"lineitem" in
  let q' = Option.get r.Rewrite.rewritten in
  let li, ord = Tpch.generate ~sf:0.002 ~seed:3 () in
  let tables = [ ("lineitem", li); ("orders", ord) ] in
  let out1 = Exec.run ~tables (Planner.plan cat q) in
  let out2 = Exec.run ~tables (Planner.plan cat q') in
  Alcotest.(check int) "rewrite preserves semantics on data" out1.Table.nrows
    out2.Table.nrows;
  (* The rewritten plan filters lineitem below the join. *)
  let plan' = Planner.plan cat q' in
  let has_lineitem_filter =
    let rec go = function
      | Sia_relalg.Plan.Filter (_, Sia_relalg.Plan.Scan "lineitem") -> true
      | Sia_relalg.Plan.Filter (_, sub) | Sia_relalg.Plan.Project (_, sub) -> go sub
      | Sia_relalg.Plan.Join (_, l, r) -> go l || go r
      | Sia_relalg.Plan.Scan _ -> false
    in
    go plan'
  in
  Alcotest.(check bool) "filter pushed to lineitem" true has_lineitem_filter

(* Golden snapshots for the motivating query (examples/tpch_motivating.ml):
   the full rewritten SQL, verbatim. The pipeline is deterministic (no
   wall-clock budget in [Config.default]), so any drift here is a real
   behaviour change — inspect it, then update the expected strings. *)
let test_rewrite_golden_motivating () =
  let q1_text =
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
     l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01' AND \
     l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10"
  in
  let q1 = Parser.parse_query q1_text in
  let rendered r =
    match r.Rewrite.rewritten with
    | Some q -> Printer.string_of_query q
    | None -> "<none>"
  in
  let prefix = q1_text ^ " AND " in
  Alcotest.(check string) "table-level rewrite (both synthesized bounds)"
    (prefix
     ^ "DATE '1993-06-19' >= l_shipdate AND \
        l_shipdate + INTERVAL '28' DAY >= l_commitdate;")
    (rendered (Rewrite.rewrite_for_table cat q1 ~target_table:"lineitem"));
  Alcotest.(check string) "single-column rewrite (paper's l_shipdate bound)"
    (prefix ^ "DATE '1993-06-19' >= l_shipdate;")
    (rendered (Rewrite.rewrite_for_columns cat q1 ~target_cols:[ "l_shipdate" ]));
  Alcotest.(check string) "two-column rewrite"
    (prefix
     ^ "DATE '1993-06-19' >= l_shipdate AND \
        l_shipdate + INTERVAL '28' DAY >= l_commitdate;")
    (rendered
       (Rewrite.rewrite_for_columns cat q1
          ~target_cols:[ "l_shipdate"; "l_commitdate" ]))

(* The separable shortcut (DESIGN.md §23) on its edge cases: each input
   either takes the shortcut — [Already_pushed] or a sample-free
   [Trivial] — or falls through to CEGIS with the outcome and SQL the
   pipeline gave before the shortcut existed. *)
type shortcut_case = {
  name : string;
  sql : string;
  target : [ `Cols of string list | `Table of string ];
  outcome : string;
  rewritten : string;  (** "-" when nothing is attached *)
  shortcut : bool;
}

let shortcut_cases =
  [
    {
      name = "R unsatisfiable: falls through";
      sql =
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
         l_shipdate < DATE '1995-01-01' AND o_orderdate < DATE '1993-01-01' \
         AND o_orderdate > DATE '1994-01-01'";
      target = `Cols [ "l_shipdate" ];
      outcome = "failed: predicate unsatisfiable over the sample domain";
      rewritten = "-";
      shortcut = false;
    };
    {
      name = "L tautological: trivial";
      sql =
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
         (l_quantity >= 0 OR l_quantity < 1) AND o_orderdate < DATE '1993-06-01'";
      target = `Table "lineitem";
      outcome = "trivial";
      rewritten = "-";
      shortcut = true;
    };
    {
      name = "strict subset of L's columns: CEGIS";
      sql =
        "SELECT * FROM lineitem WHERE l_shipdate < DATE '1995-01-01' AND \
         l_quantity < 20";
      target = `Cols [ "l_shipdate" ];
      outcome = "optimal: DATE '1994-12-31' >= l_shipdate";
      rewritten =
        "SELECT * FROM lineitem WHERE l_shipdate < DATE '1995-01-01' AND \
         l_quantity < 20 AND DATE '1994-12-31' >= l_shipdate;";
      shortcut = false;
    };
    {
      name = "targets on two tables: CEGIS";
      sql =
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
         l_shipdate < DATE '1995-01-01' AND o_orderdate < DATE '1993-06-01'";
      target = `Cols [ "l_shipdate"; "o_orderdate" ];
      outcome =
        "optimal: DATE '1993-05-31' >= o_orderdate AND \
         DATE '1994-12-31' >= l_shipdate";
      rewritten =
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
         l_shipdate < DATE '1995-01-01' AND o_orderdate < DATE '1993-06-01' \
         AND DATE '1993-05-31' >= o_orderdate AND DATE '1994-12-31' >= \
         l_shipdate;";
      shortcut = false;
    };
    {
      name = "separable: exact projection, nothing attached";
      sql =
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
         l_shipdate < DATE '1995-01-01' AND o_orderdate < DATE '1993-06-01'";
      target = `Table "lineitem";
      outcome = "optimal: l_shipdate < DATE '1995-01-01'";
      rewritten = "-";
      shortcut = true;
    };
  ]

let test_rewrite_separable_shortcut () =
  let label (st : Synthesize.stats) =
    match st.Synthesize.outcome with
    | Synthesize.Optimal p -> "optimal: " ^ Printer.string_of_pred p
    | Synthesize.Valid p -> "valid: " ^ Printer.string_of_pred p
    | Synthesize.Trivial -> "trivial"
    | Synthesize.Failed msg -> "failed: " ^ msg
  in
  (* Paranoid: the shortcut's predicate goes through the rewrite audit
     and no certificate is rejected on the way. *)
  let cfg = { Config.default with Config.paranoid = true } in
  List.iter
    (fun c ->
      let q = Parser.parse_query c.sql in
      let s0 = Solver.stats () in
      let r =
        match c.target with
        | `Cols cols -> Rewrite.rewrite_for_columns ~cfg cat q ~target_cols:cols
        | `Table t -> Rewrite.rewrite_for_table ~cfg cat q ~target_table:t
      in
      let st = r.Rewrite.stats in
      Alcotest.(check string) (c.name ^ ": outcome") c.outcome (label st);
      Alcotest.(check string) (c.name ^ ": SQL") c.rewritten
        (match r.Rewrite.rewritten with
         | Some q' -> Printer.string_of_query q'
         | None -> "-");
      let took_shortcut =
        st.Synthesize.iterations = 0
        && st.Synthesize.n_true + st.Synthesize.n_false = 0
        && (match st.Synthesize.outcome with
            | Synthesize.Failed _ -> false
            | Synthesize.Optimal _ | Synthesize.Valid _ | Synthesize.Trivial -> true)
      in
      Alcotest.(check bool) (c.name ^ ": shortcut") c.shortcut took_shortcut;
      Alcotest.(check bool) (c.name ^ ": already pushed") true
        ((Rewrite.not_attached r = Some Rewrite.Already_pushed)
         = (c.shortcut && Synthesize.is_valid_outcome st));
      (match r.Rewrite.synthesized with
       | Some p1 when r.Rewrite.rewritten = None ->
         Alcotest.(check bool) (c.name ^ ": audited") true
           (r.Rewrite.audit = Rewrite.Audit_passed);
         Alcotest.(check bool) (c.name ^ ": re-audit") true
           (Rewrite.audit cat ~from:q.Ast.from ~p:(Rewrite.target_pred cat q) ~p1
            = Rewrite.Audit_passed)
       | Some _ | None -> ());
      Alcotest.(check int) (c.name ^ ": certificate rejections") 0
        (Solver.stats_since s0).Solver.cert_rejections)
    shortcut_cases

let prop_synthesized_predicates_valid =
  (* Random generated queries: any synthesized predicate must pass an
     independent Verify, and must not drop rows on real data. *)
  QCheck.Test.make ~name:"synthesized predicates are valid" ~count:6
    (QCheck.int_range 0 1000)
    (fun seed ->
      let gq = List.hd (Qcheck_support.gen_queries ~seed ~count:1) in
      let st =
        Synthesize.synthesize cat ~from:from2 ~pred:gq ~target_cols:[ "l_shipdate" ]
      in
      match Synthesize.predicate st with
      | None -> true
      | Some p1 ->
        let env = Encode.build_env cat from2 (Ast.And (gq, p1)) in
        Verify.implies env ~p:gq ~p1 = Verify.Valid)

(* --- Baselines --- *)

let test_transitive_closure () =
  (* y1 > x && x > y2 derives y1 > y2 (the paper's example shape):
     l_shipdate > o_orderdate AND o_orderdate > l_commitdate
     gives l_shipdate > l_commitdate. *)
  let p =
    Parser.parse_predicate "l_shipdate > o_orderdate AND o_orderdate > l_commitdate"
  in
  (match Baselines.transitive_closure p ~target_cols:[ "l_shipdate"; "l_commitdate" ] with
   | None -> Alcotest.fail "expected a derived predicate"
   | Some derived ->
     let env = Encode.build_env cat from2 (Ast.And (p, derived)) in
     Alcotest.(check bool) "derived is valid" true
       (Verify.implies env ~p ~p1:derived = Verify.Valid));
  (* Arithmetic defeats it (the paper's point). *)
  let p2 = Parser.parse_predicate "l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'" in
  Alcotest.(check bool) "arithmetic defeats the syntactic rule" true
    (Baselines.transitive_closure p2 ~target_cols:[ "l_shipdate" ] = None)

let test_constant_propagation () =
  let p = Parser.parse_predicate "l_quantity = 5 AND l_quantity + l_linenumber < 20" in
  let p' = Baselines.constant_propagation p in
  match Ast.conjuncts p' with
  | [ _; Ast.Cmp (Ast.Lt, Ast.Binop (Ast.Add, Ast.Const (Ast.Cint 5), _), _) ] -> ()
  | _ -> Alcotest.fail ("unexpected propagation: " ^ Printer.string_of_pred p')

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Sia_check.Check.enable ();
  Alcotest.run "sia"
    [
      ( "encode",
        [
          Alcotest.test_case "dates" `Quick test_encode_dates;
          Alcotest.test_case "composite fold" `Quick test_encode_composite;
          Alcotest.test_case "div by const" `Quick test_encode_div_const;
          Alcotest.test_case "const range" `Quick test_encode_const_range;
        ] );
      ( "verify",
        [
          Alcotest.test_case "weaker/stronger" `Quick test_verify_weaker;
          Alcotest.test_case "motivating bounds" `Quick test_verify_motivating;
          Alcotest.test_case "null semantics" `Quick test_verify_null_semantics;
          Alcotest.test_case "unknown never valid" `Quick
            test_verify_unknown_never_valid;
        ] );
      ( "samples",
        [
          Alcotest.test_case "TRUE samples feasible" `Quick test_samples_true_are_feasible;
          Alcotest.test_case "FALSE samples unsat" `Quick test_samples_false_are_unsat_tuples;
        ] );
      ( "tighten",
        [
          Alcotest.test_case "threshold" `Quick test_tighten_threshold;
          Alcotest.test_case "unbounded" `Quick test_tighten_unbounded;
        ] );
      ("learn", [ Alcotest.test_case "accepts all TRUE" `Quick test_learn_accepts_all_true ]);
      ( "synthesize",
        [
          Alcotest.test_case "motivating optimal" `Slow test_synthesize_motivating_optimal;
          Alcotest.test_case "one-column bound" `Quick test_synthesize_one_col_bound;
          Alcotest.test_case "trivial" `Quick test_synthesize_trivial;
          Alcotest.test_case "finite TRUE space" `Quick test_synthesize_finite_true_space;
          Alcotest.test_case "band with tightening" `Quick test_synthesize_band_with_tightening;
          Alcotest.test_case "time budget" `Quick test_synthesize_time_budget;
          Alcotest.test_case "missing target" `Quick test_synthesize_missing_target;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "end to end" `Slow test_rewrite_end_to_end;
          Alcotest.test_case "golden motivating SQL" `Quick
            test_rewrite_golden_motivating;
          Alcotest.test_case "separable shortcut edge cases" `Quick
            test_rewrite_separable_shortcut;
        ] );
      ("synthesize-props", qsuite [ prop_synthesized_predicates_valid ]);
      ( "baselines",
        [
          Alcotest.test_case "transitive closure" `Quick test_transitive_closure;
          Alcotest.test_case "constant propagation" `Quick test_constant_propagation;
        ] );
    ]
