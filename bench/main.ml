(* Benchmark harness: one subcommand per table/figure of the paper's
   evaluation (section 6), plus the motivating example, the section 6.7
   limitation study, a QE-method ablation, and bechamel micro-benchmarks.

   Usage:  main.exe [motivating|fig6|table2|table3|fig7|fig8|fig9|limits|
                     ablation|bench|suite|serve-load|numeric|micro|all]
                    [--paranoid] [--jobs N] [--smoke] [--numeric]
                    [--baseline FILE] [--trace FILE] [--metrics]
                    [--serve-load] [--connections N] [--requests N]
   --paranoid audits every solver verdict through the independent
   certificate checker and re-derives each synthesized rewrite; the
   "bench" JSON then also reports the checking overhead.
   --jobs N  ("bench" and "suite") runs the workload on an N-worker fork pool
   and again sequentially, checks the outputs are identical, and reports
   both JSON rows with the speedup; --smoke shrinks the workload for CI
   (exit 1 on any parallel/sequential mismatch either way).
   --trace FILE writes a Chrome trace-event JSON of the whole run
   (chrome://tracing / ui.perfetto.dev; SIA_TRACE_DETAIL=1 adds per-node
   simplex events); --metrics prints the aggregated span/counter table.
   Environment:
     SIA_BENCH_QUERIES   number of generated queries   (default 200)
     SIA_CASE_QUERIES    case-study log size           (default 1000)
     SIA_SF_ONE          engine scale factor for "SF 1"  (default 0.05)
     SIA_SF_TEN          engine scale factor for "SF 10" (default 0.5)
     SIA_SUITE_VARIANTS  constant variants per suite template
                         (default 2, 1 under --smoke) *)

module Ast = Sia_sql.Ast
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
module Planner = Sia_relalg.Planner
module Cost = Sia_relalg.Cost
module Tpch = Sia_engine.Tpch
module Eval = Sia_engine.Eval
module Exec = Sia_engine.Exec
open Sia_smt
open Sia_core
module Qgen = Sia_workload.Qgen
module Case_study = Sia_workload.Case_study

let env_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

let env_float name default =
  match Sys.getenv_opt name with Some s -> float_of_string s | None -> default

(* --paranoid: run the workload with the independent certificate checker
   auditing every solver verdict, re-derive each synthesized rewrite with
   Rewrite.audit, and report the checking overhead in the perf JSON.
   Defaults to the SIA_PARANOID environment switch (via [Config.default])
   so the CI matrix leg reaches the bench smoke step too. *)
let paranoid = ref Config.default.Config.paranoid

let n_queries () = env_int "SIA_BENCH_QUERIES" 200
let n_case () = env_int "SIA_CASE_QUERIES" 1000
let sf_one () = env_float "SIA_SF_ONE" 0.05
let sf_ten () = env_float "SIA_SF_TEN" 0.5

let header title =
  Printf.printf "\n=== %s ===\n%!" title

(* ------------------------------------------------------------------ *)
(* Shared experiment state: run every variant on every (query, column
   subset) pair once, reuse across table2/table3/fig7/fig8.            *)
(* ------------------------------------------------------------------ *)

type cell = {
  possible : bool;  (** a non-trivial valid predicate exists (ground truth) *)
  sia : Synthesize.stats;
  tc_valid : bool;
  tc_optimal : bool;
  v1 : Synthesize.stats;
  v2 : Synthesize.stats;
}

type run_row = {
  gq : Qgen.gen_query;
  subset : string list;
  cell : cell;
}

let is_optimal_pred catalog from pred p1 =
  (* p1 is optimal iff no unsatisfaction tuple satisfies it:
     p1 /\ not (exists others. p) must be unsat. *)
  match Encode.build_env catalog from pred with
  | exception Encode.Unsupported _ -> false
  | exception Not_found -> false
  | env ->
    let p_formula = Encode.encode_bool env pred in
    let cols1 = List.map (fun (c : Ast.column) -> c.Ast.name) (Ast.pred_columns p1) in
    let st = Samples.make_state Config.default env ~target_cols:cols1 in
    (match Samples.project_away_others st p_formula with
     | None -> false
     | Some psi ->
       let p1f = Encode.encode_bool env p1 in
       (match
          Solver.solve ~is_int:(Encode.is_int_var env)
            (Formula.and_ [ p1f; Formula.not_ psi ])
        with
        | Solver.Unsat -> true
        | Solver.Sat _ | Solver.Unknown -> false))

let ground_truth_possible catalog from pred target_cols =
  match Encode.build_env catalog from pred with
  | exception Encode.Unsupported _ -> false
  | exception Not_found -> false
  | env ->
    if List.exists (fun c -> not (List.mem c (Encode.columns env))) target_cols then false
    else begin
      let p_formula = Encode.encode_bool env pred in
      let st = Samples.make_state Config.default env ~target_cols in
      match Samples.project_away_others st p_formula with
      | None -> false
      | Some psi ->
        (match
           Solver.solve ~is_int:(Encode.is_int_var env) (Formula.not_ psi)
         with
         | Solver.Sat _ -> true
         | Solver.Unsat | Solver.Unknown -> false)
    end

(* Wall-clock cap per synthesis attempt, as the paper's section 6.2
   prescribes for production use; keeps the sweep's worst-case bounded. *)
let budget = Some 6.0

let run_cell (gq : Qgen.gen_query) subset =
  let catalog = Schema.tpch in
  let from = gq.Qgen.query.Ast.from in
  let pred = gq.Qgen.pred in
  let possible = ground_truth_possible catalog from pred subset in
  let cfg = { Config.default with Config.time_budget = budget } in
  let cfg_v1 = { Config.sia_v1 with Config.time_budget = budget } in
  let cfg_v2 = { Config.sia_v2 with Config.time_budget = budget } in
  let sia = Synthesize.synthesize ~cfg catalog ~from ~pred ~target_cols:subset in
  let v1 = Synthesize.synthesize ~cfg:cfg_v1 catalog ~from ~pred ~target_cols:subset in
  let v2 = Synthesize.synthesize ~cfg:cfg_v2 catalog ~from ~pred ~target_cols:subset in
  let tc = Baselines.transitive_closure pred ~target_cols:subset in
  let tc_valid = tc <> None in
  let tc_optimal =
    match tc with Some p1 -> is_optimal_pred catalog from pred p1 | None -> false
  in
  { possible; sia; tc_valid; tc_optimal; v1; v2 }

let all_rows : run_row list Lazy.t =
  lazy
    begin
      let queries = Qgen.generate ~seed:42 ~count:(n_queries ()) () in
      let subsets = Qgen.column_subsets 1 @ Qgen.column_subsets 2 @ Qgen.column_subsets 3 in
      let total = List.length queries * List.length subsets in
      let done_ = ref 0 in
      List.concat_map
        (fun gq ->
          List.map
            (fun subset ->
              incr done_;
              if !done_ mod 100 = 0 then
                Printf.eprintf "  [synthesis %d/%d]\n%!" !done_ total;
              { gq; subset; cell = run_cell gq subset })
            subsets)
        queries
    end

let rows_of_size k =
  List.filter (fun r -> List.length r.subset = k) (Lazy.force all_rows)

(* ------------------------------------------------------------------ *)
(* Motivating example (section 2 / 3.2)                                 *)
(* ------------------------------------------------------------------ *)

let motivating_query =
  Sia_sql.Parser.parse_query
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
     AND l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01' \
     AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10"

let run_motivating () =
  header "Motivating example (section 2): Q1 -> Q2";
  let result =
    Rewrite.rewrite_for_table Schema.tpch motivating_query ~target_table:"lineitem"
  in
  (match result.Rewrite.synthesized with
   | Some p -> Printf.printf "synthesized: %s\n" (Printer.string_of_pred p)
   | None -> Printf.printf "synthesis failed\n");
  let li, ord = Tpch.generate ~sf:(sf_one ()) () in
  let tables = [ ("lineitem", li); ("orders", ord) ] in
  let orig_plan, rew_plan = Rewrite.plans Schema.tpch result in
  let out1, t1 = Exec.time (fun () -> Exec.run ~tables orig_plan) in
  (match rew_plan with
   | None -> ()
   | Some plan ->
     let out2, t2 = Exec.time (fun () -> Exec.run ~tables plan) in
     Printf.printf "original:  %d rows in %.3f s\n" out1.Sia_engine.Table.nrows t1;
     Printf.printf "rewritten: %d rows in %.3f s  (speedup %.2fx)\n"
       out2.Sia_engine.Table.nrows t2 (t1 /. t2);
     let preserved = Sia_engine.Table.equal_multiset out1 out2 in
     Printf.printf "semantics preserved: %b\n" preserved;
     (match result.Rewrite.synthesized with
      | Some p -> Printf.printf "selectivity on lineitem: %.3f\n" (Eval.selectivity li p)
      | None -> ());
     if not preserved then exit 1)

(* ------------------------------------------------------------------ *)
(* Fig 6: case study                                                    *)
(* ------------------------------------------------------------------ *)

let run_fig6 () =
  header "Fig 6: case study (synthetic MaxCompute-style log)";
  let records = Case_study.simulate ~n_queries:(n_case ()) () in
  let prospective = List.filter (fun r -> r.Case_study.prospective) records in
  let relevant = List.filter (fun r -> r.Case_study.relevant) records in
  Printf.printf "log size: %d, syntax-based prospective: %d, symbolically relevant: %d\n"
    (List.length records) (List.length prospective) (List.length relevant);
  let show name (b : Case_study.buckets) total labels =
    let l1, l2, l3, l4 = labels in
    let pct n = 100.0 *. float_of_int n /. float_of_int (max 1 total) in
    Printf.printf "  %-12s %s %5.1f%%  %s %5.1f%%  %s %5.1f%%  %s %5.1f%%\n" name l1
      (pct b.Case_study.le_1s) l2 (pct b.Case_study.le_10s) l3 (pct b.Case_study.le_100s)
      l4 (pct b.Case_study.gt_100s)
  in
  let report name rs =
    Printf.printf "%s (%d queries):\n" name (List.length rs);
    show "exec time" (Case_study.time_buckets rs) (List.length rs)
      ("<=1s", "<=10s", "<=100s", ">100s");
    show "cpu" (Case_study.cpu_buckets rs) (List.length rs)
      ("<=10s", "<=100s", "<=1000s", ">1000s");
    show "memory" (Case_study.memory_buckets rs) (List.length rs)
      ("<=0.1G", "<=1G", "<=10G", ">10G");
    let slow =
      List.length (List.filter (fun r -> r.Case_study.exec_time_s > 10.0) rs)
    in
    Printf.printf "  queries over 10 s (would amortize synthesis): %.2f%%\n"
      (100.0 *. float_of_int slow /. float_of_int (max 1 (List.length rs)))
  in
  report "syntax-based prospective" prospective;
  report "symbolically relevant" relevant

(* ------------------------------------------------------------------ *)
(* Table 2: efficacy                                                    *)
(* ------------------------------------------------------------------ *)

let run_table2 () =
  header "Table 1: baseline configurations";
  Printf.printf
    "          max-iter  init-true  init-false  per-iter\n\
     SIA_v1    %8d  %9d  %10d  %8s\n\
     SIA_v2    %8d  %9d  %10d  %8s\n\
     SIA       %8d  %9d  %10d  %8d\n"
    Config.sia_v1.Config.max_iterations Config.sia_v1.Config.initial_true
    Config.sia_v1.Config.initial_false "N/A" Config.sia_v2.Config.max_iterations
    Config.sia_v2.Config.initial_true Config.sia_v2.Config.initial_false "N/A"
    Config.default.Config.max_iterations Config.default.Config.initial_true
    Config.default.Config.initial_false Config.default.Config.per_iteration;
  header "Table 2: efficacy (valid / optimal synthesized predicates)";
  Printf.printf
    "#cols  possible |  SIA valid  SIA opt |  TC valid |  v1 valid  v1 opt |  v2 valid  v2 opt\n";
  List.iter
    (fun k ->
      let rows = rows_of_size k in
      let possible = List.filter (fun r -> r.cell.possible) rows in
      let count f = List.length (List.filter f possible) in
      Printf.printf
        "%5d  %8d |  %9d  %7d |  %8d |  %8d  %6d |  %8d  %6d\n" k
        (List.length possible)
        (count (fun r -> Synthesize.is_valid_outcome r.cell.sia))
        (count (fun r -> Synthesize.is_optimal_outcome r.cell.sia))
        (count (fun r -> r.cell.tc_valid))
        (count (fun r -> Synthesize.is_valid_outcome r.cell.v1))
        (count (fun r -> Synthesize.is_optimal_outcome r.cell.v1))
        (count (fun r -> Synthesize.is_valid_outcome r.cell.v2))
        (count (fun r -> Synthesize.is_optimal_outcome r.cell.v2)))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Table 3: efficiency                                                  *)
(* ------------------------------------------------------------------ *)

let run_table3 () =
  header "Table 3: efficiency (avg ms per synthesis attempt)";
  Printf.printf
    "#cols |     SIA gen   learn  verify |     v1 gen   learn  verify |     v2 gen   learn  verify\n";
  List.iter
    (fun k ->
      let rows = rows_of_size k in
      let avg f =
        match rows with
        | [] -> 0.0
        | _ ->
          1000.0 *. List.fold_left (fun acc r -> acc +. f r) 0.0 rows
          /. float_of_int (List.length rows)
      in
      Printf.printf
        "%5d | %10.1f %7.1f %7.1f | %10.1f %7.1f %7.1f | %10.1f %7.1f %7.1f\n" k
        (avg (fun r -> r.cell.sia.Synthesize.gen_time))
        (avg (fun r -> r.cell.sia.Synthesize.learn_time))
        (avg (fun r -> r.cell.sia.Synthesize.verify_time))
        (avg (fun r -> r.cell.v1.Synthesize.gen_time))
        (avg (fun r -> r.cell.v1.Synthesize.learn_time))
        (avg (fun r -> r.cell.v1.Synthesize.verify_time))
        (avg (fun r -> r.cell.v2.Synthesize.gen_time))
        (avg (fun r -> r.cell.v2.Synthesize.learn_time))
        (avg (fun r -> r.cell.v2.Synthesize.verify_time)))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Fig 7: iterations to converge                                        *)
(* ------------------------------------------------------------------ *)

let run_fig7 () =
  header "Fig 7: learning-loop iterations until an optimal predicate";
  let buckets = [ (1, 10); (11, 20); (21, 30); (31, 41) ] in
  Printf.printf "#cols  optimal |  1-10  11-20  21-30  31-41\n";
  List.iter
    (fun k ->
      let rows = rows_of_size k in
      let optimal =
        List.filter (fun r -> Synthesize.is_optimal_outcome r.cell.sia) rows
      in
      let in_bucket (lo, hi) =
        List.length
          (List.filter
             (fun r ->
               let i = r.cell.sia.Synthesize.iterations in
               i >= lo && i <= hi)
             optimal)
      in
      Printf.printf "%5d  %7d | %5d  %5d  %5d  %5d\n" k (List.length optimal)
        (in_bucket (List.nth buckets 0))
        (in_bucket (List.nth buckets 1))
        (in_bucket (List.nth buckets 2))
        (in_bucket (List.nth buckets 3)))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Fig 8: sample counts at the final iteration                          *)
(* ------------------------------------------------------------------ *)

let run_fig8 () =
  header "Fig 8: training samples at the final iteration";
  let show which f =
    Printf.printf "%s samples:\n#cols |  <=25  <=50  <=100  <=200   >200\n" which;
    List.iter
      (fun k ->
        let rows =
          List.filter (fun r -> Synthesize.is_valid_outcome r.cell.sia) (rows_of_size k)
        in
        let count lo hi =
          List.length
            (List.filter
               (fun r ->
                 let n = f r.cell.sia in
                 n > lo && n <= hi)
               rows)
        in
        Printf.printf "%5d | %5d %5d %6d %6d %6d\n" k (count 0 25) (count 25 50)
          (count 50 100) (count 100 200) (count 200 max_int))
      [ 1; 2; 3 ]
  in
  show "TRUE" (fun s -> s.Synthesize.n_true);
  show "FALSE" (fun s -> s.Synthesize.n_false)

(* ------------------------------------------------------------------ *)
(* Fig 9 + Table 4: runtime impact and selectivity                      *)
(* ------------------------------------------------------------------ *)

let run_fig9 () =
  header "Fig 9 / Table 4: runtime impact of rewritten queries";
  (* Reuse the 3-column (full lineitem set) synthesis per query. *)
  let rows = rows_of_size 3 in
  let rewritten =
    List.filter_map
      (fun r ->
        match Synthesize.predicate r.cell.sia with
        | Some p1 -> Some (r.gq, p1)
        | None -> None)
      rows
  in
  Printf.printf "queries with a synthesized lineitem-only predicate: %d / %d\n"
    (List.length rewritten) (List.length rows);
  (* A rewrite that changes the result multiset fails the run. *)
  let violations = ref 0 in
  let run_sf label sf =
    let li, ord = Tpch.generate ~sf () in
    let tables = [ ("lineitem", li); ("orders", ord) ] in
    let results =
      List.map
        (fun ((gq : Qgen.gen_query), p1) ->
          let q = gq.Qgen.query in
          let q' =
            match q.Ast.where with
            | Some w -> { q with Ast.where = Some (Ast.And (w, p1)) }
            | None -> { q with Ast.where = Some p1 }
          in
          let plan = Planner.plan Schema.tpch q in
          let plan' = Planner.plan Schema.tpch q' in
          let out1, t1 = Exec.time (fun () -> Exec.run ~tables plan) in
          let out2, t2 = Exec.time (fun () -> Exec.run ~tables plan') in
          if not (Sia_engine.Table.equal_multiset out1 out2) then begin
            incr violations;
            Printf.printf "  !! semantics violation on query %d\n" gq.Qgen.id
          end;
          (gq.Qgen.id, t1, t2, Eval.selectivity li p1))
        rewritten
    in
    let faster = List.filter (fun (_, t1, t2, _) -> t2 < t1) results in
    let faster2x = List.filter (fun (_, t1, t2, _) -> t2 *. 2.0 < t1) results in
    let slower = List.filter (fun (_, t1, t2, _) -> t2 >= t1) results in
    let slower2x = List.filter (fun (_, t1, t2, _) -> t2 > t1 *. 2.0) results in
    let avg_sel rs =
      match rs with
      | [] -> Float.nan
      | _ ->
        List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0.0 rs
        /. float_of_int (List.length rs)
    in
    Printf.printf
      "%s: faster %d (avg sel %.2f) | 2x faster %d (avg sel %.2f) | slower %d (avg sel %.2f) | 2x slower %d (avg sel %.2f)\n"
      label (List.length faster) (avg_sel faster) (List.length faster2x)
      (avg_sel faster2x) (List.length slower) (avg_sel slower) (List.length slower2x)
      (avg_sel slower2x);
    (* Scatter data, paper-style: original vs rewritten seconds. *)
    Printf.printf "  scatter (id, original_s, rewritten_s):\n";
    List.iter
      (fun (id, t1, t2, _) -> Printf.printf "    %3d  %8.4f  %8.4f\n" id t1 t2)
      results
  in
  run_sf "scale factor one" (sf_one ());
  run_sf "scale factor ten" (sf_ten ());
  if !violations > 0 then begin
    Printf.printf "%d semantics violation(s)\n" !violations;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Section 6.7 limitation                                               *)
(* ------------------------------------------------------------------ *)

let run_limits () =
  header "Section 6.7 limitation: band predicate a > b && a < b + 50 && 0 < b < 150";
  let q =
    Sia_sql.Parser.parse_query
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
       l_quantity > o_shippriority AND l_quantity < o_shippriority + 50 AND \
       o_shippriority > 0 AND o_shippriority < 150"
  in
  let pred = Rewrite.rewrite_for_table Schema.tpch q ~target_table:"lineitem" in
  (match pred.Rewrite.synthesized with
   | Some p ->
     Printf.printf "with direction tightening: %s (%s)\n" (Printer.string_of_pred p)
       (if Synthesize.is_optimal_outcome pred.Rewrite.stats then "optimal" else "valid")
   | None -> Printf.printf "with direction tightening: failed\n");
  let cfg = { Config.default with Config.tighten = false } in
  let raw =
    Rewrite.rewrite_for_table ~cfg Schema.tpch q ~target_table:"lineitem"
  in
  match raw.Rewrite.synthesized with
  | Some p ->
    Printf.printf "plain Algorithm 2 (paper): %s (%s)\n" (Printer.string_of_pred p)
      (if Synthesize.is_optimal_outcome raw.Rewrite.stats then "optimal" else "valid")
  | None ->
    Printf.printf "plain Algorithm 2 (paper): no valid predicate -- the non-separable case of section 6.7\n"

(* ------------------------------------------------------------------ *)
(* Ablation: FM (real) vs Cooper (integer) projection                   *)
(* ------------------------------------------------------------------ *)

let run_ablation () =
  header "Ablation: FALSE-sample projection method (FM over R vs Cooper over Z)";
  let queries = Qgen.generate ~seed:97 ~count:(min 25 (n_queries ())) () in
  let run method_ =
    let cfg = { Config.default with Config.qe_method = method_; Config.time_budget = budget } in
    List.concat_map
      (fun (gq : Qgen.gen_query) ->
        List.map
          (fun subset ->
            let t0 = Unix.gettimeofday () in
            let st =
              Synthesize.synthesize ~cfg Schema.tpch ~from:gq.Qgen.query.Ast.from
                ~pred:gq.Qgen.pred ~target_cols:subset
            in
            (st, Unix.gettimeofday () -. t0))
          (Qgen.column_subsets 1 @ Qgen.column_subsets 2))
      queries
  in
  let report label results =
    let valid = List.length (List.filter (fun (s, _) -> Synthesize.is_valid_outcome s) results) in
    let optimal =
      List.length (List.filter (fun (s, _) -> Synthesize.is_optimal_outcome s) results)
    in
    let time = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 results in
    Printf.printf "%-22s attempts %d | valid %d | optimal %d | total %.1f s\n" label
      (List.length results) valid optimal time
  in
  report "Fourier-Motzkin (R)" (run `Real);
  report "Cooper (Z)" (run `Int)

(* ------------------------------------------------------------------ *)
(* Machine-readable perf benchmark                                      *)
(* ------------------------------------------------------------------ *)

(* One JSON line with end-to-end synthesis wall-clock and solver
   statistics over a fixed seeded workload, so the perf trajectory can be
   tracked across PRs (append the line to BENCH_synthesis.json).

   With --jobs N (N > 1) the workload runs twice — first on an N-worker
   pool, then sequentially in-process — and the two result lists are
   compared attempt by attempt: rendered predicates and valid/optimal
   outcomes must be identical, or the run fails with exit 1. Both rows
   are printed; the parallel one carries "jobs", per-worker task counts
   and the measured speedup. --smoke shrinks the workload (4 queries
   unless SIA_PERF_QUERIES overrides) for CI. *)
let jobs_n = ref 1
let smoke = ref false
let baseline_file = ref None
let numeric_flag = ref false
let trace_file = ref None
let metrics = ref false
let dump_sql = ref None

(* Extract an integer field from a JSON row without a JSON dependency:
   the bench rows are flat objects we printed ourselves. *)
let json_int_field row name =
  let needle = Printf.sprintf "\"%s\":" name in
  match String.index_opt row '{' with
  | None -> None
  | Some _ -> (
    let rec find from =
      match String.index_from_opt row from '"' with
      | None -> None
      | Some i ->
        if i + String.length needle <= String.length row
           && String.sub row i (String.length needle) = needle
        then Some (i + String.length needle)
        else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some start ->
      let stop = ref start in
      while
        !stop < String.length row
        && (match row.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr stop
      done;
      int_of_string_opt (String.sub row start (!stop - start)))

(* Minimal JSON string escaping for strings we embed in bench rows
   (failure reasons are solver outcome strings — printable ASCII, but a
   stray quote or backslash must not corrupt the row). *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\x00' .. '\x1f' -> Buffer.add_char b ' '
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float_field row name =
  let needle = Printf.sprintf "\"%s\":" name in
  let rec find from =
    match String.index_from_opt row from '"' with
    | None -> None
    | Some i ->
      if i + String.length needle <= String.length row
         && String.sub row i (String.length needle) = needle
      then Some (i + String.length needle)
      else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < String.length row
      && (match row.[!stop] with '0' .. '9' | '-' | '.' | 'e' | '+' -> true | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.sub row start (!stop - start))

(* String-valued fields ("bench":"suite"). Bench tags are plain
   identifiers, so no unescaping is needed. *)
let json_string_field row name =
  let needle = Printf.sprintf "\"%s\":\"" name in
  let rec find from =
    match String.index_from_opt row from '"' with
    | None -> None
    | Some i ->
      if i + String.length needle <= String.length row
         && String.sub row i (String.length needle) = needle
      then Some (i + String.length needle)
      else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
    match String.index_from_opt row start '"' with
    | None -> None
    | Some stop -> Some (String.sub row start (stop - start)))

(* --baseline FILE: fail the run if efficacy regressed against the
   committed reference row — the last JSON object line of FILE whose
   "bench" tag matches the running benchmark, so one baseline file can
   carry a row per subcommand ("synthesis", "suite", ...). Beyond
   valid/optimal, the gate also holds two solver-health lines when the
   baseline row carries them: certificate rejections must not appear
   (cert_rejections), and sample
   generation must stay within 1.5x of the recorded gen_cpu_s (a coarse
   multiplier: CI machines differ, order-of-magnitude ladder regressions
   do not). Fields absent from an older baseline row are skipped. *)
let check_baseline ?(tag = "synthesis") ~valid ~optimal ~gen_cpu
    ~(sv : Solver.stats) file =
  let last_row =
    let ic = open_in file in
    let rec go acc =
      match input_line ic with
      | line ->
        let keep =
          String.length line > 0
          && line.[0] = '{'
          && json_string_field line "bench" = Some tag
        in
        go (if keep then Some line else acc)
      | exception End_of_file ->
        close_in ic;
        acc
    in
    go None
  in
  match last_row with
  | None ->
    Printf.eprintf "baseline %s: no \"bench\":\"%s\" row found\n" file tag;
    exit 1
  | Some row -> (
    match (json_int_field row "valid", json_int_field row "optimal") with
    | Some bv, Some bo ->
      if valid < bv || optimal < bo then begin
        Printf.eprintf
          "!! efficacy regression vs %s: valid %d (baseline %d), optimal %d (baseline %d)\n"
          file valid bv optimal bo;
        exit 1
      end;
      (match json_int_field row "cert_rejections" with
       | Some br when sv.Solver.cert_rejections > br ->
         Printf.eprintf
           "!! certificate regression vs %s: cert_rejections %d (baseline %d)\n"
           file sv.Solver.cert_rejections br;
         exit 1
       | _ -> ());
      (match json_float_field row "gen_cpu_s" with
       | Some bg when gen_cpu > 1.5 *. bg ->
         Printf.eprintf
           "!! sample-generation regression vs %s: gen_cpu_s %.3f (baseline %.3f, limit 1.5x)\n"
           file gen_cpu bg;
         exit 1
       | _ -> ());
      Printf.printf
        "baseline %s [%s]: ok (valid %d >= %d, optimal %d >= %d, cert_rejections %d, gen_cpu_s %.3f)\n"
        file tag valid bv optimal bo sv.Solver.cert_rejections gen_cpu
    | _ ->
      Printf.eprintf "baseline %s: row lacks valid/optimal fields\n" file;
      exit 1)

let run_perf () =
  let jobs = !jobs_n in
  header
    (Printf.sprintf "perf: end-to-end synthesis workload%s%s (JSON)"
       (if jobs > 1 then Printf.sprintf ", %d workers + sequential reference" jobs
        else "")
       (if !paranoid then ", paranoid" else ""));
  let n = env_int "SIA_PERF_QUERIES" (if !smoke then 4 else 12) in
  (* Oversubscription hurts the parallel differential silently (workers
     timeshare, wall-clock speedup collapses); say so instead of failing,
     since correctness is unaffected. *)
  let cores = Sia_pool.Pool.online_cores () in
  if jobs > cores then
    Printf.printf
      "warning: %d jobs requested but only %d core%s online; workers will timeshare\n"
      jobs cores (if cores = 1 then "" else "s");
  let queries = Qgen.generate ~seed:42 ~count:n () in
  let subsets = Qgen.column_subsets 1 @ Qgen.column_subsets 2 in
  (* Differential mode drops the per-attempt wall-clock budget: a timeout
     that fires under CPU contention in one run but not the other is the
     one nondeterminism source the comparison cannot control for. *)
  let cfg =
    {
      Config.default with
      Config.time_budget = (if jobs > 1 then None else budget);
      Config.paranoid = !paranoid;
      Config.trace = Config.default.Config.trace || !trace_file <> None || !metrics;
    }
  in
  let tagged =
    List.concat_map
      (fun (gq : Qgen.gen_query) -> List.map (fun s -> (gq, s)) subsets)
      queries
  in
  let attempts =
    List.map
      (fun ((gq : Qgen.gen_query), subset) ->
        {
          Synthesize.from = gq.Qgen.query.Ast.from;
          pred = gq.Qgen.pred;
          target_cols = subset;
        })
      tagged
  in
  let run_batch j =
    let t0 = Unix.gettimeofday () in
    let b =
      Synthesize.synthesize_batch
        ~cfg:{ cfg with Config.jobs = j }
        Schema.tpch attempts
    in
    (b, Unix.gettimeofday () -. t0)
  in
  (* Report one batch as a JSON row. [audit] runs the certificate-checked
     re-derivation pass (paranoid only); [seq_wall] marks a parallel row
     and carries the sequential reference for the speedup field. *)
  let emit ?(audit = false) ?seq_wall ~wall (b : Synthesize.batch) =
    let stats = b.Synthesize.results in
    let audit_passed = ref 0 and audit_failed = ref 0 in
    let audit_t0 = Unix.gettimeofday () in
    if audit && !paranoid then
      List.iter2
        (fun ((gq : Qgen.gen_query), _) st ->
          match Synthesize.predicate st with
          | None -> ()
          | Some p1 -> (
            match
              Rewrite.audit Schema.tpch ~from:gq.Qgen.query.Ast.from
                ~p:gq.Qgen.pred ~p1
            with
            | Rewrite.Audit_passed -> incr audit_passed
            | Rewrite.Audit_failed reason ->
              incr audit_failed;
              Printf.printf "  !! audit failed on query %d: %s\n" gq.Qgen.id reason
            | Rewrite.Audit_off -> ()))
        tagged stats;
    let audit_wall = Unix.gettimeofday () -. audit_t0 in
    let count f = List.length (List.filter f stats) in
    let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 stats in
    let sv =
      List.fold_left
        (fun acc s -> Solver.stats_add acc s.Synthesize.solver)
        Solver.stats_zero stats
    in
    (* Certificate-checking overhead relative to the time spent actually
       solving (SAT search + theory + encoding). *)
    let solve_s = sv.Solver.encode_time +. sv.Solver.search_time in
    let cert_overhead =
      (sv.Solver.cert_time +. audit_wall) /. Float.max 1e-9 solve_s
    in
    let pool_fields =
      match seq_wall with
      | None ->
        Printf.sprintf ",\"jobs\":%d,\"jobs_requested\":%d" b.Synthesize.jobs
          b.Synthesize.jobs_requested
      | Some sw ->
        (* Per-worker attribution, aligned by index across the three
           arrays: the retained epilogue summaries say which worker did
           how much of the batch. *)
        Printf.sprintf
          ",\"jobs\":%d,\"jobs_requested\":%d,\"worker_tasks\":[%s],\"worker_wall_s\":[%s],\"worker_queries\":[%s],\"worker_pivots\":[%s],\"seq_wall_s\":%.3f,\"speedup\":%.2f"
          b.Synthesize.jobs b.Synthesize.jobs_requested
          (String.concat "," (List.map string_of_int b.Synthesize.worker_tasks))
          (String.concat ","
             (List.map (Printf.sprintf "%.3f") b.Synthesize.worker_wall))
          (String.concat ","
             (List.map
                (fun (s : Solver.stats) -> string_of_int s.Solver.queries)
                b.Synthesize.worker_solver))
          (String.concat ","
             (List.map
                (fun (s : Solver.stats) -> string_of_int s.Solver.pivots)
                b.Synthesize.worker_solver))
          sw (sw /. Float.max 1e-9 wall)
    in
    (match seq_wall with
     | None -> ()
     | Some _ ->
       List.iteri
         (fun i ((tasks, wall_s), (s : Solver.stats)) ->
           Printf.printf
             "  worker %d: %d tasks, %.2f s, %d queries, %d cache hits, %d pivots\n"
             i tasks wall_s s.Solver.queries s.Solver.cache_hits s.Solver.pivots)
         (List.combine
            (List.combine b.Synthesize.worker_tasks b.Synthesize.worker_wall)
            b.Synthesize.worker_solver));
    let valid = count Synthesize.is_valid_outcome in
    let optimal = count Synthesize.is_optimal_outcome in
    (* Per-phase times are summed over attempts, which at jobs > 1 means
       CPU seconds aggregated across workers — deliberately reported
       under *_cpu_s names, separate from the wall clock, so a parallel
       row's phase times reading above wall_s is meaningful instead of
       contradictory. *)
    let json =
      Printf.sprintf
        "{\"bench\":\"synthesis\",\"queries\":%d,\"attempts\":%d,\"valid\":%d,\"optimal\":%d,\"wall_s\":%.3f,\"gen_cpu_s\":%.3f,\"learn_cpu_s\":%.3f,\"verify_cpu_s\":%.3f,\"gen_model_reuse_hits\":%d,\"gen_underapprox_solves\":%d,\"gen_fallbacks\":%d,\"cegqi_instantiations\":%d,\"online_cores\":%d,\"solver_queries\":%d,\"solver_cache_hits\":%d,\"solver_encodings\":%d,\"solver_instances\":%d,\"solver_theory_rounds\":%d,\"solver_reused_rounds\":%d,\"solver_extended_rounds\":%d,\"solver_rebuilds\":%d,\"solver_conflicts\":%d,\"solver_propagations\":%d,\"solver_restarts\":%d,\"solver_pivots\":%d,\"solver_encode_s\":%.3f,\"solver_search_s\":%.3f,\"solver_theory_s\":%.3f,\"paranoid\":%b,\"cert_lemmas\":%d,\"cert_proofs\":%d,\"cert_models\":%d,\"cert_rejections\":%d,\"cert_s\":%.3f,\"audit_passed\":%d,\"audit_failed\":%d,\"audit_s\":%.3f,\"cert_overhead\":%.3f%s}"
        n (List.length stats) valid optimal wall
        (sum (fun s -> s.Synthesize.gen_time))
        (sum (fun s -> s.Synthesize.learn_time))
        (sum (fun s -> s.Synthesize.verify_time))
        sv.Solver.pool_hits sv.Solver.underapprox_solves sv.Solver.gen_fallbacks
        sv.Solver.cegqi_instantiations
        (Sia_pool.Pool.online_cores ())
        sv.Solver.queries sv.Solver.cache_hits sv.Solver.encodings
        sv.Solver.instances sv.Solver.theory_rounds sv.Solver.reused_rounds
        sv.Solver.extended_rounds sv.Solver.tableau_rebuilds sv.Solver.conflicts
        sv.Solver.propagations sv.Solver.restarts sv.Solver.pivots
        sv.Solver.encode_time sv.Solver.search_time sv.Solver.theory_time !paranoid sv.Solver.cert_lemmas
        sv.Solver.cert_proofs sv.Solver.cert_models sv.Solver.cert_rejections
        sv.Solver.cert_time !audit_passed !audit_failed audit_wall cert_overhead
        pool_fields
    in
    Format.printf "solver: %a@." Solver.pp_stats sv;
    if audit && !paranoid then
      Printf.printf
        "paranoid: %d lemma certs, %d proofs, %d models, %d rejections; audit %d passed / %d failed; overhead %.2fx solve time\n"
        sv.Solver.cert_lemmas sv.Solver.cert_proofs sv.Solver.cert_models
        sv.Solver.cert_rejections !audit_passed !audit_failed cert_overhead;
    print_endline json;
    (valid, optimal, sum (fun s -> s.Synthesize.gen_time), sv)
  in
  let render st =
    match Synthesize.predicate st with
    | Some p -> Printer.string_of_pred p
    | None -> "-"
  in
  (* --dump-sql FILE: one rendered predicate per attempt, in attempt
     order, from the sequential (canonical) batch — the byte-diff anchor
     for comparing rewritten SQL across builds. *)
  let dump_rendered (b : Synthesize.batch) =
    Option.iter
      (fun file ->
        let oc = open_out file in
        List.iter
          (fun st ->
            output_string oc (render st);
            output_char oc '\n')
          b.Synthesize.results;
        close_out oc;
        Printf.printf "rewritten SQL dumped to %s (%d attempts)\n" file
          (List.length b.Synthesize.results))
      !dump_sql
  in
  if jobs <= 1 then begin
    let b, wall = run_batch 1 in
    let valid, optimal, gen_cpu, sv = emit ~audit:true ~wall b in
    dump_rendered b;
    Option.iter (check_baseline ~valid ~optimal ~gen_cpu ~sv) !baseline_file
  end
  else begin
    (* Parallel first: the forked workers must not inherit a memo cache
       warmed by the sequential reference run, or the measured "speedup"
       would be answering from cache. (Worker caches die with the
       workers, so the sequential run that follows starts equally cold.) *)
    let pb, pwall = run_batch jobs in
    let sb, swall = run_batch 1 in
    let preds_p = List.map render pb.Synthesize.results in
    let preds_s = List.map render sb.Synthesize.results in
    let flags b =
      List.map
        (fun st ->
          (Synthesize.is_valid_outcome st, Synthesize.is_optimal_outcome st))
        b.Synthesize.results
    in
    let valid, optimal, gen_cpu, sv = emit ~wall:swall sb in
    let (_ : int * int * float * Solver.stats) =
      emit ~audit:true ~seq_wall:swall ~wall:pwall pb
    in
    dump_rendered sb;
    Option.iter (check_baseline ~valid ~optimal ~gen_cpu ~sv) !baseline_file;
    if preds_p = preds_s && flags pb = flags sb then
      Printf.printf
        "differential: %d-worker output identical to sequential (%d attempts, %.2fx)\n"
        jobs (List.length attempts) (swall /. Float.max 1e-9 pwall)
    else begin
      Printf.printf "!! parallel/sequential mismatch:\n";
      List.iteri
        (fun i (p, s) ->
          if p <> s then Printf.printf "  attempt %d: jobs=%d %s | jobs=1 %s\n" i jobs p s)
        (List.combine preds_p preds_s);
      exit 1
    end
  end

(* ------------------------------------------------------------------ *)
(* TPC-H-class suite                                                    *)
(* ------------------------------------------------------------------ *)

(* bench suite: the DESIGN.md section 21 workload — SIA_SUITE_VARIANTS
   constant instantiations (default 2, 1 under --smoke) of the twelve
   TPC-H-modeled templates, which together span all eight catalog tables
   and every predicate construct of the grammar (IN, BETWEEN, searched
   CASE, prefix LIKE, IS NULL, string comparisons). Each query runs
   through the full rewrite pipeline against its template's target table
   (the column selection of Rewrite.rewrite_for_table). Reports one JSON
   row tagged "bench":"suite" carrying grammar-construct counts
   (n_in/n_between/n_case/n_like/n_isnull/n_string_eq), per-table engine
   row counts at SIA_SF_ONE, and the aggregated solver statistics;
   --dump-sql, --baseline and --jobs behave as under "bench" (the
   parallel run is compared rewrite-by-rewrite against the sequential
   reference, exit 1 on divergence). *)
let run_suite () =
  let jobs = !jobs_n in
  header
    (Printf.sprintf "suite: TPC-H-class workload, 8 tables, full grammar%s%s (JSON)"
       (if jobs > 1 then Printf.sprintf ", %d workers + sequential reference" jobs
        else "")
       (if !paranoid then ", paranoid" else ""));
  let variants = env_int "SIA_SUITE_VARIANTS" (if !smoke then 1 else 2) in
  let queries = Qgen.suite ~seed:42 ~variants () in
  (* Target columns exactly as Rewrite.rewrite_for_table selects them. *)
  let tasks =
    List.map
      (fun (s : Qgen.suite_query) ->
        let q = s.Qgen.squery in
        ( q,
          Rewrite.table_target_cols Schema.tpch ~from:q.Ast.from
            ~pred:(Rewrite.target_pred Schema.tpch q)
            ~target_table:s.Qgen.starget ))
      queries
  in
  let cfg =
    {
      Config.default with
      Config.time_budget = (if jobs > 1 then None else budget);
      Config.paranoid = !paranoid;
      Config.trace = Config.default.Config.trace || !trace_file <> None || !metrics;
    }
  in
  let run j =
    let t0 = Unix.gettimeofday () in
    let rs = Rewrite.rewrite_all ~cfg:{ cfg with Config.jobs = j } Schema.tpch tasks in
    (rs, Unix.gettimeofday () -. t0)
  in
  let render (r : Rewrite.rewrite_result) =
    match r.Rewrite.synthesized with
    | Some p -> Printer.string_of_pred p
    | None -> "-"
  in
  let outcome_name (r : Rewrite.rewrite_result) =
    match r.Rewrite.stats.Synthesize.outcome with
    | Synthesize.Optimal _ -> "optimal"
    | Synthesize.Valid _ -> "valid"
    | Synthesize.Trivial -> "trivial"
    | Synthesize.Failed reason -> Printf.sprintf "failed (%s)" reason
  in
  (* One JSON row from the canonical (sequential) results. *)
  let emit ~wall (rs : Rewrite.rewrite_result list) =
    List.iter2
      (fun (s : Qgen.suite_query) r ->
        Printf.printf "  %2d %-6s target=%-9s %s\n" s.Qgen.sid s.Qgen.label
          s.Qgen.starget (outcome_name r))
      queries rs;
    let stats = List.map (fun (r : Rewrite.rewrite_result) -> r.Rewrite.stats) rs in
    let count f = List.length (List.filter f stats) in
    let valid = count Synthesize.is_valid_outcome in
    let optimal = count Synthesize.is_optimal_outcome in
    let trivial =
      count (fun s -> s.Synthesize.outcome = Synthesize.Trivial)
    in
    let failed =
      count (fun s ->
          match s.Synthesize.outcome with Synthesize.Failed _ -> true | _ -> false)
    in
    let audit_passed =
      List.length
        (List.filter (fun (r : Rewrite.rewrite_result) -> r.Rewrite.audit = Rewrite.Audit_passed) rs)
    in
    let audit_failed =
      List.length
        (List.filter
           (fun (r : Rewrite.rewrite_result) ->
             match r.Rewrite.audit with Rewrite.Audit_failed _ -> true | _ -> false)
           rs)
    in
    let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 stats in
    let sv =
      List.fold_left
        (fun acc (s : Synthesize.stats) -> Solver.stats_add acc s.Synthesize.solver)
        Solver.stats_zero stats
    in
    let feats =
      List.fold_left
        (fun acc (s : Qgen.suite_query) ->
          Qgen.features_add acc (Qgen.features_of_pred s.Qgen.spred))
        Qgen.features_zero queries
    in
    (* Engine-side scale of the workload's data: row counts per table at
       the SF-1 smoke scale factor, so a suite row documents both sides
       of the bench (queries and data). *)
    let table_rows =
      String.concat ","
        (List.map
           (fun (name, (t : Sia_engine.Table.t)) ->
             Printf.sprintf "\"rows_%s\":%d" name t.Sia_engine.Table.nrows)
           (Tpch.generate_all ~sf:(sf_one ()) ()))
    in
    let json =
      Printf.sprintf
        "{\"bench\":\"suite\",\"queries\":%d,\"templates\":%d,\"variants\":%d,\"valid\":%d,\"optimal\":%d,\"trivial\":%d,\"failed\":%d,\"wall_s\":%.3f,\"gen_cpu_s\":%.3f,\"learn_cpu_s\":%.3f,\"verify_cpu_s\":%.3f,\"n_in\":%d,\"n_between\":%d,\"n_case\":%d,\"n_like\":%d,\"n_isnull\":%d,\"n_string_eq\":%d,%s,\"solver_queries\":%d,\"solver_cache_hits\":%d,\"solver_theory_rounds\":%d,\"solver_reused_rounds\":%d,\"solver_extended_rounds\":%d,\"solver_rebuilds\":%d,\"solver_conflicts\":%d,\"solver_pivots\":%d,\"paranoid\":%b,\"cert_rejections\":%d,\"audit_passed\":%d,\"audit_failed\":%d,\"jobs_requested\":%d}"
        (List.length queries)
        (List.length queries / max 1 variants)
        variants valid optimal trivial failed wall
        (sum (fun s -> s.Synthesize.gen_time))
        (sum (fun s -> s.Synthesize.learn_time))
        (sum (fun s -> s.Synthesize.verify_time))
        feats.Qgen.f_in feats.Qgen.f_between feats.Qgen.f_case feats.Qgen.f_like
        feats.Qgen.f_isnull feats.Qgen.f_string_eq table_rows
        sv.Solver.queries sv.Solver.cache_hits sv.Solver.theory_rounds
        sv.Solver.reused_rounds sv.Solver.extended_rounds
        sv.Solver.tableau_rebuilds sv.Solver.conflicts sv.Solver.pivots
        !paranoid sv.Solver.cert_rejections audit_passed audit_failed jobs
    in
    Format.printf "solver: %a@." Solver.pp_stats sv;
    print_endline json;
    (valid, optimal, sum (fun s -> s.Synthesize.gen_time), sv)
  in
  (* --dump-sql FILE: one rendered synthesized predicate per attempt, in
     suite order, from the sequential (canonical) run — the byte-diff
     anchor for comparing rewritten SQL across builds over the full
     grammar. *)
  let dump_rendered rs =
    Option.iter
      (fun file ->
        let oc = open_out file in
        List.iter
          (fun r ->
            output_string oc (render r);
            output_char oc '\n')
          rs;
        close_out oc;
        Printf.printf "rewritten SQL dumped to %s (%d attempts)\n" file
          (List.length rs))
      !dump_sql
  in
  if jobs <= 1 then begin
    let rs, wall = run 1 in
    let valid, optimal, gen_cpu, sv = emit ~wall rs in
    dump_rendered rs;
    Option.iter
      (check_baseline ~tag:"suite" ~valid ~optimal ~gen_cpu ~sv)
      !baseline_file
  end
  else begin
    (* Parallel first so the forked workers start from a cold memo cache
       (same discipline as "bench"). *)
    let pr, pwall = run jobs in
    let sr, swall = run 1 in
    let flags (r : Rewrite.rewrite_result) =
      ( Synthesize.is_valid_outcome r.Rewrite.stats,
        Synthesize.is_optimal_outcome r.Rewrite.stats )
    in
    let valid, optimal, gen_cpu, sv = emit ~wall:swall sr in
    dump_rendered sr;
    Option.iter
      (check_baseline ~tag:"suite" ~valid ~optimal ~gen_cpu ~sv)
      !baseline_file;
    let preds_p = List.map render pr and preds_s = List.map render sr in
    if preds_p = preds_s && List.map flags pr = List.map flags sr then
      Printf.printf
        "differential: %d-worker output identical to sequential (%d attempts, %.2fx)\n"
        jobs (List.length tasks) (swall /. Float.max 1e-9 pwall)
    else begin
      Printf.printf "!! parallel/sequential mismatch:\n";
      List.iteri
        (fun i (p, s) ->
          if p <> s then
            Printf.printf "  attempt %d: jobs=%d %s | jobs=1 %s\n" i jobs p s)
        (List.combine preds_p preds_s);
      exit 1
    end
  end

(* ------------------------------------------------------------------ *)
(* Serve-mode load generator                                            *)
(* ------------------------------------------------------------------ *)

(* bench serve-load (or --serve-load): fork the sia serve daemon, replay
   a skewed template distribution against it over N client connections,
   and report client-side latency percentiles, throughput and the
   rewrite-cache hit rate as one JSON row (append to
   BENCH_synthesis.json). With --dump-sql FILE it first drives every
   attempt of the perf workload through a cold daemon in attempt order
   and byte-diffs the rendered predicates against the sequential batch
   reference (written to FILE and FILE.batch) — exit 1 on divergence. *)

let serve_connections = ref 2
let serve_requests = ref 240

(* One load-generator connection: at most one in-flight request, so the
   decoder never holds more than one reply frame. *)
type load_conn = {
  lfd : Unix.file_descr;
  ldec : Sia_serve.Protocol.decoder;
  mutable inflight : int; (* request index, -1 when idle *)
  mutable sent_at : float;
}

(* Nearest-rank percentile over a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let run_serve_load () =
  let module Protocol = Sia_serve.Protocol in
  let module Client = Sia_serve.Client in
  header
    (Printf.sprintf "serve-load: %d requests over %d connections (JSON)"
       !serve_requests !serve_connections);
  let n = env_int "SIA_PERF_QUERIES" (if !smoke then 4 else 12) in
  let queries = Qgen.generate ~seed:42 ~count:n () in
  let subsets = Qgen.column_subsets 1 @ Qgen.column_subsets 2 in
  let tagged =
    List.concat_map
      (fun (gq : Qgen.gen_query) -> List.map (fun s -> (gq, s)) subsets)
      queries
  in
  let templates =
    Array.of_list
      (List.map
         (fun ((gq : Qgen.gen_query), cols) ->
           (Printer.string_of_query gq.Qgen.query, cols))
         tagged)
  in
  (* Served answers must match batch mode bit for bit, so — exactly like
     the --jobs differential — the wall-clock budget is dropped: a
     timeout firing in one run but not the other is the one
     nondeterminism source the comparison cannot control for. *)
  let cfg =
    { Config.default with Config.time_budget = None; Config.paranoid = !paranoid }
  in
  let render st =
    match Synthesize.predicate st with
    | Some p -> Printer.string_of_pred p
    | None -> "-"
  in
  (* Sequential batch reference for the differential (--dump-sql): cold
     caches, jobs=1 — the daemon starts equally cold, so the warm-up
     pass below must reproduce these predicates byte for byte. *)
  let batch_ref =
    match !dump_sql with
    | None -> None
    | Some file ->
      let attempts =
        List.map
          (fun ((gq : Qgen.gen_query), s) ->
            {
              Synthesize.from = gq.Qgen.query.Ast.from;
              pred = gq.Qgen.pred;
              target_cols = s;
            })
          tagged
      in
      Solver.reset_caches ();
      let b =
        Synthesize.synthesize_batch ~cfg:{ cfg with Config.jobs = 1 }
          Schema.tpch attempts
      in
      Some (file, List.map render b.Synthesize.results)
  in
  (* Skewed replay: template rank r in a seeded shuffle is drawn with
     weight 1/(r+1) — Zipf-ish, so a hot subset dominates like a
     plan-cache workload. Templates the warm-up pass saw fail keep
     their rank at 1/20 weight: a production client stops asking for
     rewrites that keep failing, and failures are never cached, so a
     failed template landing in a hot rank would measure the solver,
     not the cache. The failure set is deterministic per workload:
     same seed, same plan. *)
  let rng = Random.State.make [| 0x51a; n; !serve_requests |] in
  let t_count = Array.length templates in
  let ranks = Array.init t_count Fun.id in
  for i = t_count - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = ranks.(i) in
    ranks.(i) <- ranks.(j);
    ranks.(j) <- tmp
  done;
  let make_plan failed =
    let cum = Array.make t_count 0.0 in
    let total = ref 0.0 in
    Array.iteri
      (fun i _ ->
        let w = if failed.(ranks.(i)) then 0.05 else 1.0 in
        total := !total +. (w /. float_of_int (i + 1));
        cum.(i) <- !total)
      cum;
    let sample () =
      let x = Random.State.float rng !total in
      let rec bs lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cum.(mid) < x then bs (mid + 1) hi else bs lo mid
      in
      ranks.(bs 0 (t_count - 1))
    in
    Array.init !serve_requests (fun _ -> sample ())
  in
  let lat = Array.make !serve_requests 0.0 in
  let cached = ref 0 and errors = ref 0 in
  let failed_templates = ref 0 in
  let fail_reasons = ref [] in (* (template index, outcome), warm-up order *)
  let daemon_stats = ref "" in
  let wall =
    try
    Client.with_daemon ~cfg @@ fun path ->
    (* Warm-up: every template once, serially, in attempt order. This
       populates the rewrite cache (the timed replay below measures
       steady-state serving), records which templates fail, and — under
       --dump-sql — is the served side of the serve/batch byte-diff
       (the daemon starts cold, like the batch reference). *)
    let failed = Array.make t_count false in
    let served =
      let c = Client.connect path in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      List.mapi
        (fun i (sql, cols) ->
          match
            Client.request ~timeout:300. c
              (Protocol.Rewrite { target = Protocol.Cols cols; sql })
          with
          | Protocol.Rewritten r ->
            if String.starts_with ~prefix:"failed" r.Protocol.outcome then begin
              failed.(i) <- true;
              fail_reasons := (i, r.Protocol.outcome) :: !fail_reasons
            end;
            r.Protocol.pred
          | Protocol.Error_reply e ->
            Printf.eprintf "serve-load: daemon error: %s\n" e;
            raise Exit
          | _ ->
            Printf.eprintf "serve-load: unexpected reply kind\n";
            raise Exit)
        (Array.to_list templates)
    in
    failed_templates :=
      Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 failed;
    (match batch_ref with
     | None -> ()
     | Some (file, batch) ->
       let write f lines =
         let oc = open_out f in
         List.iter
           (fun l ->
             output_string oc l;
             output_char oc '\n')
           lines;
         close_out oc
       in
       write file served;
       write (file ^ ".batch") batch;
       if served <> batch then begin
         Printf.eprintf "!! serve/batch divergence:\n";
         List.iteri
           (fun i (s, b) ->
             if s <> b then
               Printf.eprintf "  attempt %d: serve %s | batch %s\n" i s b)
           (List.combine served batch);
         raise Exit
       end;
       Printf.printf
         "serve differential: %d attempts byte-identical to batch (%s, %s.batch)\n%!"
         (List.length batch) file file);
    let plan = make_plan failed in
    let conns =
      Array.init (max 1 !serve_connections) (fun _ ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          { lfd = fd; ldec = Protocol.decoder (); inflight = -1; sent_at = 0.0 })
    in
    let next = ref 0 and finished = ref 0 in
    let buf = Bytes.create 65536 in
    let t0 = Unix.gettimeofday () in
    while !finished < !serve_requests do
      Array.iter
        (fun c ->
          if c.inflight < 0 && !next < !serve_requests then begin
            let sql, cols = templates.(plan.(!next)) in
            c.inflight <- !next;
            incr next;
            c.sent_at <- Unix.gettimeofday ();
            let tag, payload =
              Protocol.encode_request
                (Protocol.Rewrite { target = Protocol.Cols cols; sql })
            in
            Protocol.write_frame c.lfd tag payload
          end)
        conns;
      let busy =
        Array.to_list conns
        |> List.filter_map (fun c ->
               if c.inflight >= 0 then Some c.lfd else None)
      in
      match Unix.select busy [] [] 300.0 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ ->
        Printf.eprintf "serve-load: daemon stalled (no reply in 300 s)\n";
        exit 1
      | ready, _, _ ->
        List.iter
          (fun fd ->
            let c = List.find (fun c -> c.lfd = fd) (Array.to_list conns) in
            (match Unix.read c.lfd buf 0 (Bytes.length buf) with
             | 0 ->
               Printf.eprintf "serve-load: daemon closed the connection\n";
               exit 1
             | r -> Protocol.feed c.ldec buf 0 r
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            match Protocol.next c.ldec with
            | `Awaiting -> ()
            | `Frame (tag, payload) ->
              lat.(c.inflight) <- Unix.gettimeofday () -. c.sent_at;
              c.inflight <- -1;
              incr finished;
              (match Protocol.decode_response tag payload with
               | Ok (Protocol.Rewritten reply) ->
                 if reply.Protocol.cached then incr cached
               | Ok (Protocol.Error_reply e) ->
                 incr errors;
                 Printf.eprintf "serve-load: error reply: %s\n" e
               | Ok _ | Error _ -> incr errors))
          ready
    done;
    let wall = Unix.gettimeofday () -. t0 in
    (let c = Client.connect path in
     Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
     match Client.request c Protocol.Stats with
     | Protocol.Stats_reply json -> daemon_stats := json
     | _ -> ());
    Array.iter
      (fun c -> try Unix.close c.lfd with Unix.Unix_error _ -> ())
      conns;
    wall
    with Exit -> exit 1
  in
  let sorted = Array.copy lat in
  Array.sort Float.compare sorted;
  let pct q = percentile sorted q *. 1000.0 in
  let hit_rate = float_of_int !cached /. float_of_int (max 1 !serve_requests) in
  let dfield name =
    match json_int_field !daemon_stats name with Some v -> v | None -> -1
  in
  let json =
    Printf.sprintf
      "{\"bench\":\"serve\",\"queries\":%d,\"templates\":%d,\"failed_templates\":%d,\"failed_template_reasons\":[%s],\"requests\":%d,\"connections\":%d,\"wall_s\":%.3f,\"throughput_rps\":%.1f,\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,\"cache_hit_rate\":%.3f,\"cached_replies\":%d,\"errors\":%d,\"daemon_cache_hits\":%d,\"daemon_cache_misses\":%d,\"daemon_cache_insertions\":%d,\"daemon_cache_entries\":%d,\"daemon_solver_queries\":%d,\"daemon_solver_cache_hits\":%d,\"daemon_text_memo_hits\":%d,\"paranoid\":%b}"
      n t_count !failed_templates
      (String.concat ","
         (List.rev_map
            (fun (i, reason) ->
              Printf.sprintf "{\"template\":%d,\"reason\":\"%s\"}" i
                (json_escape reason))
            !fail_reasons))
      !serve_requests !serve_connections wall
      (float_of_int !serve_requests /. Float.max 1e-9 wall)
      (pct 0.50) (pct 0.95) (pct 0.99) hit_rate !cached !errors
      (dfield "cache_hits") (dfield "cache_misses")
      (dfield "cache_insertions") (dfield "cache_entries")
      (dfield "solver_queries") (dfield "solver_cache_hits")
      (dfield "text_memo_hits") !paranoid
  in
  print_endline json;
  if !errors > 0 then begin
    Printf.eprintf "!! serve-load: %d error replies\n" !errors;
    exit 1
  end;
  if hit_rate <= 0.5 then begin
    Printf.eprintf
      "!! serve-load: cache hit rate %.3f <= 0.5 — the hot template set is \
       not being served from cache\n"
      hit_rate;
    exit 1
  end;
  (* Every replayed cache hit repeats a text the warm-up sent, so it
     must also have skipped parsing and keying via the request memo. *)
  if !cached > 0 && dfield "text_memo_hits" < 1 then begin
    Printf.eprintf
      "!! serve-load: %d cached replies but no request-memo hits — the \
       daemon's repeated-text fast path is not being taken\n"
      !cached;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (bechamel)                                          *)
(* ------------------------------------------------------------------ *)

let run_micro () =
  header "Micro-benchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let v = Linexpr.var in
  let c = Linexpr.of_int in
  let simplex_test () =
    let atoms =
      [
        Atom.mk_ge (v 0) (c 1);
        Atom.mk_ge (v 1) (c 1);
        Atom.mk_le (Linexpr.add (v 0) (v 1)) (c 10);
        Atom.mk_le (Linexpr.sub (v 0) (v 1)) (c 3);
      ]
    in
    fun () -> ignore (Simplex.solve atoms)
  in
  let solver_test () =
    let f =
      Formula.and_
        [
          Formula.or_
            [
              Formula.atom (Atom.mk_le (v 0) (c 0));
              Formula.atom (Atom.mk_ge (v 0) (c 10));
            ];
          Formula.atom (Atom.mk_ge (v 1) (v 0));
          Formula.atom (Atom.mk_le (v 1) (c 20));
        ]
    in
    fun () -> ignore (Solver.solve ~is_int:(fun _ -> true) f)
  in
  let fm_test () =
    let atoms =
      [
        Atom.mk_lt (Linexpr.sub (v 1) (v 2)) (c 20);
        Atom.mk_lt (Linexpr.sub (v 0) (v 1)) (Linexpr.add (Linexpr.sub (v 1) (v 2)) (c 10));
        Atom.mk_lt (v 2) (c 0);
      ]
    in
    fun () -> ignore (Fourier_motzkin.eliminate [ 2 ] atoms)
  in
  let cooper_test () =
    let cube =
      [
        (Atom.mk_lt (Linexpr.sub (v 1) (v 2)) (c 20), true);
        (Atom.mk_lt (v 2) (c 0), true);
      ]
    in
    fun () -> ignore (Cooper.eliminate_cube 2 cube)
  in
  let svm_test () =
    let rand = Random.State.make [| 3 |] in
    let mk label =
      List.init 40 (fun _ ->
          let x = Random.State.float rand 10.0 and y = Random.State.float rand 10.0 in
          [| x; y +. label |])
    in
    let pos = mk 5.0 and neg = mk (-5.0) in
    fun () -> ignore (Sia_svm.Svm.train ~epochs:50 ~pos ~neg ())
  in
  let synth_test () =
    let q = motivating_query in
    let pred = Rewrite.rewrite_for_table Schema.tpch q ~target_table:"lineitem" in
    ignore pred;
    fun () ->
      ignore
        (Synthesize.synthesize Schema.tpch ~from:[ "lineitem"; "orders" ]
           ~pred:
             (Sia_sql.Parser.parse_predicate
                "l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'")
           ~target_cols:[ "l_shipdate" ])
  in
  let join_test () =
    let li, ord = Tpch.generate ~sf:0.002 () in
    fun () ->
      ignore
        (Exec.hash_join ~left:li ~right:ord ~left_key:"l_orderkey" ~right_key:"o_orderkey")
  in
  let tests =
    Test.make_grouped ~name:"sia"
      [
        Test.make ~name:"simplex-solve" (Staged.stage (simplex_test ()));
        Test.make ~name:"dpllt-solve" (Staged.stage (solver_test ()));
        Test.make ~name:"fm-project" (Staged.stage (fm_test ()));
        Test.make ~name:"cooper-project" (Staged.stage (cooper_test ()));
        Test.make ~name:"svm-train" (Staged.stage (svm_test ()));
        Test.make ~name:"synthesize-1col" (Staged.stage (synth_test ()));
        Test.make ~name:"hash-join-sf0.002" (Staged.stage (join_test ()));
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~kde:(Some 1000) ()
    in
    let raw_results = Benchmark.all cfg instances tests in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    Analyze.merge ols instances results
  in
  let results = benchmark () in
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-28s (no estimate)\n" name)
        tbl)
    results

(* ------------------------------------------------------------------ *)
(* Numeric-layer throughput (bench --numeric)                           *)
(* ------------------------------------------------------------------ *)

(* Ops/sec over the three operand regimes the [Bigint] representation
   distinguishes — int fast path, values hugging the int boundary
   (promotion/demotion traffic), and multi-limb magnitudes — plus the
   [Rat] both-int fast paths on top. One JSON line for the artifact. *)
let run_numeric () =
  header "numeric: Bigint/Rat throughput by operand regime (JSON)";
  let open Sia_numeric in
  let rand = Random.State.make [| 0x51a; 42 |] in
  let n_ops = env_int "SIA_NUMERIC_OPS" 2_000_000 in
  let small () = Bigint.of_int (Random.State.int rand 2_000_001 - 1_000_000) in
  let edge () =
    let off = Random.State.int rand 1_000_000 in
    let b = Bigint.sub (Bigint.of_int max_int) (Bigint.of_int off) in
    if Random.State.bool rand then b else Bigint.neg b
  in
  let big () =
    let b =
      Bigint.add
        (Bigint.mul (Bigint.of_int max_int) (Bigint.of_int (1 + Random.State.int rand 1000)))
        (small ())
    in
    if Random.State.bool rand then b else Bigint.neg b
  in
  let mk gen = Array.init 1024 (fun _ -> gen ()) in
  let time_ops f =
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int n_ops /. Float.max 1e-9 dt
  in
  let bench_binop op xs ys =
    time_ops (fun () ->
        let sink = ref Bigint.zero in
        for i = 0 to n_ops - 1 do
          sink := op xs.(i land 1023) ys.((i * 7) land 1023)
        done;
        ignore (Bigint.sign !sink))
  in
  let bench_cmp xs ys =
    time_ops (fun () ->
        let sink = ref 0 in
        for i = 0 to n_ops - 1 do
          sink := !sink + Bigint.compare xs.(i land 1023) ys.((i * 7) land 1023)
        done;
        ignore !sink)
  in
  let nonzero a = Array.map (fun b -> if Bigint.is_zero b then Bigint.one else b) a in
  let regimes = [ ("small", small); ("edge", edge); ("big", big) ] in
  let fields = ref [] in
  List.iter
    (fun (name, gen) ->
      let xs = mk gen and ys = mk gen in
      let ysn = nonzero ys in
      let ops =
        [
          ("add", bench_binop Bigint.add xs ys);
          ("sub", bench_binop Bigint.sub xs ys);
          ("mul", bench_binop Bigint.mul xs ys);
          ("div", bench_binop Bigint.div xs ysn);
          ("gcd", bench_binop Bigint.gcd xs ys);
          ("compare", bench_cmp xs ys);
        ]
      in
      List.iter
        (fun (op, rate) ->
          Printf.printf "  bigint %-5s %-8s %12.2e ops/s\n%!" name op rate;
          fields := Printf.sprintf "\"bigint_%s_%s\":%.3e" name op rate :: !fields)
        ops)
    regimes;
  (* Rat: both-int fast path vs big-component rationals. *)
  let mk_rat gen =
    let dens = nonzero (mk gen) in
    Array.init 1024 (fun i -> Rat.make (gen ()) (Bigint.abs dens.(i)))
  in
  let bench_rat_binop op xs ys =
    time_ops (fun () ->
        let sink = ref Rat.zero in
        for i = 0 to n_ops - 1 do
          sink := op xs.(i land 1023) ys.((i * 7) land 1023)
        done;
        ignore (Rat.sign !sink))
  in
  List.iter
    (fun (name, gen) ->
      let xs = mk_rat gen and ys = mk_rat gen in
      let ops =
        [
          ("add", bench_rat_binop Rat.add xs ys);
          ("mul", bench_rat_binop Rat.mul xs ys);
          ( "compare",
            time_ops (fun () ->
                let sink = ref 0 in
                for i = 0 to n_ops - 1 do
                  sink := !sink + Rat.compare xs.(i land 1023) ys.((i * 7) land 1023)
                done;
                ignore !sink) );
        ]
      in
      List.iter
        (fun (op, rate) ->
          Printf.printf "  rat    %-5s %-8s %12.2e ops/s\n%!" name op rate;
          fields := Printf.sprintf "\"rat_%s_%s\":%.3e" name op rate :: !fields)
        ops)
    [ ("small", small); ("big", big) ];
  Printf.printf "{\"bench\":\"numeric\",\"ops\":%d,%s}\n" n_ops
    (String.concat "," (List.rev !fields))

(* ------------------------------------------------------------------ *)

let () =
  let rec parse = function
    | [] -> []
    | "--paranoid" :: rest ->
      paranoid := true;
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
       | Some j when j >= 1 -> jobs_n := j
       | Some _ | None ->
         Printf.eprintf "--jobs expects a positive integer, got %s\n" v;
         exit 1);
      parse rest
    | "--jobs" :: [] ->
      Printf.eprintf "--jobs expects a worker count\n";
      exit 1
    | "--baseline" :: f :: rest ->
      baseline_file := Some f;
      parse rest
    | "--baseline" :: [] ->
      Printf.eprintf "--baseline expects a JSON file\n";
      exit 1
    | "--dump-sql" :: f :: rest ->
      dump_sql := Some f;
      parse rest
    | "--dump-sql" :: [] ->
      Printf.eprintf "--dump-sql expects an output file\n";
      exit 1
    | "--numeric" :: rest ->
      numeric_flag := true;
      parse rest
    | "--trace" :: f :: rest ->
      trace_file := Some f;
      parse rest
    | "--trace" :: [] ->
      Printf.eprintf "--trace expects an output file\n";
      exit 1
    | "--metrics" :: rest ->
      metrics := true;
      parse rest
    | "--serve-load" :: rest -> "serve-load" :: parse rest
    | "--connections" :: v :: rest ->
      (match int_of_string_opt v with
       | Some c when c >= 1 -> serve_connections := c
       | Some _ | None ->
         Printf.eprintf "--connections expects a positive integer, got %s\n" v;
         exit 1);
      parse rest
    | "--connections" :: [] ->
      Printf.eprintf "--connections expects a client count\n";
      exit 1
    | "--requests" :: v :: rest ->
      (match int_of_string_opt v with
       | Some r when r >= 1 -> serve_requests := r
       | Some _ | None ->
         Printf.eprintf "--requests expects a positive integer, got %s\n" v;
         exit 1);
      parse rest
    | "--requests" :: [] ->
      Printf.eprintf "--requests expects a request count\n";
      exit 1
    | a :: rest -> a :: parse rest
  in
  let positional = parse (List.tl (Array.to_list Sys.argv)) in
  if !paranoid then Sia_check.Check.enable ();
  if !trace_file <> None || !metrics then
    Sia_trace.Trace.enable ~detail:(Sys.getenv_opt "SIA_TRACE_DETAIL" <> None) ();
  let cmd = match positional with c :: _ -> c | [] -> "all" in
  Printf.printf
    "sia bench: %s%s%s%s (SIA_BENCH_QUERIES=%d SIA_CASE_QUERIES=%d SIA_SF_ONE=%.3f SIA_SF_TEN=%.3f)\n%!"
    cmd
    (if !paranoid then " --paranoid" else "")
    (if !jobs_n > 1 then Printf.sprintf " --jobs %d" !jobs_n else "")
    (if !smoke then " --smoke" else "")
    (n_queries ()) (n_case ()) (sf_one ()) (sf_ten ());
  let t0 = Unix.gettimeofday () in
  (match cmd with
   | "motivating" -> run_motivating ()
   | "fig6" -> run_fig6 ()
   | "table2" -> run_table2 ()
   | "table3" -> run_table3 ()
   | "fig7" -> run_fig7 ()
   | "fig8" -> run_fig8 ()
   | "fig9" | "table4" -> run_fig9 ()
   | "limits" -> run_limits ()
   | "ablation" -> run_ablation ()
   | "bench" | "perf" -> if !numeric_flag then run_numeric () else run_perf ()
   | "suite" -> run_suite ()
   | "serve-load" -> run_serve_load ()
   | "numeric" -> run_numeric ()
   | "micro" -> run_micro ()
   | "all" ->
     run_motivating ();
     run_fig6 ();
     run_table2 ();
     run_table3 ();
     run_fig7 ();
     run_fig8 ();
     run_fig9 ();
     run_limits ();
     run_ablation ();
     run_micro ()
   | other ->
     Printf.eprintf
       "unknown experiment %s (expected motivating|fig6|table2|table3|fig7|fig8|fig9|limits|ablation|bench|suite|serve-load|numeric|micro|all)\n"
       other;
     exit 1);
  (match !trace_file with
   | Some file ->
     let oc = open_out file in
     Sia_trace.Trace.write_chrome oc;
     close_out oc;
     Printf.printf "trace written to %s (%d events)\n" file
       (List.length (Sia_trace.Trace.events ()))
   | None -> ());
  if !metrics then print_string (Sia_trace.Trace.metrics_string ());
  Printf.printf "\n[%s done in %.1f s]\n" cmd (Unix.gettimeofday () -. t0)
