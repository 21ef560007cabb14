(* Benchmark harness: one subcommand per table/figure of the paper's
   evaluation (section 6), plus the motivating example, the section 6.7
   limitation study, and a QE-method ablation.

   Usage:  main.exe [motivating|fig6|table2|table3|fig7|fig8|fig9|limits|
                     ablation|bench|suite|all]
                    [--paranoid] [--jobs N] [--smoke] [--baseline FILE]
                    [--dump-sql FILE] [--trace FILE] [--metrics]
   --paranoid audits every solver verdict through the independent
   certificate checker and re-derives each synthesized rewrite; the
   "bench" JSON then also reports the checking overhead.
   --jobs N  ("bench" and "suite") runs the workload on an N-worker fork pool
   and again sequentially and checks the outputs are identical (exit 1 on
   any mismatch); "bench" also reports the parallel row with the speedup.
   --smoke shrinks the workload for CI. --baseline FILE gates the row
   against FILE; --dump-sql FILE writes the rewritten predicates.
   --trace FILE writes a Chrome trace-event JSON of the whole run
   (chrome://tracing / ui.perfetto.dev); --metrics prints the aggregated
   span/counter table.
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
(* Executing a rewrite                                                  *)
(* ------------------------------------------------------------------ *)

(* Both plans of an attached rewrite run once each on [tables], timed,
   with their result multisets compared; [None] when nothing was
   attached. A rewrite that is not [preserved] changed the query's
   answer: its caller fails the run. *)
type executed = {
  rows_orig : int;
  rows_rew : int;
  s_orig : float;
  s_rew : float;
  preserved : bool;
}

let execute tables r =
  match Rewrite.plans Schema.tpch r with
  | _, None -> None
  | orig, Some rew ->
    let out1, s_orig = Exec.time (fun () -> Exec.run ~tables orig) in
    let out2, s_rew = Exec.time (fun () -> Exec.run ~tables rew) in
    Some
      {
        rows_orig = out1.Sia_engine.Table.nrows;
        rows_rew = out2.Sia_engine.Table.nrows;
        s_orig;
        s_rew;
        preserved = Sia_engine.Table.equal_multiset out1 out2;
      }

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
  let tables = Tpch.generate_all ~sf:(sf_one ()) () in
  let li = List.assoc "lineitem" tables in
  match (execute tables result, result.Rewrite.synthesized) with
  | Some e, Some p ->
    Printf.printf "original:  %d rows in %.3f s\n" e.rows_orig e.s_orig;
    Printf.printf "rewritten: %d rows in %.3f s  (speedup %.2fx)\n" e.rows_rew
      e.s_rew (e.s_orig /. e.s_rew);
    Printf.printf "semantics preserved: %b\n" e.preserved;
    Printf.printf "selectivity on lineitem: %.3f\n" (Eval.selectivity li p);
    if not e.preserved then exit 1
  | None, _ | _, None -> ()

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

module Json = Sia_trace.Json

let jobs_n = ref 1
let smoke = ref false
let baseline_file = ref None
let trace_file = ref None
let metrics = ref false
let dump_sql = ref None

let int n = Json.Num (float_of_int n)

(* --baseline FILE: the gates the emitted row must pass against a
   committed reference row of FILE: the last one whose "bench" tag
   matches the row's and whose "paranoid" flag equals the row's, or
   failing that the last one with the matching tag, so one baseline file
   carries a row per subcommand ("synthesis", "suite", ...) and per mode.
   A gate is (field, direction, tolerance, scope): the row's value must
   be >= (`Ge) or <= (`Le) tolerance times the baseline's. A `Required
   field missing from the baseline row fails the run; an `Optional one
   is skipped, so older baseline rows still gate what they carry; a
   `Same_mode one is optional and is checked only when the baseline
   row's "paranoid" flag equals the row's. Certificate rejections must
   not appear, and sample generation must stay within 1.5x of the
   recorded gen_cpu_s (a coarse multiplier: CI machines differ,
   order-of-magnitude ladder regressions do not). The solver's work
   counters are deterministic, so they may not rise at all; they are
   gated per mode because paranoid mode re-derives candidates and does
   more work (4,143 theory rounds against 3,115 on the synthesis smoke). *)
let gates =
  [
    ("valid", `Ge, 1.0, `Required);
    ("optimal", `Ge, 1.0, `Required);
    ("cert_rejections", `Le, 1.0, `Optional);
    ("gen_cpu_s", `Le, 1.5, `Optional);
    ("solver_pivots", `Le, 1.0, `Same_mode);
    ("solver_propagations", `Le, 1.0, `Same_mode);
    ("solver_conflicts", `Le, 1.0, `Same_mode);
    ("solver_theory_rounds", `Le, 1.0, `Same_mode);
  ]

let check_baseline row file =
  let tag = Option.get (Json.str (Json.member "bench" row)) in
  let mode r = match Json.member "paranoid" r with Some (Json.Bool b) -> Some b | _ -> None in
  let same_mode r = Option.equal Bool.equal (mode r) (mode row) in
  let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt in
  let rows =
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match Json.parse line with
           | r when Json.str (Json.member "bench" r) = Some tag -> Some r
           | _ | (exception Json.Error _) -> None)
    |> List.rev
  in
  match List.find_opt same_mode rows, rows with
  | None, [] -> fail "baseline %s: no \"bench\":\"%s\" row found" file tag
  | Some base, _ | None, base :: _ ->
    let checked =
      List.filter_map
        (fun (field, dir, tol, scope) ->
          let get r = Json.num (Json.member field r) in
          match (get base, get row) with
          | _ when scope = `Same_mode && not (same_mode base) -> None
          | None, _ when scope <> `Required -> None
          | None, _ | _, None -> fail "baseline %s [%s]: a row lacks %s" file tag field
          | Some b, Some v ->
            let limit = tol *. b in
            let ok, op = match dir with `Ge -> (v >= limit, ">=") | `Le -> (v <= limit, "<=") in
            if not ok then
              fail "!! regression vs %s [%s]: %s %g (baseline %g, limit %s %g)" file
                tag field v b op limit;
            Some (Printf.sprintf "%s %g %s %g" field v op limit))
        gates
    in
    Printf.printf "baseline %s [%s%s]: ok (%s)\n" file tag
      (if mode base = Some true then ", paranoid" else "")
      (String.concat ", " checked)

(* Which run of a differential a row reports: the only one (--jobs 1),
   or the sequential reference and the parallel run of --jobs N. *)
type run_kind = Only | Sequential | Parallel of { seq_wall : float }

(* The run "bench" and "suite" share. With --jobs 1 the workload runs
   once in process. With --jobs N it runs on N workers first and then
   sequentially: the forked workers must not inherit a model pool warmed
   by the sequential reference, or the measured speedup would be
   replaying pooled models (worker pools die with the workers, so the
   sequential run starts equally cold). The sequential run is canonical:
   its row is gated and its predicates dumped. The parallel run must
   match it predicate for predicate and outcome for outcome, or the run
   exits 1. [emit] prints a run's row and returns it; the parallel run
   gets a row of its own only with [~parallel_row:true]. *)
let differential ?(parallel_row = false) ~run ~results ~pred ~stats ~emit () =
  let jobs = !jobs_n in
  let timed j =
    let t0 = Unix.gettimeofday () in
    let b = run j in
    (b, Unix.gettimeofday () -. t0)
  in
  let render b =
    List.map
      (fun r -> match pred r with Some p -> Printer.string_of_pred p | None -> "-")
      (results b)
  in
  (* --dump-sql FILE: one rendered predicate per attempt, in attempt
     order, from the canonical run: the byte-diff anchor for comparing
     rewritten SQL across builds. *)
  let finish b row =
    let preds = render b in
    Option.iter
      (fun file ->
        Out_channel.with_open_text file (fun oc ->
            List.iter (fun l -> output_string oc (l ^ "\n")) preds);
        Printf.printf "rewritten SQL dumped to %s (%d attempts)\n" file
          (List.length preds))
      !dump_sql;
    Option.iter (check_baseline row) !baseline_file;
    preds
  in
  if jobs <= 1 then begin
    let b, wall = timed 1 in
    ignore (finish b (emit Only ~wall b))
  end
  else begin
    let pb, pwall = timed jobs in
    let sb, swall = timed 1 in
    let row = emit Sequential ~wall:swall sb in
    if parallel_row then ignore (emit (Parallel { seq_wall = swall }) ~wall:pwall pb);
    let preds_s = finish sb row and preds_p = render pb in
    let flags b =
      List.map
        (fun r ->
          let st = stats r in
          (Synthesize.is_valid_outcome st, Synthesize.is_optimal_outcome st))
        (results b)
    in
    if preds_p = preds_s && flags pb = flags sb then
      Printf.printf
        "differential: %d-worker output identical to sequential (%d attempts, %.2fx)\n"
        jobs (List.length preds_s) (swall /. Float.max 1e-9 pwall)
    else begin
      Printf.printf "!! parallel/sequential mismatch:\n";
      List.iteri
        (fun i (p, s) ->
          if p <> s then Printf.printf "  attempt %d: jobs=%d %s | jobs=1 %s\n" i jobs p s)
        (List.combine preds_p preds_s);
      exit 1
    end
  end

let run_header title =
  header
    (Printf.sprintf "%s%s%s (JSON)" title
       (if !jobs_n > 1 then Printf.sprintf ", %d workers + sequential reference" !jobs_n
        else "")
       (if !paranoid then ", paranoid" else ""))

(* Differential mode drops the per-attempt wall-clock budget: a timeout
   that fires under CPU contention in one run but not the other is the
   one nondeterminism source the comparison cannot control for. *)
let batch_cfg () =
  {
    Config.default with
    Config.time_budget = (if !jobs_n > 1 then None else budget);
    Config.paranoid = !paranoid;
    Config.trace = Config.default.Config.trace || !trace_file <> None || !metrics;
  }

(* Solver totals and per-phase times of a run. Per-phase times are summed
   over attempts, which at jobs > 1 means CPU seconds aggregated across
   workers, deliberately reported under *_cpu_s names, separate from the
   wall clock, so a parallel row's phase times reading above wall_s is
   meaningful instead of contradictory. *)
let solver_total stats =
  List.fold_left
    (fun acc (s : Synthesize.stats) -> Solver.stats_add acc s.Synthesize.solver)
    Solver.stats_zero stats

let cpu_fields stats =
  let sum f = Json.Num (List.fold_left (fun acc s -> acc +. f s) 0.0 stats) in
  [
    ("gen_cpu_s", sum (fun s -> s.Synthesize.gen_time));
    ("learn_cpu_s", sum (fun s -> s.Synthesize.learn_time));
    ("verify_cpu_s", sum (fun s -> s.Synthesize.verify_time));
  ]

(* One JSON line with end-to-end synthesis wall-clock and solver
   statistics over a fixed seeded workload, so the perf trajectory can be
   tracked across PRs (append the line to BENCH_synthesis.json). With
   --jobs N both rows are printed; the parallel one carries per-worker
   task counts and the measured speedup. --smoke shrinks the workload (4
   queries unless SIA_PERF_QUERIES overrides) for CI. *)
let run_perf () =
  let jobs = !jobs_n in
  run_header "perf: end-to-end synthesis workload";
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
  let cfg = batch_cfg () in
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
  (* The row of one batch. Under --paranoid the only or parallel run also
     re-derives each synthesized predicate through the certificate-checked
     audit and reports the checking overhead. *)
  let emit kind ~wall (b : Synthesize.batch) =
    let stats = b.Synthesize.results in
    let audit = !paranoid && match kind with Sequential -> false | Only | Parallel _ -> true in
    let audit_passed = ref 0 and audit_failed = ref 0 in
    let audit_t0 = Unix.gettimeofday () in
    if audit then
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
    let sv = solver_total stats in
    (* Certificate-checking overhead relative to the time spent actually
       solving (SAT search + theory + encoding). *)
    let solve_s = sv.Solver.encode_time +. sv.Solver.search_time in
    let cert_overhead =
      (sv.Solver.cert_time +. audit_wall) /. Float.max 1e-9 solve_s
    in
    let worker_fields =
      match kind with
      | Only | Sequential -> []
      | Parallel { seq_wall } ->
        (* Per-worker attribution, aligned by index across the arrays:
           the retained epilogue summaries say which worker did how much
           of the batch. *)
        List.iteri
          (fun i ((tasks, wall_s), (s : Solver.stats)) ->
            Printf.printf
              "  worker %d: %d tasks, %.2f s, %d queries, %d cache hits, %d pivots\n"
              i tasks wall_s s.Solver.queries s.Solver.cache_hits s.Solver.pivots)
          (List.combine
             (List.combine b.Synthesize.worker_tasks b.Synthesize.worker_wall)
             b.Synthesize.worker_solver);
        let per_worker f = Json.Arr (List.map f b.Synthesize.worker_solver) in
        [
          ("worker_tasks", Json.Arr (List.map int b.Synthesize.worker_tasks));
          ("worker_wall_s", Json.Arr (List.map (fun w -> Json.Num w) b.Synthesize.worker_wall));
          ("worker_queries", per_worker (fun s -> int s.Solver.queries));
          ("worker_pivots", per_worker (fun s -> int s.Solver.pivots));
          ("seq_wall_s", Json.Num seq_wall);
          ("speedup", Json.Num (seq_wall /. Float.max 1e-9 wall));
        ]
    in
    let row =
      Json.Obj
        ([
           ("bench", Json.Str "synthesis");
           ("queries", int n);
           ("attempts", int (List.length stats));
           ("valid", int (count Synthesize.is_valid_outcome));
           ("optimal", int (count Synthesize.is_optimal_outcome));
           ("wall_s", Json.Num wall);
         ]
        @ cpu_fields stats
        @ [
            ("gen_model_reuse_hits", int sv.Solver.pool_hits);
            ("gen_underapprox_solves", int sv.Solver.underapprox_solves);
            ("gen_fallbacks", int sv.Solver.gen_fallbacks);
            ("cegqi_instantiations", int sv.Solver.cegqi_instantiations);
            ("online_cores", int (Sia_pool.Pool.online_cores ()));
            ("solver_queries", int sv.Solver.queries);
            ("solver_cache_hits", int sv.Solver.cache_hits);
            ("solver_encodings", int sv.Solver.encodings);
            ("solver_instances", int sv.Solver.instances);
            ("solver_theory_rounds", int sv.Solver.theory_rounds);
            ("solver_reused_rounds", int sv.Solver.reused_rounds);
            ("solver_rebuilds", int sv.Solver.tableau_rebuilds);
            ("solver_conflicts", int sv.Solver.conflicts);
            ("solver_propagations", int sv.Solver.propagations);
            ("solver_restarts", int sv.Solver.restarts);
            ("solver_pivots", int sv.Solver.pivots);
            ("solver_encode_s", Json.Num sv.Solver.encode_time);
            ("solver_search_s", Json.Num sv.Solver.search_time);
            ("solver_theory_s", Json.Num sv.Solver.theory_time);
            ("paranoid", Json.Bool !paranoid);
            ("cert_lemmas", int sv.Solver.cert_lemmas);
            ("cert_proofs", int sv.Solver.cert_proofs);
            ("cert_models", int sv.Solver.cert_models);
            ("cert_rejections", int sv.Solver.cert_rejections);
            ("cert_s", Json.Num sv.Solver.cert_time);
            ("audit_passed", int !audit_passed);
            ("audit_failed", int !audit_failed);
            ("audit_s", Json.Num audit_wall);
            ("cert_overhead", Json.Num cert_overhead);
            ("jobs", int b.Synthesize.jobs);
            ("jobs_requested", int b.Synthesize.jobs_requested);
          ]
        @ worker_fields)
    in
    Format.printf "solver: %a@." Solver.pp_stats sv;
    if audit then
      Printf.printf
        "paranoid: %d lemma certs, %d proofs, %d models, %d rejections; audit %d passed / %d failed; overhead %.2fx solve time\n"
        sv.Solver.cert_lemmas sv.Solver.cert_proofs sv.Solver.cert_models
        sv.Solver.cert_rejections !audit_passed !audit_failed cert_overhead;
    print_endline (Json.to_string row);
    row
  in
  differential ~parallel_row:true
    ~run:(fun j ->
      Synthesize.synthesize_batch ~cfg:{ cfg with Config.jobs = j } Schema.tpch attempts)
    ~results:(fun b -> b.Synthesize.results)
    ~pred:Synthesize.predicate ~stats:Fun.id ~emit ()

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
   --dump-sql, --baseline and --jobs behave as under "bench". *)
let run_suite () =
  run_header "suite: TPC-H-class workload, 8 tables, full grammar";
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
  let cfg = batch_cfg () in
  let outcome_name (r : Rewrite.rewrite_result) =
    match r.Rewrite.stats.Synthesize.outcome with
    | Synthesize.Optimal _ -> "optimal"
    | Synthesize.Valid _ -> "valid"
    | Synthesize.Trivial -> "trivial"
    | Synthesize.Failed reason -> Printf.sprintf "failed (%s)" reason
  in
  (* The row of the canonical (sequential) run; the parallel run has none. *)
  let emit _kind ~wall (rs : Rewrite.rewrite_result list) =
    List.iter2
      (fun (s : Qgen.suite_query) r ->
        Printf.printf "  %2d %-6s target=%-9s %s\n" s.Qgen.sid s.Qgen.label
          s.Qgen.starget (outcome_name r))
      queries rs;
    let stats = List.map (fun (r : Rewrite.rewrite_result) -> r.Rewrite.stats) rs in
    let count f = List.length (List.filter f stats) in
    let count_audit f =
      List.length (List.filter (fun (r : Rewrite.rewrite_result) -> f r.Rewrite.audit) rs)
    in
    let sv = solver_total stats in
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
      List.map
        (fun (name, (t : Sia_engine.Table.t)) -> ("rows_" ^ name, int t.Sia_engine.Table.nrows))
        (Tpch.generate_all ~sf:(sf_one ()) ())
    in
    let row =
      Json.Obj
        ([
           ("bench", Json.Str "suite");
           ("queries", int (List.length queries));
           ("templates", int (List.length queries / max 1 variants));
           ("variants", int variants);
           ("valid", int (count Synthesize.is_valid_outcome));
           ("optimal", int (count Synthesize.is_optimal_outcome));
           ("trivial", int (count (fun s -> s.Synthesize.outcome = Synthesize.Trivial)));
           ( "failed",
             int
               (count (fun s ->
                    match s.Synthesize.outcome with Synthesize.Failed _ -> true | _ -> false))
           );
           ("wall_s", Json.Num wall);
         ]
        @ cpu_fields stats
        @ [
            ("n_in", int feats.Qgen.f_in);
            ("n_between", int feats.Qgen.f_between);
            ("n_case", int feats.Qgen.f_case);
            ("n_like", int feats.Qgen.f_like);
            ("n_isnull", int feats.Qgen.f_isnull);
            ("n_string_eq", int feats.Qgen.f_string_eq);
          ]
        @ table_rows
        @ [
            ("solver_queries", int sv.Solver.queries);
            ("solver_cache_hits", int sv.Solver.cache_hits);
            ("solver_theory_rounds", int sv.Solver.theory_rounds);
            ("solver_reused_rounds", int sv.Solver.reused_rounds);
            ("solver_rebuilds", int sv.Solver.tableau_rebuilds);
            ("solver_conflicts", int sv.Solver.conflicts);
            ("solver_pivots", int sv.Solver.pivots);
            ("paranoid", Json.Bool !paranoid);
            ("cert_rejections", int sv.Solver.cert_rejections);
            ("audit_passed", int (count_audit (fun a -> a = Rewrite.Audit_passed)));
            ( "audit_failed",
              int (count_audit (function Rewrite.Audit_failed _ -> true | _ -> false)) );
            ("jobs_requested", int !jobs_n);
          ])
    in
    Format.printf "solver: %a@." Solver.pp_stats sv;
    print_endline (Json.to_string row);
    row
  in
  differential
    ~run:(fun j -> Rewrite.rewrite_all ~cfg:{ cfg with Config.jobs = j } Schema.tpch tasks)
    ~results:Fun.id
    ~pred:(fun (r : Rewrite.rewrite_result) -> r.Rewrite.synthesized)
    ~stats:(fun (r : Rewrite.rewrite_result) -> r.Rewrite.stats)
    ~emit ()

(* ------------------------------------------------------------------ *)
(* Fig 9 + Table 4: runtime impact and selectivity                      *)
(* ------------------------------------------------------------------ *)

(* The queries of the paper's sweep, each rewritten for every lineitem
   column of its target predicate (the column selection of run_suite),
   through the batch pipeline, so --jobs and --paranoid apply as in
   "suite". Both plans of every attached rewrite run at the two scale
   factors; a query with no lineitem column is not rewritten. *)
let run_fig9 () =
  header "Fig 9 / Table 4: runtime impact of rewritten queries";
  let queries = Qgen.generate ~seed:42 ~count:(n_queries ()) () in
  let tasks =
    List.filter_map
      (fun (gq : Qgen.gen_query) ->
        let q = gq.Qgen.query in
        match
          Rewrite.table_target_cols Schema.tpch ~from:q.Ast.from
            ~pred:(Rewrite.target_pred Schema.tpch q) ~target_table:"lineitem"
        with
        | [] -> None
        | cols -> Some (gq, (q, cols)))
      queries
  in
  let results =
    Rewrite.rewrite_all
      ~cfg:{ (batch_cfg ()) with Config.jobs = !jobs_n }
      Schema.tpch (List.map snd tasks)
  in
  let rewritten =
    List.filter_map
      (fun (((gq : Qgen.gen_query), _), (r : Rewrite.rewrite_result)) ->
        match r.Rewrite.synthesized with
        | Some p1 when Option.is_some r.Rewrite.rewritten -> Some (gq.Qgen.id, r, p1)
        | Some _ | None -> None)
      (List.combine tasks results)
  in
  Printf.printf "queries rewritten for lineitem: %d / %d\n" (List.length rewritten)
    (List.length queries);
  Printf.printf "  not attached (no lineitem column in the predicate): %d\n"
    (List.length queries - List.length tasks);
  List.iter
    (fun why ->
      Printf.printf "  not attached (%s): %d\n" (Rewrite.not_attached_reason why)
        (List.length (List.filter (fun r -> Rewrite.not_attached r = Some why) results)))
    [ Rewrite.Already_pushed; Rewrite.No_predicate ];
  (* A rewrite that changes the result multiset fails the run. *)
  let violations = ref 0 in
  let run_sf label sf =
    let tables = Tpch.generate_all ~sf () in
    let li = List.assoc "lineitem" tables in
    let results =
      List.filter_map
        (fun (id, r, p1) ->
          Option.map
            (fun e ->
              if not e.preserved then begin
                incr violations;
                Printf.printf "  !! semantics violation on query %d\n" id
              end;
              (id, e.s_orig, e.s_rew, Eval.selectivity li p1))
            (execute tables r))
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
    | "--trace" :: f :: rest ->
      trace_file := Some f;
      parse rest
    | "--trace" :: [] ->
      Printf.eprintf "--trace expects an output file\n";
      exit 1
    | "--metrics" :: rest ->
      metrics := true;
      parse rest
    | a :: _ when String.starts_with ~prefix:"--" a ->
      Printf.eprintf "unknown option %s\n" a;
      exit 1
    | a :: rest -> a :: parse rest
  in
  let positional = parse (List.tl (Array.to_list Sys.argv)) in
  if !paranoid then Sia_check.Check.enable ();
  if !trace_file <> None || !metrics then Sia_trace.Trace.enable ();
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
   | "bench" | "perf" -> run_perf ()
   | "suite" -> run_suite ()
   | "all" ->
     run_motivating ();
     run_fig6 ();
     run_table2 ();
     run_table3 ();
     run_fig7 ();
     run_fig8 ();
     run_fig9 ();
     run_limits ();
     run_ablation ()
   | other ->
     Printf.eprintf
       "unknown experiment %s (expected motivating|fig6|table2|table3|fig7|fig8|fig9|limits|ablation|bench|suite|all)\n"
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
