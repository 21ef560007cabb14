(* End-to-end rewrite-and-execute benchmark.

   A request is what a user of Sia does: SQL text goes in, the rewritten
   SQL comes out, and that SQL runs. Batch workloads call the layers in
   process and time each public call from here (parse, rewrite, plan,
   print, execute); serve-zipf sends the same requests to a forked
   daemon over the wire protocol. Nothing inside lib/ is changed or
   instrumented: layer times are bench-side timings around public calls
   plus the counters the library already exports (Synthesize.stats,
   Solver.stats, the daemon's Stats reply). *)

module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
module Plan = Sia_relalg.Plan
module Planner = Sia_relalg.Planner
module Table = Sia_engine.Table
module Tpch = Sia_engine.Tpch
module Exec = Sia_engine.Exec
module Eval = Sia_engine.Eval
module Qgen = Sia_workload.Qgen
module Solver = Sia_smt.Solver
module Trace = Sia_trace.Trace
module Protocol = Sia_serve.Protocol
module Client = Sia_serve.Client
module Config = Sia_core.Config
module Rewrite = Sia_core.Rewrite
module Synthesize = Sia_core.Synthesize

type opts = {
  seed : int;  (** data and request-stream seed *)
  query_seed : int;  (** query-generator seed; fixed by default, see README *)
  seconds : float;  (** minimum length of the timed phase *)
  trace_file : string option;  (** traced run: per-layer metrics + Chrome trace *)
  smoke : bool;
}

type metric = { name : string; unit : string; value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;
  layer : metric list;  (** empty unless traced *)
}

let workloads = [ "paper-join"; "tpch-suite"; "exec-large"; "serve-zipf" ]

(* ------------------------------------------------------------------ *)
(* Small statistics                                                    *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

(* Nearest-rank percentile. *)
let percentile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

(* Percentile of a small set of unlike latencies (one per request): the
   mean of the order statistics within 5 points of q. A single order
   statistic would jump between neighbouring requests whenever noise
   swaps their ranks. *)
let window_percentile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let lo = max 0 (min (n - 1) (int_of_float (floor ((q -. 0.05) *. float_of_int n)))) in
    let hi = max (lo + 1) (min n (int_of_float (ceil ((q +. 0.05) *. float_of_int n)))) in
    let s = ref 0.0 in
    for i = lo to hi - 1 do
      s := !s +. a.(i)
    done;
    !s /. float_of_int (hi - lo)

let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

let geomean = function
  | [] -> 1.0
  | xs -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb ->
            kb /. 1024.0)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Run [f] inside a bench span (a no-op unless tracing is on) and time it. *)
let timed name f =
  let t0 = now () in
  let r = Trace.span name f in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Rewrite requests                                                    *)
(* ------------------------------------------------------------------ *)

type target = Cols of string list | Table of string

(* Per-pass layer accounting. *)
type layers = {
  mutable parse_s : float;
  mutable rewrite_s : float;
  mutable plan_s : float;
  mutable print_s : float;
  mutable gen_s : float;
  mutable learn_s : float;
  mutable verify_s : float;
  mutable iterations : int;
  mutable samples : int;
  mutable requests : int;
  mutable valid : int;
  mutable optimal : int;
  mutable errors : int;
}

let new_layers () =
  {
    parse_s = 0.0;
    rewrite_s = 0.0;
    plan_s = 0.0;
    print_s = 0.0;
    gen_s = 0.0;
    learn_s = 0.0;
    verify_s = 0.0;
    iterations = 0;
    samples = 0;
    requests = 0;
    valid = 0;
    optimal = 0;
    errors = 0;
  }

(* A rewrite answer, rendered exactly as the daemon renders its reply. *)
type reply = { outcome : string; pred : string; sql : string }

let outcome_label (st : Synthesize.stats) =
  match st.Synthesize.outcome with
  | Synthesize.Optimal _ -> "optimal"
  | Synthesize.Valid _ -> "valid"
  | Synthesize.Trivial -> "trivial"
  | Synthesize.Failed msg -> "failed: " ^ msg

(* One request through the in-process pipeline: parse -> rewrite ->
   plan -> print. Returns the result, its reply and its latency (the sum
   of the four layer calls). *)
let rewrite_request ~cfg l sql target =
  let q, t_parse = timed "bench.parse" (fun () -> Parser.parse_query sql) in
  let r, t_rewrite =
    timed "bench.rewrite" (fun () ->
        match target with
        | Cols cols -> Rewrite.rewrite_for_columns ~cfg Schema.tpch q ~target_cols:cols
        | Table t -> Rewrite.rewrite_for_table ~cfg Schema.tpch q ~target_table:t)
  in
  let (_ : Plan.t * Plan.t option), t_plan =
    timed "bench.plan" (fun () -> Rewrite.plans Schema.tpch r)
  in
  let reply, t_print =
    timed "bench.print" (fun () ->
        {
          outcome = outcome_label r.Rewrite.stats;
          pred =
            (match r.Rewrite.synthesized with
             | Some p -> Printer.string_of_pred p
             | None -> "-");
          sql =
            (match r.Rewrite.rewritten with
             | Some q' -> Printer.string_of_query q'
             | None -> "-");
        })
  in
  let st = r.Rewrite.stats in
  l.parse_s <- l.parse_s +. t_parse;
  l.rewrite_s <- l.rewrite_s +. t_rewrite;
  l.plan_s <- l.plan_s +. t_plan;
  l.print_s <- l.print_s +. t_print;
  l.gen_s <- l.gen_s +. st.Synthesize.gen_time;
  l.learn_s <- l.learn_s +. st.Synthesize.learn_time;
  l.verify_s <- l.verify_s +. st.Synthesize.verify_time;
  l.iterations <- l.iterations + st.Synthesize.iterations;
  l.samples <- l.samples + st.Synthesize.n_true + st.Synthesize.n_false;
  l.requests <- l.requests + 1;
  if Synthesize.is_valid_outcome st then l.valid <- l.valid + 1;
  if Synthesize.is_optimal_outcome st then l.optimal <- l.optimal + 1;
  (r, reply, t_parse +. t_rewrite +. t_plan +. t_print)

(* A failing request is counted, reported and answered with no rewrite. *)
let try_request ~cfg l sql target =
  match rewrite_request ~cfg l sql target with
  | r, reply, dt -> Some (r, reply, dt)
  | exception e ->
    l.errors <- l.errors + 1;
    Printf.eprintf "e2e: request failed: %s\n%!" (Printexc.to_string e);
    None

(* ------------------------------------------------------------------ *)
(* Execution and result checking                                       *)
(* ------------------------------------------------------------------ *)

(* What one query hands to the engine: the original SQL and the SQL Sia
   outputs (the rewrite when one exists, otherwise the original). *)
type exec_item = {
  orig_sql : string;
  out_sql : string;
  learned : (string * Ast.pred) option;  (** narrowed table, predicate *)
}

type exec_sample = {
  t_orig : float;
  t_out : float;
  leaf_out : float;  (** traced runs only *)
  rows_orig : int;  (** rows leaving the join-free leaves; traced runs only *)
  rows_out : int;
}

(* NULL-aware result multisets, compared without copying rows: each
   table's row indices are sorted over its columns in name order (NULL
   before any value), then the two orders are compared cell by cell. *)
let is_null mask r = match mask with Some m -> m.(r) | None -> false

let sorted_rows (t : Table.t) names =
  let cols =
    Array.map
      (fun n ->
        let i = Table.col_index t n in
        (t.Table.cols.(i), t.Table.null_masks.(i)))
      names
  in
  let cmp r s =
    let rec go c =
      if c = Array.length cols then 0
      else
        let col, mask = cols.(c) in
        let d =
          match (is_null mask r, is_null mask s) with
          | true, true -> 0
          | true, false -> -1
          | false, true -> 1
          | false, false -> Int.compare col.(r) col.(s)
        in
        if d <> 0 then d else go (c + 1)
    in
    go 0
  in
  let idx = Array.init t.Table.nrows Fun.id in
  Array.sort cmp idx;
  (cols, idx)

let same_result (a : Table.t) (b : Table.t) =
  let names (t : Table.t) =
    let n = Array.copy t.Table.col_names in
    Array.sort String.compare n;
    n
  in
  let na = names a and nb = names b in
  a.Table.nrows = b.Table.nrows
  && na = nb
  &&
  let ca, ia = sorted_rows a na and cb, ib = sorted_rows b nb in
  let same_row r s =
    Array.for_all2
      (fun (cola, ma) (colb, mb) ->
        let null_a = is_null ma r in
        null_a = is_null mb s && (null_a || cola.(r) = colb.(s)))
      ca cb
  in
  let rec rows k = k = a.Table.nrows || (same_row ia.(k) ib.(k) && rows (k + 1)) in
  rows 0

let rec has_join = function
  | Plan.Join _ -> true
  | Plan.Filter (_, p) | Plan.Project (_, p) -> has_join p
  | Plan.Scan _ -> false

(* Maximal join-free subplans: the scans with their pushed filters. *)
let rec leaves p =
  if not (has_join p) then [ p ]
  else
    match p with
    | Plan.Join (_, l, r) -> leaves l @ leaves r
    | Plan.Filter (_, s) | Plan.Project (_, s) -> leaves s
    | Plan.Scan _ -> [ p ]

(* Each leaf runs through Exec.run, so its time includes one gather. *)
let run_leaves ~tables plan =
  List.fold_left
    (fun (rows, t) leaf ->
      let res, dt = timed "bench.exec.leaf" (fun () -> Exec.run ~tables leaf) in
      (rows + res.Table.nrows, t +. dt))
    (0, 0.0) (leaves plan)

let plan_of sql = Planner.plan Schema.tpch (Parser.parse_query sql)

(* Drop the solver caches and collect, so execution never pays GC work
   for the heap the rewrites left: an engine timing must not move when
   only the solver changes. Returns the seconds spent. *)
let settle () =
  let t0 = now () in
  Solver.reset_caches ();
  Gc.full_major ();
  now () -. t0

(* Execute every item once. Items sharing an original (serve templates
   of one query) are adjacent, so the original runs once per group.
   With [check], each rewritten result is compared with the original's;
   the comparison's seconds are returned so callers can leave them out
   of the measured wall time. An item whose SQL cannot be parsed,
   planned or run counts as a mismatch. *)
let exec_round ~tables ~with_leaves ~check items =
  let mismatches = ref 0 and check_s = ref 0.0 in
  let last_orig = ref None in
  let run_orig sql =
    match !last_orig with
    | Some (s, x) when s = sql -> x
    | _ ->
      let plan = plan_of sql in
      let res, dt = timed "bench.exec" (fun () -> Exec.run ~tables plan) in
      let rows, leaf_t = if with_leaves then run_leaves ~tables plan else (0, 0.0) in
      let x = (res, dt, rows, leaf_t) in
      last_orig := Some (sql, x);
      x
  in
  let run_item it =
    let res_o, t_orig, rows_orig, leaf_o = run_orig it.orig_sql in
    if it.out_sql = it.orig_sql then
      { t_orig; t_out = t_orig; leaf_out = leaf_o; rows_orig; rows_out = rows_orig }
    else begin
      let plan = plan_of it.out_sql in
      let res, t_out = timed "bench.exec" (fun () -> Exec.run ~tables plan) in
      let rows_out, leaf_out = if with_leaves then run_leaves ~tables plan else (0, 0.0) in
      let t_check = now () in
      if check && not (same_result res_o res) then begin
        incr mismatches;
        Printf.eprintf "e2e: result mismatch (%d vs %d rows)\n  original: %s\n  rewritten: %s\n%!"
          res_o.Table.nrows res.Table.nrows it.orig_sql it.out_sql
      end;
      check_s := !check_s +. (now () -. t_check);
      { t_orig; t_out; leaf_out; rows_orig; rows_out }
    end
  in
  let samples =
    List.map
      (fun it ->
        match run_item it with
        | sample -> sample
        | exception e ->
          incr mismatches;
          Printf.eprintf "e2e: cannot run %s: %s\n%!" it.out_sql (Printexc.to_string e);
          { t_orig = 0.0; t_out = 0.0; leaf_out = 0.0; rows_orig = 0; rows_out = 0 })
      items
  in
  (Array.of_list samples, !mismatches, !check_s)

(* Per-item medians over rounds, summed into the engine metrics. *)
type exec_summary = {
  exec_orig_s : float;
  exec_out_s : float;
  speedup : float;  (** geomean orig/out over rewritten items *)
  leaf_out_s : float;
  join_out_s : float;
  rows_orig : int;
  rows_out : int;
}

let summarize_exec items (rounds : exec_sample array list) =
  let items = Array.of_list items in
  let med f i = median (List.map (fun (r : exec_sample array) -> f r.(i)) rounds) in
  let per_item f = List.init (Array.length items) (med f) in
  let t_orig = per_item (fun s -> s.t_orig) and t_out = per_item (fun s -> s.t_out) in
  let speedups =
    List.concat
      (List.mapi
         (fun i (o, w) -> if items.(i).out_sql = items.(i).orig_sql then [] else [ ratio o w ])
         (List.combine t_orig t_out))
  in
  let exec_out_s = sum t_out in
  let leaf_out_s = sum (per_item (fun s -> s.leaf_out)) in
  let first = match rounds with r :: _ -> r | [] -> [||] in
  {
    exec_orig_s = sum t_orig;
    exec_out_s;
    speedup = geomean speedups;
    leaf_out_s;
    join_out_s = Float.max 0.0 (exec_out_s -. leaf_out_s);
    rows_orig = Array.fold_left (fun a (s : exec_sample) -> a + s.rows_orig) 0 first;
    rows_out = Array.fold_left (fun a (s : exec_sample) -> a + s.rows_out) 0 first;
  }

(* Mean selectivity of the learned predicates on the tables they narrow. *)
let learned_selectivity ~tables items =
  let sels =
    List.filter_map
      (fun it ->
        match it.learned with
        | Some (t, p) when it.out_sql <> it.orig_sql ->
          Option.map (fun tbl -> Eval.selectivity tbl p) (List.assoc_opt t tables)
        | _ -> None)
      items
  in
  (ratio (sum sels) (float_of_int (List.length sels)), List.length sels)

(* ------------------------------------------------------------------ *)
(* Traces                                                              *)
(* ------------------------------------------------------------------ *)

let reported_spans =
  [
    "bench.parse";
    "bench.rewrite";
    "bench.plan";
    "bench.print";
    "bench.exec";
    "bench.exec.leaf";
    "synthesize";
    "smt.solve";
    "theory.check";
  ]

let attributed name =
  String.starts_with ~prefix:"bench." name || List.mem name reported_spans

(* Self time per span over the buffered trace: a span's duration minus
   the time its nearest attributed descendants cover. Spans outside the
   attributed set (cegis.iteration, sat.search, ...) are transparent and
   their time stays with the nearest attributed ancestor. Returns the
   self times and the time covered by attributed spans. *)
let self_times () =
  let tbl = Hashtbl.create 16 in
  let covered = ref 0.0 in
  let stack = ref [] in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.tid = 0 then
        match (ev.Trace.ph, !stack) with
        | Trace.Begin, st -> stack := (ev.Trace.name, ev.Trace.ts, ref 0.0) :: st
        | Trace.End, (name, ts0, inner) :: rest ->
          stack := rest;
          let up =
            if attributed name then begin
              let d = ev.Trace.ts -. ts0 in
              let prev = Option.value (Hashtbl.find_opt tbl name) ~default:0.0 in
              Hashtbl.replace tbl name (prev +. d -. !inner);
              d
            end
            else !inner
          in
          (match rest with
           | (_, _, parent) :: _ -> parent := !parent +. up
           | [] -> covered := !covered +. up)
        | _ -> ())
    (Trace.events ());
  let secs us = us /. 1e6 in
  ( List.map
      (fun n -> (n, secs (Option.value (Hashtbl.find_opt tbl n) ~default:0.0)))
      reported_spans,
    secs !covered )

let write_trace file =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Trace.write_chrome oc);
  Printf.printf "trace written to %s (%d events)\n" file (List.length (Trace.events ()))

(* ------------------------------------------------------------------ *)
(* Metrics shared by every workload                                     *)
(* ------------------------------------------------------------------ *)

let m name unit value = { name; unit; value }
let mi name value = m name "count" (float_of_int value)

(* [pct q] is the q-th latency percentile in seconds. *)
let rewrite_metrics ~pct ~per_s =
  [
    m "rewrite_p50_ms" "ms" (1000.0 *. pct 0.50);
    m "rewrite_p90_ms" "ms" (1000.0 *. pct 0.90);
    m "rewrites_per_s" "1/s" per_s;
  ]

let outcome_metrics (l : layers) =
  [
    m "valid_rate" "ratio" (iratio l.valid l.requests);
    m "optimal_rate" "ratio" (iratio l.optimal l.requests);
  ]

let layer_metrics (l : layers) (sv : Solver.stats) =
  [
    m "sql.parse_s" "s" l.parse_s;
    m "sql.print_s" "s" l.print_s;
    m "relalg.plan_s" "s" l.plan_s;
    m "sia.gen_s" "s" l.gen_s;
    m "sia.learn_s" "s" l.learn_s;
    m "sia.verify_s" "s" l.verify_s;
    m "sia.other_s" "s"
      (Float.max 0.0 (l.rewrite_s -. l.gen_s -. l.learn_s -. l.verify_s));
    mi "sia.iterations" l.iterations;
    mi "sia.samples" l.samples;
    mi "smt.queries" sv.Solver.queries;
    m "smt.memo_hit_rate" "ratio" (iratio sv.Solver.cache_hits sv.Solver.queries);
    mi "smt.pool_hits" sv.Solver.pool_hits;
    mi "smt.fallbacks" sv.Solver.gen_fallbacks;
    mi "smt.cegqi_instantiations" sv.Solver.cegqi_instantiations;
    mi "smt.theory_rounds" sv.Solver.theory_rounds;
    m "smt.reused_round_rate" "ratio"
      (iratio sv.Solver.reused_rounds sv.Solver.theory_rounds);
    mi "smt.pivots" sv.Solver.pivots;
    mi "smt.conflicts" sv.Solver.conflicts;
    m "smt.shared_hit_rate" "ratio"
      (iratio sv.Solver.shared_hits (sv.Solver.shared_hits + sv.Solver.shared_misses));
    m "smt.search_s" "s" sv.Solver.search_time;
    m "smt.theory_s" "s" sv.Solver.theory_time;
  ]

let engine_metrics (x : exec_summary) ~selectivity ~rewritten =
  [
    m "engine.exec_orig_s" "s" x.exec_orig_s;
    m "engine.speedup_geomean" "x" x.speedup;
    m "engine.leaf_out_s" "s" x.leaf_out_s;
    m "engine.join_out_s" "s" x.join_out_s;
    mi "engine.join_rows_orig" x.rows_orig;
    mi "engine.join_rows_out" x.rows_out;
    m "engine.learned_selectivity" "ratio" selectivity;
    mi "engine.rewritten_queries" rewritten;
  ]

let trace_metrics ~overhead ~wall =
  let self, covered = self_times () in
  m "trace.overhead" "ratio" overhead
  :: m "trace.coverage" "ratio" (ratio covered wall)
  :: List.map (fun (n, s) -> m ("trace.self_s." ^ n) "s" s) self

let setup_metrics setups =
  let total = median (List.map fst setups) and data = median (List.map snd setups) in
  ( m "setup_s" "s" total,
    [ m "setup.datagen_s" "s" data; m "setup.other_s" "s" (Float.max 0.0 (total -. data)) ] )

(* Setups per run: setup_s is their median, so one slow setup cannot
   move it. *)
let n_setups opts = if opts.smoke then 1 else 5

(* Run a setup [n_setups] times from cold and keep the last state. *)
let repeat_setup opts f =
  let rec go i acc =
    Solver.reset_caches ();
    Gc.compact ();
    let t0 = now () in
    let state, t_data = f () in
    let acc = (now () -. t0, t_data) :: acc in
    if i >= n_setups opts then (state, acc) else go (i + 1) acc
  in
  go 1 []

let cfg () =
  { Config.default with Config.time_budget = None; jobs = 1; trace = false }

(* Traced runs alternate untraced and traced repetitions, so the same
   work is measured both ways. *)
let traced_rep opts i = opts.trace_file <> None && i mod 2 = 1

let with_trace on f =
  if not on then f ()
  else begin
    Trace.reset ();
    Trace.enable ();
    Fun.protect ~finally:Trace.disable f
  end

(* Repeat [rep] until the timed phase has lasted [opts.seconds]: at
   least three times, so every timing can be a median that one slow
   repetition does not move (once under --smoke), and in a traced run at
   least once each way. [rep] returns its result and the seconds it
   spent checking, which are left out of the repetition's wall time. *)
let timed_phase opts rep =
  let t0 = now () in
  let rec go i acc =
    let traced = traced_rep opts i in
    let t_rep = now () in
    let r, unmeasured = with_trace traced (fun () -> rep i) in
    let acc = (traced, now () -. t_rep -. unmeasured, r) :: acc in
    let min_reps = if opts.trace_file <> None then 2 else if opts.smoke then 1 else 3 in
    if i + 1 >= min_reps && now () -. t0 >= opts.seconds then List.rev acc
    else go (i + 1) acc
  in
  go 0 []

let overhead reps per_unit =
  let wall traced =
    median (List.filter_map (fun (t, w, r) -> if t = traced then Some (per_unit w r) else None) reps)
  in
  ratio (wall true) (wall false) -. 1.0

(* Wall time of the last traced repetition: the one whose events are
   still buffered. *)
let last_traced_wall reps =
  List.fold_left (fun acc (t, w, _) -> if t then w else acc) 0.0 reps

(* Per-repetition layer metrics merged into one row: times are the
   median over repetitions, counts and rates come from the first (they
   repeat exactly). *)
let merge_reps = function
  | [] -> []
  | first :: _ as per_rep ->
    List.mapi
      (fun i (x : metric) ->
        if x.unit <> "s" then x
        else { x with value = median (List.map (fun ms -> (List.nth ms i).value) per_rep) })
      first

(* ------------------------------------------------------------------ *)
(* Batch workloads: paper-join, tpch-suite, exec-large                  *)
(* ------------------------------------------------------------------ *)

type query = {
  sql : string;
  targets : target list;  (** one request each; the last one's SQL runs *)
  table : string;  (** the table a learned predicate narrows *)
}

type batch = { sf : float; make_queries : unit -> query list }

let paper_queries ~seed ~count ~targets =
  List.map
    (fun (gq : Qgen.gen_query) ->
      { sql = Printer.string_of_query gq.Qgen.query; targets; table = "lineitem" })
    (Qgen.generate ~seed ~count ())

let all_subsets = Qgen.column_subsets 1 @ Qgen.column_subsets 2 @ Qgen.column_subsets 3

let batch_shape opts = function
  | "paper-join" ->
    {
      sf = (if opts.smoke then 0.002 else 0.05);
      make_queries =
        (fun () ->
          paper_queries ~seed:opts.query_seed
            ~count:(if opts.smoke then 2 else 16)
            ~targets:
              (List.map (fun s -> Cols s)
                 (if opts.smoke then Qgen.column_subsets 1 else all_subsets)));
    }
  | "tpch-suite" ->
    {
      sf = (if opts.smoke then 0.002 else 0.05);
      make_queries =
        (fun () ->
          (* The first three of nine constant variants per template: the
             nine-variant stream is the suite's committed one, and three
             variants keep a repetition near five seconds. *)
          let qs =
            List.filter
              (fun (s : Qgen.suite_query) -> s.Qgen.sid mod 9 < 3)
              (Qgen.suite ~seed:opts.query_seed ~variants:9 ())
          in
          let qs = if opts.smoke then List.filteri (fun i _ -> i < 2) qs else qs in
          List.map
            (fun (s : Qgen.suite_query) ->
              {
                sql = Printer.string_of_query s.Qgen.squery;
                targets = [ Table s.Qgen.starget ];
                table = s.Qgen.starget;
              })
            qs);
    }
  | _ ->
    {
      sf = (if opts.smoke then 0.002 else 0.1);
      make_queries =
        (fun () ->
          paper_queries ~seed:opts.query_seed
            ~count:(if opts.smoke then 2 else 12)
            ~targets:[ Table "lineitem" ]);
    }

type pass = {
  lat : float list;
  layers : layers;
  solver : Solver.stats;
  items : exec_item list;
  execs : exec_sample array;
  mismatches : int;
}

(* One repetition: every request from cold solver caches, then every
   query's original and output SQL executed once. *)
let batch_pass ~tables ~with_leaves ~check queries =
  Solver.reset_caches ();
  let base = Solver.stats () in
  let l = new_layers () in
  let lat = ref [] in
  let cfg = cfg () in
  let items =
    List.map
      (fun q ->
        let last =
          List.fold_left
            (fun _ target ->
              let t0 = now () in
              match try_request ~cfg l q.sql target with
              | Some (r, reply, dt) ->
                lat := dt :: !lat;
                Some (r, reply)
              | None ->
                lat := (now () -. t0) :: !lat;
                None)
            None q.targets
        in
        match last with
        | Some (r, reply) when reply.sql <> "-" ->
          {
            orig_sql = q.sql;
            out_sql = reply.sql;
            learned = Option.map (fun p -> (q.table, p)) r.Rewrite.synthesized;
          }
        | _ -> { orig_sql = q.sql; out_sql = q.sql; learned = None })
      queries
  in
  let solver = Solver.stats_since base in
  let settle_s = settle () in
  let execs, mismatches, check_s = exec_round ~tables ~with_leaves ~check items in
  ({ lat = List.rev !lat; layers = l; solver; items; execs; mismatches }, settle_s +. check_s)

let run_batch opts name =
  let shape = batch_shape opts name in
  let (tables, queries), setups =
    repeat_setup opts (fun () ->
        let tables, t_data =
          let t0 = now () in
          let t = Tpch.generate_all ~sf:shape.sf ~seed:opts.seed () in
          (t, now () -. t0)
        in
        ((tables, shape.make_queries ()), t_data))
  in
  let traced = opts.trace_file <> None in
  let reps =
    timed_phase opts (fun i ->
        batch_pass ~tables ~with_leaves:traced ~check:(i = 0) queries)
  in
  let passes = List.map (fun (_, _, p) -> p) reps in
  let untraced = List.filter_map (fun (t, _, p) -> if t then None else Some p) reps in
  let first = List.hd passes in
  (* Outputs must repeat exactly: same SQL from every repetition. *)
  let out_sqls p = List.map (fun it -> it.out_sql) p.items in
  let drift = List.length (List.filter (fun p -> out_sqls p <> out_sqls first) passes) in
  if drift > 0 then Printf.eprintf "e2e: %d repetitions produced different SQL\n%!" drift;
  let errors = List.fold_left (fun a p -> a + p.layers.errors) 0 passes in
  let mismatches = List.fold_left (fun a p -> a + p.mismatches) 0 passes in
  (* Each request's latency is its median over the repetitions. *)
  let lat =
    List.map median
      (List.fold_right (List.map2 (fun x acc -> x :: acc)) (List.map (fun p -> p.lat) untraced)
         (List.map (fun _ -> []) first.lat))
  in
  let exec = summarize_exec first.items (List.map (fun p -> p.execs) untraced) in
  let setup_s, setup_layers = setup_metrics setups in
  let e2e =
    (setup_s
     :: rewrite_metrics ~pct:(window_percentile lat)
          ~per_s:(ratio (float_of_int (List.length lat)) (sum lat)))
    @ [ m "exec_out_s" "s" exec.exec_out_s ]
    @ outcome_metrics first.layers
  in
  let layer =
    if not traced then []
    else begin
      let selectivity, rewritten = learned_selectivity ~tables first.items in
      merge_reps (List.map (fun p -> layer_metrics p.layers p.solver) untraced)
      (* No daemon and no cache here: every request is a miss. *)
      @ [ m "sia.uncached_p50_ms" "ms" (1000.0 *. median lat); m "serve.hit_rate" "ratio" 0.0;
          mi "serve.daemon_cache_misses" 0; mi "serve.daemon_cache_insertions" 0;
          mi "serve.daemon_solver_queries" 0 ]
      @ engine_metrics exec ~selectivity ~rewritten
      @ setup_layers
      (* Exactly repeatable for one seed, but any change of input moves
         where the GC's cycles end, so it is reported, not gated. *)
      @ [ m "process.peak_rss_mb" "MB" (peak_rss_mb ()) ]
      @ trace_metrics ~overhead:(overhead reps (fun w _ -> w)) ~wall:(last_traced_wall reps)
    end
  in
  {
    correct = errors = 0 && mismatches = 0 && drift = 0;
    attempted = List.fold_left (fun a p -> a + p.layers.requests + p.layers.errors) 0 passes;
    failed = errors + mismatches + drift;
    e2e;
    layer;
  }

(* ------------------------------------------------------------------ *)
(* serve-zipf                                                          *)
(* ------------------------------------------------------------------ *)

type template = { tsql : string; cols : string list }

(* One replay connection: at most one request in flight (closed loop). *)
type conn = {
  fd : Unix.file_descr;
  dec : Protocol.decoder;
  mutable req : int;  (** index into the replay plan, -1 when idle *)
  mutable sent_at : float;
}

(* Per request: latency, whether the cache answered, and whether the
   daemon synthesized an answer (a miss that did not fail). *)
type replay = { lat : float array; cached : bool array; solved : bool array; errors : int }

let daemon_stats path =
  let c = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.request c Protocol.Stats with
  | Protocol.Stats_reply s -> Json.parse s
  | _ -> Json.Obj []

let stats_delta before after name =
  let get j = Option.value (Json.num (Json.member name j)) ~default:0.0 in
  int_of_float (get after -. get before)

let rewrite_msg t = Protocol.Rewrite { target = Protocol.Cols t.cols; sql = t.tsql }

let reply_of (r : Protocol.reply) =
  { outcome = r.Protocol.outcome; pred = r.Protocol.pred; sql = r.Protocol.sql }

(* Closed loop over two connections: each sends its next request only
   when its previous reply has arrived. Every reply is checked against
   the first answer seen for its template. *)
let replay path templates plan ~note =
  let conns =
    Array.init 2 (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        { fd; dec = Protocol.decoder (); req = -1; sent_at = 0.0 })
  in
  Fun.protect ~finally:(fun () ->
      Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns)
  @@ fun () ->
  let n = Array.length plan in
  let lat = Array.make n 0.0 and cached = Array.make n false and solved = Array.make n false in
  let next = ref 0 and finished = ref 0 and errors = ref 0 in
  let buf = Bytes.create 65536 in
  let receive c =
    (match Unix.read c.fd buf 0 (Bytes.length buf) with
     | 0 -> failwith "daemon closed the connection"
     | r -> Protocol.feed c.dec buf 0 r
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    match Protocol.next c.dec with
    | `Awaiting -> ()
    | `Frame (tag, payload) ->
      let k = c.req in
      lat.(k) <- now () -. c.sent_at;
      (match Protocol.decode_response tag payload with
       | Ok (Protocol.Rewritten r) ->
         cached.(k) <- r.Protocol.cached;
         solved.(k) <-
           (not r.Protocol.cached)
           && not (String.starts_with ~prefix:"failed" r.Protocol.outcome);
         note plan.(k) (reply_of r)
       | Ok (Protocol.Error_reply e) ->
         incr errors;
         Printf.eprintf "e2e: error reply: %s\n%!" e
       | Ok _ | Error _ ->
         incr errors;
         Printf.eprintf "e2e: undecodable reply\n%!");
      c.req <- -1;
      incr finished
  in
  while !finished < n do
    Trace.span "bench.serve.send" (fun () ->
        Array.iter
          (fun c ->
            if c.req < 0 && !next < n then begin
              c.req <- !next;
              incr next;
              c.sent_at <- now ();
              let tag, payload = Protocol.encode_request (rewrite_msg templates.(plan.(c.req))) in
              Protocol.write_frame c.fd tag payload
            end)
          conns);
    let busy =
      Array.fold_left (fun acc c -> if c.req >= 0 then c.fd :: acc else acc) [] conns
    in
    match Trace.span "bench.serve.wait" (fun () -> Unix.select busy [] [] 120.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> failwith "daemon stalled (no reply in 120 s)"
    | ready, _, _ ->
      Trace.span "bench.serve.recv" (fun () ->
          Array.iter (fun c -> if List.mem c.fd ready then receive c) conns)
  done;
  { lat; cached; solved; errors = !errors }

let run_serve opts =
  let n_hot, n_cold, requests, cold_every, check_sf =
    if opts.smoke then (2, 1, 500, 50, 0.002) else (12, 8, 20_000, 1000, 0.01)
  in
  let subsets = Qgen.column_subsets 1 @ Qgen.column_subsets 2 in
  let per_query = List.length subsets in
  let n_hot_t = n_hot * per_query and n_cold_t = n_cold * per_query in
  let cfg = cfg () in
  let templates_of qs =
    Array.of_list
      (List.concat_map
         (fun (gq : Qgen.gen_query) ->
           let tsql = Printer.string_of_query gq.Qgen.query in
           List.map (fun cols -> { tsql; cols }) subsets)
         qs)
  in
  (* The first answer per template, in the order the daemon first gave
     them; any later answer that differs is an error. *)
  let first = Array.make (n_hot_t + n_cold_t) None in
  let order = ref [] and inconsistent = ref 0 in
  let note i reply =
    match first.(i) with
    | None ->
      first.(i) <- Some reply;
      order := i :: !order
    | Some r when r = reply -> ()
    | Some r ->
      incr inconsistent;
      Printf.eprintf "e2e: template %d answered %S, earlier %S\n%!" i reply.pred r.pred
  in
  (* Warm-up: every hot template once, serially, from a cold daemon. *)
  let warm_up path templates =
    let c = Client.connect path in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    Array.init n_hot_t (fun i ->
        match Client.request ~timeout:120. c (rewrite_msg templates.(i)) with
        | Protocol.Rewritten r -> reply_of r
        | Protocol.Error_reply e -> failwith ("warm-up error reply: " ^ e)
        | _ -> failwith "warm-up: unexpected reply kind")
  in
  (* Zipf(1/rank) over a fixed ranking of the hot set; the seed draws
     the request sequence. Templates that failed in the warm-up keep 1/20
     of their weight: a client stops asking for rewrites that keep
     failing, and failures are never cached. Every [cold_every]-th
     request goes to the never-warmed cold tail, round-robin, so every
     seed meets the same misses. *)
  let ranks = Array.init n_hot_t Fun.id in
  let rank_rng = Random.State.make [| 0x21f |] in
  for i = n_hot_t - 1 downto 1 do
    let j = Random.State.int rank_rng (i + 1) in
    let tmp = ranks.(i) in
    ranks.(i) <- ranks.(j);
    ranks.(j) <- tmp
  done;
  let cold_next = ref 0 in
  let make_plan (warm : reply array) rep =
    let rng = Random.State.make [| opts.seed; 0x5e7; rep |] in
    let cum = Array.make n_hot_t 0.0 and total = ref 0.0 in
    Array.iteri
      (fun i t ->
        let failed = String.starts_with ~prefix:"failed" warm.(t).outcome in
        total := !total +. ((if failed then 0.05 else 1.0) /. float_of_int (i + 1));
        cum.(i) <- !total)
      ranks;
    Array.init requests (fun k ->
        if (k + 1) mod cold_every = 0 then begin
          incr cold_next;
          n_hot_t + ((!cold_next - 1) mod n_cold_t)
        end
        else
          let x = Random.State.float rng !total in
          let rec bs lo hi =
            if lo >= hi then lo
            else
              let mid = (lo + hi) / 2 in
              if cum.(mid) < x then bs (mid + 1) hi else bs lo mid
          in
          ranks.(bs 0 (n_hot_t - 1)))
  in
  (* Setup, [n_setups] times from cold: check data, query generation,
     daemon start and warm-up. The last daemon serves the timed phase. *)
  let setups = ref [] and last = ref None in
  for i = 1 to n_setups opts do
    Solver.reset_caches ();
    Gc.compact ();
    let t0 = now () in
    let tables = Tpch.generate_all ~sf:check_sf ~seed:opts.seed () in
    let t_data = now () -. t0 in
    let templates =
      templates_of (Qgen.generate ~seed:opts.query_seed ~count:(n_hot + n_cold) ())
    in
    Client.with_daemon ~cfg (fun path ->
        let warm = warm_up path templates in
        setups := (now () -. t0, t_data) :: !setups;
        if i = n_setups opts then begin
          Array.iteri note warm;
          let before = daemon_stats path in
          let after_first = ref before in
          let reps =
            timed_phase opts (fun rep ->
                let r = replay path templates (make_plan warm rep) ~note in
                if rep = 0 then after_first := daemon_stats path;
                (r, 0.0))
          in
          last := Some (tables, templates, reps, before, !after_first)
        end)
  done;
  let tables, templates, reps, stats_before, stats_after =
    match !last with Some x -> x | None -> assert false
  in
  let traced = opts.trace_file <> None in
  let untraced = List.filter_map (fun (t, w, r) -> if t then None else Some (w, r)) reps in
  (* Latency percentiles and throughput per replay, then the median over
     replays. *)
  let per_replay f = median (List.map f untraced) in
  let solved =
    List.concat_map
      (fun (_, r) -> List.filteri (fun k _ -> r.solved.(k)) (Array.to_list r.lat))
      untraced
  in
  let hits =
    List.fold_left
      (fun a (_, r) -> Array.fold_left (fun a c -> if c then a + 1 else a) a r.cached)
      0 untraced
  in
  let errors = List.fold_left (fun a (_, _, r) -> a + r.errors) 0 reps in
  (* Check: every answered SQL runs against its original on generated
     data (median of three rounds); then every template the daemon
     answered is rewritten in process, from cold caches and in the order
     the daemon first saw it, and must match byte for byte. In a traced
     run this phase is traced too, appended to the last traced replay. *)
  let t_check = now () in
  if traced then Trace.enable ();
  let served = List.rev !order in
  let items =
    List.map
      (fun i ->
        let t = templates.(i) in
        match first.(i) with
        | Some r when r.sql <> "-" ->
          {
            orig_sql = t.tsql;
            out_sql = r.sql;
            learned =
              (match Parser.parse_predicate r.pred with
               | p -> Some ("lineitem", p)
               | exception Parser.Error _ -> None);
          }
        | _ -> { orig_sql = t.tsql; out_sql = t.tsql; learned = None })
      served
  in
  let rounds =
    List.init 3 (fun k ->
        let settle_s = settle () in
        let x, mm, check_s = exec_round ~tables ~with_leaves:traced ~check:(k = 0) items in
        (x, mm, settle_s +. check_s))
  in
  Solver.reset_caches ();
  let base = Solver.stats () in
  let l = new_layers () in
  let reference_mismatches = ref 0 in
  List.iter
    (fun i ->
      let t = templates.(i) in
      match (try_request ~cfg l t.tsql (Cols t.cols), first.(i)) with
      | Some (_, reply, _), Some r when reply <> r ->
        incr reference_mismatches;
        Printf.eprintf "e2e: daemon answered %S, in process %S\n  for %s\n%!" r.pred
          reply.pred t.tsql
      | _ -> ())
    served;
  let solver = Solver.stats_since base in
  Trace.disable ();
  let check_wall = now () -. t_check -. sum (List.map (fun (_, _, c) -> c) rounds) in
  let mismatches = List.fold_left (fun a (_, mm, _) -> a + mm) 0 rounds in
  let exec = summarize_exec items (List.map (fun (x, _, _) -> x) rounds) in
  let setup_s, setup_layers = setup_metrics !setups in
  let n_req = List.fold_left (fun a (_, r) -> a + Array.length r.lat) 0 untraced in
  let e2e =
    (setup_s
     :: rewrite_metrics
          ~pct:(fun q -> per_replay (fun (_, r) -> percentile (Array.to_list r.lat) q))
          ~per_s:(per_replay (fun (w, r) -> ratio (float_of_int (Array.length r.lat)) w)))
    @ [ m "exec_out_s" "s" exec.exec_out_s ]
    @ outcome_metrics l
  in
  let layer =
    if not traced then []
    else begin
      let delta = stats_delta stats_before stats_after in
      let selectivity, rewritten = learned_selectivity ~tables items in
      layer_metrics l solver
      @ [ m "sia.uncached_p50_ms" "ms" (1000.0 *. median solved);
          m "serve.hit_rate" "ratio" (iratio hits n_req);
          mi "serve.daemon_cache_misses" (delta "cache_misses");
          mi "serve.daemon_cache_insertions" (delta "cache_insertions");
          mi "serve.daemon_solver_queries" (delta "solver_queries") ]
      @ engine_metrics exec ~selectivity ~rewritten
      @ setup_layers
      (* Exactly repeatable for one seed, but any change of input moves
         where the GC's cycles end, so it is reported, not gated. *)
      @ [ m "process.peak_rss_mb" "MB" (peak_rss_mb ()) ]
      @ trace_metrics
          ~overhead:(overhead reps (fun _ r -> median (Array.to_list r.lat)))
          ~wall:(last_traced_wall reps +. check_wall)
    end
  in
  let failed = errors + !inconsistent + !reference_mismatches + mismatches + l.errors in
  {
    correct = failed = 0;
    attempted = List.fold_left (fun a (_, _, r) -> a + Array.length r.lat) 0 reps;
    failed;
    e2e;
    layer;
  }

let run opts name =
  let r = if name = "serve-zipf" then run_serve opts else run_batch opts name in
  Option.iter write_trace opts.trace_file;
  r
