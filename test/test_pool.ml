(* The fork-based worker pool (lib/pool) and its headline guarantee: a
   parallel synthesis batch emits exactly the output of the sequential
   one, in the same order. The pool unit tests exercise the framing
   protocol (submission-order reassembly, oversized payloads, worker
   death, task exceptions); the QCheck property runs real qgen workloads
   through [Rewrite.rewrite_all] at jobs=4 and jobs=1 and compares the
   printed rewrites verbatim. *)

module Pool = Sia_pool.Pool
module Ast = Sia_sql.Ast
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
module Qgen = Sia_workload.Qgen
open Sia_core

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  let items = List.init 20 (fun i -> i) in
  let results, summary = Pool.map ~jobs:3 (fun x -> x * x) items in
  Alcotest.(check (list int)) "results in submission order"
    (List.map (fun x -> x * x) items)
    results;
  Alcotest.(check int) "three workers" 3 summary.Pool.jobs;
  Alcotest.(check int) "all tasks accounted" 20
    (List.fold_left ( + ) 0 summary.Pool.per_worker_tasks);
  Alcotest.(check int) "wall per worker" 3 (List.length summary.Pool.per_worker_wall)

let test_jobs_clamped () =
  let results, summary = Pool.map ~jobs:8 (fun x -> x + 1) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "results" [ 2; 3; 4 ] results;
  Alcotest.(check int) "jobs clamped to item count" 3 summary.Pool.jobs

let test_empty () =
  let results, summary = Pool.map ~jobs:4 (fun x -> x) [] in
  Alcotest.(check (list int)) "no results" [] results;
  Alcotest.(check int) "no workers" 0 summary.Pool.jobs

let test_custom_shard () =
  (* Everything on one bucket: one worker does all the work, yet results
     still come back for every submission index. *)
  let items = List.init 10 (fun i -> i) in
  let results, summary = Pool.map ~jobs:4 ~shard:(fun _ _ -> 0) (fun x -> -x) items in
  Alcotest.(check (list int)) "results" (List.map (fun x -> -x) items) results;
  Alcotest.(check (list int)) "one worker took all tasks" [ 10; 0; 0; 0 ]
    summary.Pool.per_worker_tasks

let test_large_payload () =
  (* Each result far exceeds the pipe buffer (64 KiB), so frames arrive
     in many chunks and must be reassembled. *)
  let items = [ 'a'; 'b'; 'c'; 'd' ] in
  let results, _ = Pool.map ~jobs:2 (fun ch -> String.make 300_000 ch) items in
  List.iter2
    (fun ch s ->
      Alcotest.(check int) "length" 300_000 (String.length s);
      Alcotest.(check char) "content" ch s.[0];
      Alcotest.(check char) "content end" ch s.[String.length s - 1])
    items results

let test_epilogue_and_init () =
  (* Worker-local state: init plants a value, tasks read it, the epilogue
     ships a worker-local summary back. *)
  let tag = ref "unset" in
  let counter = ref 0 in
  let results, summary =
    Pool.map ~jobs:2
      ~init:(fun () -> tag := "worker")
      ~epilogue:(fun () -> !counter)
      (fun x ->
        incr counter;
        Printf.sprintf "%s-%d" !tag x)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check (list string)) "init ran in each worker"
    [ "worker-1"; "worker-2"; "worker-3"; "worker-4"; "worker-5" ]
    results;
  Alcotest.(check int) "one epilogue per worker" 2 (List.length summary.Pool.epilogues);
  Alcotest.(check int) "epilogues count worker-local work" 5
    (List.fold_left ( + ) 0 summary.Pool.epilogues);
  (* Nothing leaked back into the parent: worker side effects die with
     the worker, only the epilogue survives. *)
  Alcotest.(check string) "parent state untouched" "unset" !tag;
  Alcotest.(check int) "parent counter untouched" 0 !counter

let test_task_exception () =
  match
    Pool.map ~jobs:2
      (fun x -> if x = 5 then failwith "boom" else x)
      [ 1; 2; 3; 4; 5; 6 ]
  with
  | _ -> Alcotest.fail "expected Worker_error"
  | exception Pool.Worker_error msg ->
    let has_sub s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "mentions the failing task" true (has_sub msg "task 4");
    Alcotest.(check bool) "forwards the exception text" true (has_sub msg "boom")

let test_worker_death () =
  match
    Pool.map ~jobs:2 (fun x -> if x = 2 then Unix._exit 3 else x) [ 1; 2; 3; 4 ]
  with
  | _ -> Alcotest.fail "expected Worker_error"
  | exception Pool.Worker_error msg ->
    let has_sub s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "reports abnormal exit" true (has_sub msg "code 3")

(* ------------------------------------------------------------------ *)
(* Differential property: parallel == sequential                       *)
(* ------------------------------------------------------------------ *)

(* Random qgen workloads through the full rewrite pipeline at jobs=4 and
   jobs=1: the rewritten-query strings must match verbatim, and so must
   every attempt's valid/optimal classification. The parallel run goes
   first so its workers cannot inherit a model pool warmed by the
   sequential run — both start from the same parent state. *)
let prop_differential =
  QCheck.Test.make ~name:"jobs=4 output identical to jobs=1" ~count:2
    QCheck.(int_range 0 999)
    (fun seed ->
      let queries = Qgen.generate ~seed ~count:2 () in
      let subsets = Qgen.column_subsets 1 in
      let tasks =
        List.concat_map
          (fun (gq : Qgen.gen_query) ->
            List.map (fun s -> (gq.Qgen.query, s)) subsets)
          queries
      in
      (* No wall-clock budget: a timeout observed under fork contention
         in one run but not the other would be genuine nondeterminism. *)
      let cfg =
        {
          Config.default with
          Config.max_iterations = 8;
          Config.time_budget = None;
        }
      in
      let par = Rewrite.rewrite_all ~cfg:{ cfg with Config.jobs = 4 } Schema.tpch tasks in
      let seq = Rewrite.rewrite_all ~cfg:{ cfg with Config.jobs = 1 } Schema.tpch tasks in
      let render r =
        match r.Rewrite.rewritten with
        | Some q -> Printer.string_of_query q
        | None -> "-"
      in
      let flags l =
        List.map
          (fun r ->
            ( Synthesize.is_valid_outcome r.Rewrite.stats,
              Synthesize.is_optimal_outcome r.Rewrite.stats ))
          l
      in
      List.map render par = List.map render seq && flags par = flags seq)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "submission order" `Quick test_map_order;
          Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
          Alcotest.test_case "empty input" `Quick test_empty;
          Alcotest.test_case "custom shard" `Quick test_custom_shard;
          Alcotest.test_case "large payloads" `Quick test_large_payload;
          Alcotest.test_case "epilogue and init" `Quick test_epilogue_and_init;
          Alcotest.test_case "task exception" `Quick test_task_exception;
          Alcotest.test_case "worker death" `Quick test_worker_death;
        ] );
      ("differential", qsuite [ prop_differential ]);
    ]
