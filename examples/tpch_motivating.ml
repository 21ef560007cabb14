(* The paper's section 2 walkthrough, end to end: synthesize the three
   additional predicates of Q2, execute both queries on generated TPC-H
   data, and verify the speedup and result equivalence.

   Run with:  dune exec examples/tpch_motivating.exe
   (set SIA_EXAMPLE_SF to change the data scale; default 0.05) *)

module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
module Planner = Sia_relalg.Planner
module Tpch = Sia_engine.Tpch
module Exec = Sia_engine.Exec
module Eval = Sia_engine.Eval
module Table = Sia_engine.Table
open Sia_core

let () =
  let sf =
    match Sys.getenv_opt "SIA_EXAMPLE_SF" with
    | Some s -> float_of_string s
    | None -> 0.05
  in
  let q1 =
    Parser.parse_query
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
       AND l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01' \
       AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10"
  in
  Printf.printf "Q1: %s\n\n" (Printer.string_of_query q1);

  let result = Rewrite.rewrite_for_table Schema.tpch q1 ~target_table:"lineitem" in
  let q2 = Option.get result.Rewrite.rewritten in
  let p1 = Option.get result.Rewrite.synthesized in
  Printf.printf "Sia synthesized: %s\n" (Printer.string_of_pred p1);
  Printf.printf "Q2: %s\n\n" (Printer.string_of_query q2);

  Printf.printf "generating TPC-H data at scale factor %.2f ...\n%!" sf;
  let tables = Tpch.generate_all ~sf () in
  let li = List.assoc "lineitem" tables and ord = List.assoc "orders" tables in
  Printf.printf "lineitem: %d rows, orders: %d rows\n\n" li.Table.nrows ord.Table.nrows;

  let p1_plan = Planner.plan Schema.tpch q1 in
  let p2_plan = Planner.plan Schema.tpch q2 in
  let out1, t1 = Exec.time (fun () -> Exec.run ~tables p1_plan) in
  let out2, t2 = Exec.time (fun () -> Exec.run ~tables p2_plan) in
  Printf.printf "P1 (join, then filter):        %7d rows  %.3f s\n" out1.Table.nrows t1;
  Printf.printf "P2 (filter lineitem, then join): %5d rows  %.3f s\n" out2.Table.nrows t2;
  Printf.printf "speedup: %.2fx, semantics preserved: %b\n" (t1 /. t2)
    (Table.equal_multiset out1 out2);
  Printf.printf "synthesized predicate selectivity on lineitem: %.3f\n"
    (Eval.selectivity li p1)
