(* Sweep a batch of generated benchmark queries (the section 6.3 workload)
   through Sia, rewrite the successful ones, and measure the speedup on
   generated TPC-H data — a miniature of the paper's Fig 9 experiment.

   Run with:  dune exec examples/workload_sweep.exe
   (SIA_SWEEP_QUERIES to change the batch size; default 5) *)

module Ast = Sia_sql.Ast
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
module Planner = Sia_relalg.Planner
module Tpch = Sia_engine.Tpch
module Exec = Sia_engine.Exec
module Table = Sia_engine.Table
open Sia_core
module Qgen = Sia_workload.Qgen

let () =
  let n =
    match Sys.getenv_opt "SIA_SWEEP_QUERIES" with
    | Some s -> int_of_string s
    | None -> 5
  in
  let queries = Qgen.generate ~seed:2025 ~count:n () in
  let tables = Tpch.generate_all ~sf:0.05 () in
  let li = List.assoc "lineitem" tables and ord = List.assoc "orders" tables in
  Printf.printf "data: %d lineitem rows, %d orders rows\n\n" li.Table.nrows ord.Table.nrows;
  List.iter
    (fun (gq : Qgen.gen_query) ->
      Printf.printf "query %d (%d terms)\n" gq.Qgen.id gq.Qgen.n_terms;
      let result =
        Rewrite.rewrite_for_table Schema.tpch gq.Qgen.query ~target_table:"lineitem"
      in
      match result.Rewrite.rewritten with
      | None ->
        let reason =
          match result.Rewrite.stats.Synthesize.outcome with
          | Synthesize.Trivial -> "only TRUE is valid"
          | Synthesize.Failed m -> m
          | Synthesize.Optimal _ | Synthesize.Valid _ -> "unexpected"
        in
        Printf.printf "  no rewrite (%s)\n\n" reason
      | Some q' ->
        Printf.printf "  synthesized: %s\n"
          (Printer.string_of_pred (Option.get result.Rewrite.synthesized));
        let out1, t1 =
          Exec.time (fun () -> Exec.run ~tables (Planner.plan Schema.tpch gq.Qgen.query))
        in
        let out2, t2 =
          Exec.time (fun () -> Exec.run ~tables (Planner.plan Schema.tpch q'))
        in
        Printf.printf "  original %.4f s, rewritten %.4f s (%.2fx), rows %d = %d: %b\n\n"
          t1 t2 (t1 /. t2) out1.Table.nrows out2.Table.nrows
          (out1.Table.nrows = out2.Table.nrows))
    queries
