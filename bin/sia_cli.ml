(* Command-line interface to Sia: parse a query, synthesize a predicate
   over the requested columns, print the rewritten query and the plans.
   Several -c groups run as one batch, in parallel when --jobs > 1. *)

module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
module Plan = Sia_relalg.Plan
open Sia_core

let outcome_string = function
  | Synthesize.Optimal p -> Printf.sprintf "optimal: %s" (Printer.string_of_pred p)
  | Synthesize.Valid p -> Printf.sprintf "valid: %s" (Printer.string_of_pred p)
  | Synthesize.Trivial -> "trivial (only TRUE is valid)"
  | Synthesize.Failed msg -> "failed: " ^ msg

let report show_plans result =
  let st = result.Rewrite.stats in
  Printf.printf "outcome:      %s\n" (outcome_string st.Synthesize.outcome);
  Printf.printf "iterations:   %d\n" st.Synthesize.iterations;
  Printf.printf "samples:      %d TRUE / %d FALSE\n" st.Synthesize.n_true
    st.Synthesize.n_false;
  Printf.printf "time (s):     gen %.3f / learn %.3f / verify %.3f\n"
    st.Synthesize.gen_time st.Synthesize.learn_time st.Synthesize.verify_time;
  (match (result.Rewrite.rewritten, Rewrite.not_attached result) with
   | Some q', _ -> Printf.printf "rewritten:    %s\n" (Printer.string_of_query q')
   | None, Some why ->
     Printf.printf "not attached: %s\n" (Rewrite.not_attached_reason why)
   | None, None -> ());
  if show_plans then begin
    let orig, rew = Rewrite.plans Schema.tpch result in
    Printf.printf "\n-- original plan --\n%s" (Plan.to_string orig);
    match rew with
    | Some p -> Printf.printf "\n-- rewritten plan --\n%s" (Plan.to_string p)
    | None -> ()
  end

let run_synthesize query cols_groups table iterations jobs show_plans trace_file
    metrics =
  let q = Parser.parse_query query in
  let tracing = trace_file <> None || metrics in
  if tracing then
    Sia_trace.Trace.enable ~detail:(Sys.getenv_opt "SIA_TRACE_DETAIL" <> None) ();
  let cfg =
    {
      Config.default with
      Config.max_iterations = iterations;
      Config.jobs = jobs;
      Config.trace = Config.default.Config.trace || tracing;
    }
  in
  let finish () =
    (match trace_file with
     | Some file ->
       let oc = open_out file in
       Sia_trace.Trace.write_chrome oc;
       close_out oc;
       Printf.printf "trace:        %s (%d events)\n" file
         (List.length (Sia_trace.Trace.events ()))
     | None -> ());
    if metrics then print_string (Sia_trace.Trace.metrics_string ())
  in
  Fun.protect ~finally:finish
  @@ fun () ->
  match cols_groups with
  | [] -> begin
    match table with
    | Some t -> report show_plans (Rewrite.rewrite_for_table ~cfg Schema.tpch q ~target_table:t)
    | None -> failwith "pass --columns or --table"
  end
  | [ cols ] ->
    report show_plans (Rewrite.rewrite_for_columns ~cfg Schema.tpch q ~target_cols:cols)
  | groups ->
    (* One batch over all column groups of the query; the pool shards and
       reassembles in submission order, so output order matches the
       command line regardless of --jobs. *)
    let results =
      Rewrite.rewrite_all ~cfg Schema.tpch (List.map (fun g -> (q, g)) groups)
    in
    List.iter2
      (fun g r ->
        Printf.printf "== columns %s ==\n" (String.concat "," g);
        report show_plans r)
      groups results

open Cmdliner

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"SQL query text.")

let cols_arg =
  Arg.(value & opt_all (list string) [] & info [ "c"; "columns" ] ~docv:"COLS"
         ~doc:"Comma-separated target columns for the synthesized predicate. \
               Repeat the flag to synthesize over several column groups in \
               one batch.")

let table_arg =
  Arg.(value & opt (some string) None & info [ "t"; "table" ] ~docv:"TABLE"
         ~doc:"Target table: use all of its predicate columns.")

let iters_arg =
  Arg.(value & opt int Config.default.Config.max_iterations
       & info [ "i"; "iterations" ] ~docv:"N" ~doc:"Learning-loop budget.")

let jobs_arg =
  Arg.(value & opt int Config.default.Config.jobs
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker processes for batched synthesis (several -c groups). \
                 Results are identical to -j 1, in the same order.")

let plans_arg =
  Arg.(value & flag & info [ "p"; "plans" ] ~doc:"Print optimized plans for both queries.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace-event JSON of the run to $(docv) \
               (open in chrome://tracing or ui.perfetto.dev). Set \
               SIA_TRACE_DETAIL=1 to include per-node simplex events.")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print a per-run metrics summary (span counts and durations, \
               per-worker counters).")

let rewrite_term =
  Term.(const run_synthesize $ query_arg $ cols_arg $ table_arg $ iters_arg
        $ jobs_arg $ plans_arg $ trace_arg $ metrics_arg)

let rewrite_cmd =
  let doc = "Synthesize a predicate for one query (batch mode)" in
  Cmd.v (Cmd.info "rewrite" ~doc) rewrite_term

(* -- serve ---------------------------------------------------------- *)

let run_serve socket ttl capacity trace_file paranoid =
  let cfg = { Config.default with Config.paranoid = Config.default.Config.paranoid || paranoid } in
  Printf.printf "sia serve: listening on %s (ttl %gs, capacity %d, paranoid=%b)\n%!"
    socket ttl capacity cfg.Config.paranoid;
  Sia_serve.Server.run
    { Sia_serve.Server.socket_path = socket; cfg; ttl; capacity; trace_file }

let socket_arg =
  Arg.(value & opt string Sia_serve.Server.default_config.Sia_serve.Server.socket_path
       & info [ "s"; "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path to listen on.")

let ttl_arg =
  Arg.(value & opt float Sia_serve.Server.default_config.Sia_serve.Server.ttl
       & info [ "ttl" ] ~docv:"SECONDS"
           ~doc:"Rewrite-cache entry time-to-live; 0 disables expiry.")

let capacity_arg =
  Arg.(value & opt int Sia_serve.Server.default_config.Sia_serve.Server.capacity
       & info [ "capacity" ] ~docv:"N" ~doc:"Rewrite-cache entry bound.")

let serve_trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace of the daemon's lifetime to $(docv) on \
               shutdown.")

let paranoid_arg =
  Arg.(value & flag & info [ "paranoid" ]
         ~doc:"Audit every served rewrite with the certificate checker \
               (also enabled by SIA_PARANOID=1).")

let serve_cmd =
  let doc = "Run the rewrite-as-a-service daemon on a Unix-domain socket" in
  let man = [
    `S Manpage.s_description;
    `P "Listens for length-prefixed protocol frames carrying SQL, answers \
        with the rewritten query and per-request statistics, and keeps \
        solver hot state (the sample model pool) plus a \
        template-keyed rewrite cache resident between requests. Stop \
        with SIGTERM/SIGINT or a Shutdown request.";
  ] in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(const run_serve $ socket_arg $ ttl_arg $ capacity_arg
          $ serve_trace_arg $ paranoid_arg)

let group =
  let doc = "Synthesize valid predicates over a column subset (Sia, SIGMOD 2021)" in
  Cmd.group ~default:rewrite_term (Cmd.info "sia_cli" ~doc)
    [ rewrite_cmd; serve_cmd ]

(* The historical invocation passes the SQL text as the first
   positional; keep it working by routing anything that is not a known
   subcommand (or an option) to the rewrite command. *)
let () =
  let argv =
    match Array.to_list Sys.argv with
    | exe :: (first :: _ as rest)
      when (not (List.mem first [ "rewrite"; "serve" ]))
           && not (String.length first > 0 && first.[0] = '-') ->
      Array.of_list (exe :: "rewrite" :: rest)
    | _ -> Sys.argv
  in
  exit (Cmd.eval ~argv group)
