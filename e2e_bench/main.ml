(* End-to-end benchmark entry point.

   main.exe [run] [--workload NAME|all] [--seed N] [--seconds S]
                  [--trace 0|1|FILE] [--query-seed N] [--smoke]
                  [--benchmark FILE]
   main.exe compare A.jsonl [B.jsonl] [--benchmark FILE]

   run prints, per workload, a table of every metric with its unit, one
   row line ({"bench":"e2e","workload":...}) for compare, and as its
   last line {"correct","attempted","failed","metrics"} holding the
   end-to-end metrics, or the per-layer ones when traced. A result
   mismatch, a daemon error reply or a metric that BENCHMARK.json
   declares but the row lacks makes it exit 1. "all" runs each workload
   in its own process. Files go to .bench_run/ under the working
   directory. *)

let run_dir = ".bench_run"

let usage () =
  prerr_endline
    "usage: main.exe [run] [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1|FILE]\n\
    \                [--query-seed N] [--smoke] [--benchmark FILE]\n\
    \       main.exe compare A.jsonl [B.jsonl] [--benchmark FILE]";
  exit 2

type cli = {
  workload : string;
  seed : int;
  query_seed : int;
  seconds : float option;
  trace : string;  (** "0", "1" or a file *)
  smoke : bool;
  benchmark : string;
  files : string list;
}

let parse_args args =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "%s expects an integer, got %s\n" flag v;
      exit 2
  in
  let rec go c = function
    | [] -> c
    | "--workload" :: v :: rest -> go { c with workload = v } rest
    | "--seed" :: v :: rest -> go { c with seed = int_arg "--seed" v } rest
    | "--query-seed" :: v :: rest -> go { c with query_seed = int_arg "--query-seed" v } rest
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s >= 0.0 -> go { c with seconds = Some s } rest
      | _ ->
        Printf.eprintf "--seconds expects a non-negative number, got %s\n" v;
        exit 2)
    | "--trace" :: v :: rest -> go { c with trace = v } rest
    | "--benchmark" :: v :: rest -> go { c with benchmark = v } rest
    | "--smoke" :: rest -> go { c with smoke = true } rest
    | a :: rest when String.length a > 0 && a.[0] <> '-' -> go { c with files = c.files @ [ a ] } rest
    | a :: _ ->
      Printf.eprintf "unknown or incomplete option %s\n" a;
      usage ()
  in
  go
    {
      workload = "all";
      seed = 42;
      query_seed = 42;
      seconds = None;
      trace = "0";
      smoke = false;
      benchmark = "BENCHMARK.json";
      files = [];
    }
    args

let metrics_obj ms =
  Json.Obj
    (List.map
       (fun (x : E2e.metric) ->
         (x.E2e.name, Json.Obj [ ("value", Json.Num x.E2e.value); ("unit", Json.Str x.E2e.unit) ]))
       ms)

let run_one c name =
  let traced = c.trace <> "0" in
  let trace_file =
    if not traced then None
    else if c.trace = "1" then Some (Filename.concat run_dir (name ^ ".trace.json"))
    else Some c.trace
  in
  let opts =
    {
      E2e.seed = c.seed;
      query_seed = c.query_seed;
      seconds = Option.value c.seconds ~default:(if c.smoke then 0.0 else 12.0);
      trace_file;
      smoke = c.smoke;
    }
  in
  let r = E2e.run opts name in
  let all = r.E2e.e2e @ r.E2e.layer in
  (* The row must carry every declared metric under its declared unit. *)
  let missing =
    if not (Sys.file_exists c.benchmark) then []
    else
      let want =
        Compare.section c.benchmark "end_to_end"
        @ if traced then Compare.section c.benchmark "per_layer" else []
      in
      List.filter
        (fun (n, (s : Compare.spec)) ->
          not (List.exists (fun (x : E2e.metric) -> x.E2e.name = n && x.E2e.unit = s.Compare.unit) all))
        want
  in
  List.iter
    (fun (n, (s : Compare.spec)) ->
      Printf.eprintf "e2e: metric %s (%s) missing from the row\n" n s.Compare.unit)
    missing;
  let correct = r.E2e.correct && missing = [] in
  Printf.printf "\n%s (seed %d, query seed %d%s): %d attempted, %d failed, %s\n" name c.seed
    c.query_seed (if traced then ", traced" else "") r.E2e.attempted r.E2e.failed
    (if correct then "correct" else "INCORRECT");
  List.iter
    (fun (x : E2e.metric) -> Printf.printf "  %-34s %16.6f %s\n" x.E2e.name x.E2e.value x.E2e.unit)
    all;
  let common ms =
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int r.E2e.attempted));
      ("failed", Json.Num (float_of_int r.E2e.failed));
      ("metrics", metrics_obj ms);
    ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          ([
             ("bench", Json.Str "e2e");
             ("workload", Json.Str name);
             ("seed", Json.Num (float_of_int c.seed));
             ("query_seed", Json.Num (float_of_int c.query_seed));
             ("traced", Json.Bool traced);
           ]
          @ common all)));
  print_endline
    (Json.to_string (Json.Obj (common (if traced then r.E2e.layer else r.E2e.e2e))));
  if correct then 0 else 1

(* "all": one child process per workload, so no workload inherits
   another's heap, caches or peak RSS. *)
let run_all c args =
  let failures =
    List.filter
      (fun name ->
        let trace =
          match c.trace with
          | "0" | "1" -> c.trace
          | file -> Filename.remove_extension file ^ "-" ^ name ^ ".json"
        in
        let rec strip = function
          | ("--workload" | "--trace") :: _ :: rest -> strip rest
          | a :: rest -> a :: strip rest
          | [] -> []
        in
        let argv =
          Array.of_list
            ((Sys.executable_name :: strip args) @ [ "--workload"; name; "--trace"; trace ])
        in
        flush_all ();
        let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> false | _ -> true)
      E2e.workloads
  in
  List.iter (Printf.eprintf "e2e: workload %s failed\n") failures;
  if failures = [] then 0 else 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let sub, args =
    match args with
    | "compare" :: rest -> ("compare", rest)
    | "run" :: rest -> ("run", rest)
    | rest -> ("run", rest)
  in
  let c = parse_args args in
  let code =
    match sub with
    | "compare" -> (
      match c.files with
      | [ a ] -> Compare.main ~benchmark:c.benchmark a None
      | [ a; b ] -> Compare.main ~benchmark:c.benchmark a (Some b)
      | _ -> usage ())
    | _ ->
      if c.files <> [] then usage ();
      if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
      (* The daemon's socket lives here too: inside the working directory,
         and short enough for a Unix socket path. *)
      Filename.set_temp_dir_name run_dir;
      if c.workload = "all" then run_all c args
      else if List.mem c.workload E2e.workloads then run_one c c.workload
      else begin
        Printf.eprintf "unknown workload %s (expected %s or all)\n" c.workload
          (String.concat ", " E2e.workloads);
        2
      end
  in
  exit code
