type t = {
  max_iterations : int;
  initial_true : int;
  initial_false : int;
  per_iteration : int;
  qe_method : [ `Real | `Int ];
  svm_epochs : int;
  max_learn_models : int;
  tighten : bool;
  domain_bound : int;
  time_budget : float option;
  seed : int;
  paranoid : bool;
  jobs : int;
  trace : bool;
}

(* Paranoid certificate checking defaults on when the environment asks
   for it (the test/CI profile sets SIA_PARANOID=1); bench and the CLI
   opt in per run. *)
let env_paranoid =
  match Sys.getenv_opt "SIA_PARANOID" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

(* Worker-pool width. Synthesis batches fork this many workers; 1 means
   in-process sequential execution (no fork). *)
let env_jobs =
  match Sys.getenv_opt "SIA_JOBS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> 1)
  | None -> 1

(* Structured tracing (lib/trace). The CLI and bench turn it on via
   --trace/--metrics; the environment switch covers test runs and any
   entry point without a flag of its own. *)
let env_trace =
  match Sys.getenv_opt "SIA_TRACE" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

let default =
  {
    max_iterations = 41;
    initial_true = 10;
    initial_false = 10;
    per_iteration = 5;
    qe_method = `Real;
    svm_epochs = 150;
    max_learn_models = 6;
    tighten = true;
    domain_bound = 40_000;
    time_budget = None;
    seed = 2021;
    paranoid = env_paranoid;
    jobs = env_jobs;
    trace = env_trace;
  }

let sia_v1 = { default with max_iterations = 1; initial_true = 110; initial_false = 110 }
let sia_v2 = { default with max_iterations = 1; initial_true = 220; initial_false = 220 }

let apply_switches t =
  if t.paranoid then Sia_check.Check.enable ();
  if t.trace then Sia_trace.Trace.enable ()
