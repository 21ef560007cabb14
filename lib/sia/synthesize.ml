open Sia_numeric
open Sia_smt
module Ast = Sia_sql.Ast
module Schema = Sia_relalg.Schema
module Pool = Sia_pool.Pool
module Trace = Sia_trace.Trace

type outcome =
  | Optimal of Ast.pred
  | Valid of Ast.pred
  | Trivial
  | Failed of string

type stats = {
  outcome : outcome;
  iterations : int;
  n_true : int;
  n_false : int;
  gen_time : float;
  learn_time : float;
  verify_time : float;
  solver : Solver.stats;
}

let predicate st = match st.outcome with Optimal p | Valid p -> Some p | Trivial | Failed _ -> None
let is_valid_outcome st = match st.outcome with Optimal _ | Valid _ -> true | Trivial | Failed _ -> false
let is_optimal_outcome st = match st.outcome with Optimal _ -> true | Valid _ | Trivial | Failed _ -> false

(* Equality predicate "columns = this sample", for the finite-space
   shortcuts of section 5.3. *)
let sample_eq env cols (sample : Rat.t array) =
  Ast.conj
    (List.mapi
       (fun i name ->
         Ast.Cmp
           ( Ast.Eq,
             Ast.Col { Ast.table = None; name },
             Ast.Const (Encode.value_to_const env name sample.(i)) ))
       cols)

(* Canonical conjunct order. The learner discovers bounds in
   sample-driven order, and the sample stream varies with the model-pool
   history (replayed models come first) even when the converged
   predicate is semantically identical. AND is commutative and the order
   is cosmetic, so pin it: sort the top-level conjuncts by their SQL
   rendering. Golden snapshots and cross-history byte-diffs then see a
   single canonical form no matter which ladder rung produced the
   samples. *)
let canonical_order p =
  match Ast.conjuncts p with
  | [] | [ _ ] -> p
  | cs ->
    Ast.conj
      (List.sort
         (fun a b ->
           String.compare
             (Sia_sql.Printer.string_of_pred a)
             (Sia_sql.Printer.string_of_pred b))
         cs)

(* The model-pool family key of one synthesis attempt: the concrete
   query, rendered. Sibling attempts of one rewrite (per-table and
   per-column-subset targets of the same query) share a family and
   replay each other's models; queries that merely share a template do
   not. Keying on a template instead makes answers history-dependent
   across unrelated queries: a template-mate synthesized earlier in the
   process seeds the pool, the replayed (valid) samples land in a
   different order, and the learned conjuncts come out reordered — which
   breaks the golden tests and every byte-diff harness. Batch sharding
   groups attempts by the same (from, pred) pair, so a family's attempts
   run back-to-back on one worker and sequential and parallel evolution
   agree. *)
let pool_key_of ~from ~pred =
  Printf.sprintf "%s|%s" (String.concat "," from)
    (Sia_sql.Printer.string_of_pred pred)

let synthesize ?(cfg = Config.default) catalog ~from ~pred ~target_cols =
  (* Paranoid mode installs the independent certificate checker, so every
     solver verdict below (Samples, Tighten, Verify, prune_redundant) is
     audited as it is produced. Tracing is a global sink; enabling is
     idempotent, so each attempt in a batch can ask without fighting over
     the switch. *)
  Config.apply_switches cfg;
  Trace.span "synthesize"
    ~args:[ ("cols", Trace.String (String.concat "," target_cols)) ]
  @@ fun () ->
  let start_time = Unix.gettimeofday () in
  let solver0 = Solver.stats () in
  let over_budget () =
    match cfg.Config.time_budget with
    | None -> false
    | Some budget -> Unix.gettimeofday () -. start_time > budget
  in
  let gen_time = ref 0.0 and learn_time = ref 0.0 and verify_time = ref 0.0 in
  let timed acc f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    acc := !acc +. (Unix.gettimeofday () -. t0);
    r
  in
  (* A timed CEGIS phase is also a trace span of the same extent. *)
  let phase name acc f = timed acc (fun () -> Trace.span name f) in
  let fail ?(iterations = 0) ?(n_true = 0) ?(n_false = 0) outcome =
    {
      outcome;
      iterations;
      n_true;
      n_false;
      gen_time = !gen_time;
      learn_time = !learn_time;
      verify_time = !verify_time;
      solver = Solver.stats_since solver0;
    }
  in
  match Encode.build_env catalog from pred with
  | exception Encode.Unsupported msg -> fail (Failed ("unsupported predicate: " ^ msg))
  | exception Not_found -> fail (Failed "unresolvable column")
  | env ->
    let missing =
      List.filter (fun c -> not (List.mem c (Encode.columns env))) target_cols
    in
    if missing <> [] then
      fail (Failed ("target columns not in predicate: " ^ String.concat "," missing))
    else begin
      (* String columns have no order embedding the hyperplane learner
         could exploit (§21.1 admits only flat column-vs-literal string
         comparisons, never the learned linear combinations): synthesis
         reasons over the orderable target columns and drops the string
         ones. Sound — a predicate over a column subset is still a
         dimensionality reduction onto the target table — at worst it
         costs optimality on string-selective queries. *)
      let target_cols =
        List.filter
          (fun c ->
            match Encode.column_type env c with
            | Schema.Tstring _ -> false
            | _ -> true)
          target_cols
      in
      if target_cols = [] then
        fail (Failed "no orderable (non-string) target columns")
      else begin
      let p_formula = Encode.encode_bool env pred in
      let st =
        Samples.make_state ~pool_key:(pool_key_of ~from ~pred) cfg env
          ~target_cols
      in
      (* FALSE-sample oracle: the complement of psi = exists others. p,
         by eager elimination or (on blow-up) a per-query CEGQI loop. *)
      begin
        let oracle =
          phase "gen" gen_time (fun () -> Samples.false_oracle st p_formula)
        in
        (* Initial TRUE samples. *)
        let ts, ts_exhausted =
          phase "gen" gen_time (fun () ->
              Samples.gen_models st ~base:p_formula ~count:cfg.Config.initial_true
                ~existing:[])
        in
        if ts = [] then fail (Failed "predicate unsatisfiable over the sample domain")
        else if ts_exhausted then begin
          (* Finitely many feasible restrictions: the strongest valid
             predicate is the disjunction of their equalities. *)
          let p1 = Ast.disj (List.map (sample_eq env target_cols) ts) in
          fail ~n_true:(List.length ts) (Optimal p1)
        end
        else begin
          let fs, fs_exhausted =
            phase "gen" gen_time (fun () ->
                Samples.gen_false st oracle ~p_formula ~extra:[]
                  ~count:cfg.Config.initial_false ~existing:[])
          in
          if fs = [] then fail ~n_true:(List.length ts) Trivial
          else if fs_exhausted then begin
            (* Finitely many unsatisfaction tuples: optimal predicate is
               the conjunction of their negated equalities. *)
            let p1 =
              Ast.conj (List.map (fun f -> Ast.Not (sample_eq env target_cols f)) fs)
            in
            fail ~n_true:(List.length ts) ~n_false:(List.length fs) (Optimal p1)
          end
          else begin
            (* Main CEGIS loop (Algorithm 1). p1 is the running valid
               predicate, initially TRUE. *)
            let is_int = Encode.is_int_var env in
            let cache = Tighten.make_cache () in
            (* Validity checks share one session across iterations: p and
               the NULL domain are fixed, only the candidate changes. *)
            let vsession = lazy (Verify.make_session env ~p:pred) in
            (* Drop conjuncts the remaining ones already imply, so repeated
               learner output does not pile up in the final predicate. All
               n^2 implication checks run as assumption queries on one
               shared session; each conjunct is encoded once. *)
            let prune_redundant pred0 =
              Trace.span "prune"
              @@ fun () ->
              match Ast.conjuncts pred0 with
              | ([] | [ _ ]) as cs -> (match cs with [] -> Ast.Ptrue | _ -> pred0)
              | conjuncts ->
                let session = Solver.Session.create ~is_int Formula.tru in
                let encoded =
                  List.map (fun c -> (c, Encode.encode_bool env c)) conjuncts
                in
                let implied_by others c_formula =
                  match
                    Solver.Session.solve_under session
                      ~assumptions:(Formula.not_ c_formula :: List.map snd others)
                  with
                  | Solver.Unsat -> true
                  (* Unknown must keep the conjunct: dropping it would
                     weaken the predicate on an unproved implication. *)
                  | Solver.Sat _ | Solver.Unknown -> false
                in
                let rec go kept = function
                  | [] -> List.rev kept
                  | ((_, f) as c) :: rest ->
                    if implied_by (List.rev_append kept rest) f then go kept rest
                    else go (c :: kept) rest
                in
                (match go [] encoded with
                 | [] -> Ast.Ptrue
                 | cs -> Ast.conj (List.map fst cs))
            in
            let rec loop i p1 p1_formula ts fs ~n_ts ~n_fs =
              let finish ?(iters = i) outcome =
                (* Applied after [Render.beautify] so the sort key is
                   the final rendered text. *)
                let polish p =
                  canonical_order (Render.beautify env (prune_redundant p))
                in
                let outcome =
                  match outcome with
                  | Optimal p -> Optimal (polish p)
                  | Valid p -> Valid (polish p)
                  | Trivial | Failed _ -> outcome
                in
                {
                  outcome;
                  iterations = iters;
                  n_true = n_ts;
                  n_false = n_fs;
                  gen_time = !gen_time;
                  learn_time = !learn_time;
                  verify_time = !verify_time;
                  solver = Solver.stats_since solver0;
                }
              in
              (* The budget never cancels the first iteration: initial
                 sample generation (v2's 220+220) may alone exceed it. *)
              if i >= cfg.Config.max_iterations || (i > 0 && over_budget ()) then begin
                match p1 with
                | Ast.Ptrue -> finish (Failed "iteration budget exhausted")
                | p -> finish (Valid p)
              end
              else begin
                (* The iteration body runs inside a span that must close
                   before the next iteration opens, so it returns a step
                   value and the recursion happens outside. *)
                let step =
                  Trace.span "cegis.iteration" ~args:[ ("i", Trace.Int i) ]
                  @@ fun () ->
                  let learned =
                    phase "learn" learn_time (fun () -> Learn.learn ~cache ~p1_formula cfg env ~p_formula ~cols:target_cols ~ts ~fs)
                  in
                  let verdict, countermodel =
                    phase "verify" verify_time (fun () ->
                        Verify.implies_ce_session (Lazy.force vsession)
                          ~p1:learned.Learn.pred)
                  in
                  match verdict with
                  | Verify.Valid -> begin
                    let already_conjunct =
                      List.exists
                        (Ast.pred_equal learned.Learn.pred)
                        (Ast.conjuncts p1)
                    in
                    let p3, p3_formula =
                      match (p1, learned.Learn.pred) with
                      | p, _ when already_conjunct -> (p, p1_formula)
                      | Ast.Ptrue, q -> (q, learned.Learn.formula)
                      | p, Ast.Ptrue -> (p, p1_formula)
                      | p, q -> (Ast.And (p, q), Formula.and_ [ p1_formula; learned.Learn.formula ])
                    in
                    (* FALSE counter-examples: unsatisfaction tuples that p3
                       still accepts. *)
                    let fs1, _ =
                      phase "gen" gen_time (fun () ->
                          Samples.gen_false st oracle ~p_formula
                            ~extra:[ p3_formula ]
                            ~count:cfg.Config.per_iteration ~existing:fs)
                    in
                    if fs1 = [] then begin
                      (* Exhausted within the bounded domain; confirm over the
                         unbounded one before declaring optimality. *)
                      let unbounded =
                        phase "verify" verify_time (fun () ->
                            Samples.residual_false st oracle ~p_formula
                              ~extra:[ p3_formula ] ~existing:fs)
                      in
                      match unbounded with
                      | Solver.Unsat -> `Stop (finish ~iters:(i + 1) (Optimal p3))
                      (* Unknown downgrades Optimal to Valid: without an
                         Unsat certificate the residual region may be
                         nonempty, so optimality is never claimed on a
                         resource limit. *)
                      | Solver.Unknown -> `Stop (finish ~iters:(i + 1) (Valid p3))
                      | Solver.Sat m ->
                        let sample =
                          Array.of_list
                            (List.map
                               (fun v -> Solver.model_value_strict m v)
                               st.Samples.target_vars)
                        in
                        `Next (p3, p3_formula, ts, sample :: fs, n_ts, n_fs + 1)
                    end
                    else
                      `Next
                        (p3, p3_formula, ts, fs1 @ fs, n_ts, n_fs + List.length fs1)
                  end
                  | Verify.Invalid | Verify.Unknown -> begin
                    (* TRUE counter-examples: tuples satisfying p that the
                       learned predicate rejects. *)
                    let ts1, _ =
                      phase "gen" gen_time (fun () ->
                          Samples.gen_models st
                            ~base:
                              (Formula.and_
                                 [ p_formula; Formula.not_ learned.Learn.formula ])
                            ~count:cfg.Config.per_iteration ~existing:ts)
                    in
                    (* The sampling box can miss the countermodel Verify
                       found; fall back to that model directly (the paper's
                       CounterT has no box). *)
                    let ts1 =
                      match (ts1, countermodel) with
                      | [], Some m ->
                        let sample =
                          Array.of_list
                            (List.map
                               (fun v -> Solver.model_value_strict m v)
                               st.Samples.target_vars)
                        in
                        let dup =
                          List.exists (fun t -> Array.for_all2 Rat.equal t sample) ts
                        in
                        if dup then [] else [ sample ]
                      | ts1, _ -> ts1
                    in
                    if ts1 = [] then begin
                      (* No fresh counter-example at all: the learner cannot
                         be repaired with more data here. *)
                      match p1 with
                      | Ast.Ptrue ->
                        `Stop (finish ~iters:(i + 1) (Failed "no fresh TRUE counter-examples"))
                      | p -> `Stop (finish ~iters:(i + 1) (Valid p))
                    end
                    else
                      `Next
                        ( p1,
                          p1_formula,
                          ts1 @ ts,
                          fs,
                          n_ts + List.length ts1,
                          n_fs )
                  end
                in
                match step with
                | `Stop st -> st
                | `Next (p1, p1_formula, ts, fs, n_ts, n_fs) ->
                  loop (i + 1) p1 p1_formula ts fs ~n_ts ~n_fs
              end
            in
            loop 0 Ast.Ptrue Formula.tru ts fs ~n_ts:(List.length ts)
              ~n_fs:(List.length fs)
          end
        end
      end
    end
    end

(* ------------------------------------------------------------------ *)
(* Batched synthesis                                                   *)
(* ------------------------------------------------------------------ *)

type attempt = {
  from : string list;
  pred : Ast.pred;
  target_cols : string list;
}

type batch = {
  results : stats list;
  jobs : int;
  jobs_requested : int;
  worker_tasks : int list;
  worker_wall : float list;
  worker_solver : Solver.stats list;
}

(* Shard assignment and effective worker count for a batch. Attempts on
   the same query — one model-pool family, see [pool_key_of] — land on
   one worker in submission order, so each worker's model pool sees
   exactly the query sequence the sequential run would have fed
   them. The effective job count is capped by the group count (idle
   forks are pure overhead) and by the detected online cores
   (over-forking a small box was measured at 0.86x). *)
let plan_shards ~requested attempts keys =
  let groups = Hashtbl.create 16 in
  let group_of =
    Array.of_list
      (List.map
         (fun a ->
           let key = keys a in
           match Hashtbl.find_opt groups key with
           | Some g -> g
           | None ->
             let g = Hashtbl.length groups in
             Hashtbl.add groups key g;
             g)
         attempts)
  in
  let jobs =
    max 1 (min requested (min (Pool.online_cores ()) (Hashtbl.length groups)))
  in
  (group_of, jobs)

(* Run [run] over [tasks] on up to [cfg.jobs] forked workers, sharded by
   [key] as [plan_shards] says, or in process when one worker suffices.
   Results come back in submission order. Each worker's solver delta is
   folded into this process's totals and, when tracing, sampled on the
   worker's lane, so the trace says which worker did how much solver
   work. The in-process run reports itself as one worker. *)
let map_sharded ~cfg key run tasks =
  (* Enable tracing in this process too, not only inside the tasks:
     forked workers inherit the flag (so they collect events at all), and
     the parent must be enabled for [Pool] to absorb them back. *)
  if cfg.Config.trace then Trace.enable ();
  let group_of, jobs = plan_shards ~requested:cfg.Config.jobs tasks key in
  let baseline = Solver.stats () in
  if jobs <= 1 then begin
    let t0 = Unix.gettimeofday () in
    let results = List.map run tasks in
    ( results,
      {
        Pool.jobs = 1;
        per_worker_tasks = [ List.length tasks ];
        per_worker_wall = [ Unix.gettimeofday () -. t0 ];
        epilogues = [ Solver.stats_since baseline ];
      } )
  end
  else begin
    let results, summary =
      Pool.map ~jobs
        ~shard:(fun i _ -> group_of.(i))
        ~epilogue:(fun () -> Solver.stats_since baseline)
        run tasks
    in
    List.iter Solver.absorb_stats summary.Pool.epilogues;
    if Trace.enabled () then
      List.iteri
        (fun i (s : Solver.stats) ->
          Trace.counter ~tid:(i + 1) "worker.solver"
            [
              ("queries", float_of_int s.Solver.queries);
              ("theory_rounds", float_of_int s.Solver.theory_rounds);
              ("pivots", float_of_int s.Solver.pivots);
            ])
        summary.Pool.epilogues;
    (results, summary)
  end

let synthesize_batch ?(cfg = Config.default) catalog attempts =
  let run a =
    synthesize ~cfg catalog ~from:a.from ~pred:a.pred ~target_cols:a.target_cols
  in
  let results, summary = map_sharded ~cfg (fun a -> (a.from, a.pred)) run attempts in
  {
    results;
    jobs = summary.Pool.jobs;
    jobs_requested = cfg.Config.jobs;
    worker_tasks = summary.Pool.per_worker_tasks;
    worker_wall = summary.Pool.per_worker_wall;
    worker_solver = summary.Pool.epilogues;
  }
