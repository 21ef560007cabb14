open Sia_numeric
open Sia_smt
module Trace = Sia_trace.Trace

type gen_state = {
  env : Encode.env;
  target_vars : int list;
  rand : Random.State.t;
  cfg : Config.t;
  pool_key : string option;
  crange : int * int;
      (* [Encode.const_range] snapshotted at creation: the box must be
         sized from the *original* predicate's constants, not drift as
         learned predicates with tightened thresholds are encoded
         through the same (mutable) env across CEGIS iterations. *)
  session : Solver.Session.t Lazy.t;
}

let make_state ?pool_key cfg env ~target_cols =
  {
    env;
    target_vars = List.map (Encode.var_of_column env) target_cols;
    crange = Encode.const_range env;
    rand = Random.State.make [| cfg.Config.seed |];
    cfg;
    pool_key;
    (* One solver session per synthesis attempt: base [true], every query
       formula (predicate, domain box, sample exclusions, hints) enters as
       an assumption, so the Tseitin encoding, theory blocking clauses and
       SAT learnts accumulate across all CEGIS iterations. Lazy because
       some callers (projection-only paths) never solve. *)
    session = lazy (Solver.Session.create ~is_int:(Encode.is_int_var env) Formula.tru);
  }

(* "Differs from this sample" on the target variables. In NNF the negated
   equalities become strict inequalities, so the session re-uses these
   encodings whenever the same sample is excluded again. *)
let not_sample st sample =
  Formula.not_
    (Formula.and_
       (List.mapi
          (fun i v ->
            Formula.atom (Atom.mk_eq (Linexpr.var v) (Linexpr.const sample.(i))))
          st.target_vars))

let not_old st existing = Formula.and_ (List.map (not_sample st) existing)

let box_range st =
  (* Sample inside a box sized from the predicate's own constants: samples
     light-years from the decision boundary teach the SVM nothing, and a
     smaller box keeps branch-and-bound quick. [domain_bound] caps the
     box's expansion beyond the constant range — never the range itself,
     or a predicate whose constants live at 3.5e6 (TPC-H prices in
     cents) would exclude its own feasible region and sample generation
     would call a satisfiable predicate empty. *)
  let lo, hi = st.crange in
  let span = Stdlib.max 50 (hi - lo) in
  let expand = Stdlib.min st.cfg.Config.domain_bound (2 * span) in
  (lo - expand, hi + expand)

let bounds st =
  let lo, hi = box_range st in
  Formula.and_
    (List.concat_map
       (fun name ->
         let v = Encode.var_of_column st.env name in
         [
           Formula.atom (Atom.mk_ge (Linexpr.var v) (Linexpr.of_int lo));
           Formula.atom (Atom.mk_le (Linexpr.var v) (Linexpr.of_int hi));
         ])
       (Encode.columns st.env))

(* Diversity hints: random half-space nudges around the predicate's own
   constant range, so consecutive models do not cluster at the same vertex
   of the feasible region (the paper's "additional heuristics"). Hints are
   soft: dropped one by one if they make the query unsat. *)
let hints st =
  let lo, hi = box_range st in
  List.filter_map
    (fun v ->
      if Random.State.bool st.rand then begin
        (* Clamp the draw width under Random.int's 2^30 bound; a pivot in
           the box's lower 2^29 span still splits the feasible region. *)
        let width = Stdlib.min (1 lsl 29) (Stdlib.max 1 (hi - lo)) in
        let pivot = lo + Random.State.int st.rand width in
        let atom =
          if Random.State.bool st.rand then Atom.mk_le (Linexpr.var v) (Linexpr.of_int pivot)
          else Atom.mk_ge (Linexpr.var v) (Linexpr.of_int pivot)
        in
        Some (Formula.atom atom)
      end
      else None)
    st.target_vars

(* {2 The under-approximation ladder}

   Every generation chunk climbs three rungs, cheapest first:

   rung 1 (pool replay): valuations harvested from earlier CEGIS
   iterations of the same query family ([Mpool], keyed by the attempt's
   concrete query, [Synthesize.pool_key_of] — also the fork-pool shard
   key, so pool evolution is identical sequential or parallel). No
   solver call.

   rung 2 (constant narrowing): pin the base's non-target variables to a
   pooled model's values and enumerate inside that slice — a Polygon-
   style under-approximation whose conflicts (pin came back dry) are
   remembered so the next chunk skips the dead pin.

   rung 3 (full solve): the DPLL(T) enumeration, exactly as before; only
   its hint-free verdict can declare the sample space exhausted.

   Validation discipline: the ladder runs in every mode — rung choice
   depends only on pool state, never on paranoid mode — so plain and
   paranoid runs see the same samples. What paranoid mode changes is
   checking: a rung-1 candidate must strictly evaluate every formula of
   the current query (the checkable witness), and under [cfg.paranoid]
   it is additionally re-derived by a fresh certified solve that pins the
   whole valuation; a disagreement raises [Cert.Certificate_error].
   Rung-2/3 samples come out of the solver itself and already carry the
   ordinary certificate obligations. *)

let valuation_of_model st model =
  Array.of_list
    (List.map
       (fun name ->
         (name, Solver.model_value_strict model (Encode.var_of_column st.env name)))
       (Encode.columns st.env))

let harvest_model st side model =
  match st.pool_key with
  | None -> ()
  | Some key -> Mpool.harvest ~key side (valuation_of_model st model)

(* A pooled valuation as an assignment in this attempt's variable space;
   [None] when the harvesting sibling used a column this encoding lacks. *)
let model_of_valuation st v =
  match
    Array.to_list
      (Array.map (fun (n, q) -> (Encode.var_of_column st.env n, q)) v)
  with
  | m -> Some m
  | exception Not_found -> None

let target_array st (m : Solver.model) =
  match
    Array.of_list (List.map (fun var -> List.assoc var m) st.target_vars)
  with
  | a -> Some a
  | exception Not_found -> None

(* The checkable witness: the candidate must strictly evaluate every
   formula of the query. A variable the valuation does not assign fails
   the candidate, never defaults. *)
let strictly_satisfies fs (m : Solver.model) =
  let lookup v =
    match List.assoc_opt v m with Some q -> q | None -> raise Not_found
  in
  match List.for_all (fun f -> Formula.eval f lookup) fs with
  | ok -> ok
  | exception Not_found -> false

let trusts_witness st = not st.cfg.Config.paranoid

(* Certified slow path for a replayed sample: pin the whole valuation and
   re-derive satisfiability with a fresh, cache-bypassing (and, under
   paranoid mode, audited) solve. Unsat means strict evaluation and the
   solver disagree about a ground conjunction — that is a soundness bug,
   not a miss, so it fails loudly. Unknown only rejects the candidate. *)
let rederives st fs (m : Solver.model) =
  let pin =
    Formula.and_
      (List.map
         (fun (v, q) ->
           Formula.atom (Atom.mk_eq (Linexpr.var v) (Linexpr.const q)))
         m)
  in
  match
    Solver.solve ~is_int:(Encode.is_int_var st.env)
      (Formula.and_ (pin :: fs))
  with
  | Solver.Sat _ -> true
  | Solver.Unknown -> false
  | Solver.Unsat ->
    raise
      (Cert.Certificate_error
         "model-pool replay: strict evaluation accepted a sample the \
          certified solver refutes")

let validates st fs m =
  strictly_satisfies fs m && (trusts_witness st || rederives st fs m)

(* Rung 1: walk the family pool in insertion order, keeping candidates
   that validate against the full current query and are fresh on the
   target variables. *)
let pool_replay st side ~want ~fixed =
  match st.pool_key with
  | None -> []
  | Some key ->
    let taken = ref [] in
    let fresh arr =
      not
        (List.exists (fun (a, _) -> Array.for_all2 Rat.equal a arr) !taken)
    in
    List.iter
      (fun v ->
        if List.length !taken < want then
          match model_of_valuation st v with
          | None -> ()
          | Some m -> (
            match target_array st m with
            | None -> ()
            | Some arr ->
              if fresh arr && validates st fixed m then
                taken := (arr, m) :: !taken))
      (Mpool.candidates ~key side);
    List.rev !taken

(* Rung 2: the base's non-target variables, i.e. the dimensions a pin can
   actually remove. (FALSE-sample bases mention only target variables —
   the projection eliminated the rest — so narrowing never triggers
   there.) *)
let pin_vars st base =
  List.filter (fun v -> not (List.mem v st.target_vars)) (Formula.vars base)

let pin_of_valuation st vars (v : Mpool.valuation) =
  let names = List.map (fun var -> Encode.var_name st.env var) vars in
  let proj =
    Array.of_list
      (List.filter (fun (n, _) -> List.mem n names) (Array.to_list v))
  in
  if Array.length proj = List.length names then Some proj else None

let pin_formula st (pin : Mpool.valuation) =
  Formula.and_
    (Array.to_list
       (Array.map
          (fun (n, q) ->
            Formula.atom
              (Atom.mk_eq
                 (Linexpr.var (Encode.var_of_column st.env n))
                 (Linexpr.const q)))
          pin))

let same_pin (a : Mpool.valuation) (b : Mpool.valuation) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (n1, q1) (n2, q2) -> String.equal n1 n2 && Rat.equal q1 q2)
       a b

(* Live (not conflict-pruned for this query) pins the pool can offer, in
   candidate order, distinct projections only, at most [limit]. [tag] is
   the query fingerprint the conflicts are scoped to. *)
let live_pins st side vars ~tag ~limit =
  match st.pool_key with
  | None -> []
  | Some key ->
    if vars = [] then []
    else begin
      let pins = ref [] in
      let n = ref 0 in
      List.iter
        (fun v ->
          if !n < limit then
            match pin_of_valuation st vars v with
            | None -> ()
            | Some proj ->
              if
                (not (Mpool.is_dead ~key side ~tag proj))
                && not (List.exists (same_pin proj) !pins)
              then begin
                pins := proj :: !pins;
                incr n
              end)
        (Mpool.candidates ~key side);
      List.rev !pins
    end

(* Models are enumerated in chunks: each chunk shares the session's
   incremental solver state and carries its own random half-space hints
   for diversity (drawn before the ladder runs, so RNG consumption does
   not depend on rung outcomes). A rung-3 chunk that comes back empty
   under hints is retried without them — only that verdict decides
   exhaustion; pool replay validates against the hint-free query.

   Distinctness within a chunk comes from the enumeration's call-scoped
   blocking clauses; across rungs, chunks and calls every known sample
   is excluded by an explicit [not_sample] assumption. The exclusion
   formula of a given sample is encoded into the session once and reused
   verbatim by every later query that mentions it. *)
let chunk_size = 12

(* Dry slices are cheap but not free: bound how many pins one chunk may
   burn before handing the remainder to the full solver. *)
let pins_per_chunk = 6

let gen_models ?(side = Mpool.True_side) st ~base ~count ~existing =
  Trace.span "samples.gen" ~args:[ ("count", Trace.Int count) ]
  @@ fun () ->
  let sess = Lazy.force st.session in
  let box = bounds st in
  let excludes = ref (List.map (not_sample st) existing) in
  let samples = ref [] in
  let n = ref 0 in
  let exhausted = ref false in
  let extract model =
    (* Target variables always occur in the query (the box constrains
       them), so a missing assignment is a solver bug — fail loudly
       rather than silently sampling zero. *)
    Array.of_list
      (List.map (fun v -> Solver.model_value_strict model v) st.target_vars)
  in
  let commit arrays =
    n := !n + List.length arrays;
    excludes :=
      List.fold_left (fun acc a -> not_sample st a :: acc) !excludes arrays;
    samples := List.rev_append arrays !samples
  in
  let solve_chunk want extra =
    Solver.Session.solve_many_under sess
      ~assumptions:(base :: box :: (!excludes @ extra))
      ~count:want ~distinct_on:st.target_vars
  in
  let pinnable = pin_vars st base in
  (* Conflict scope for rung 2: a deterministic fingerprint of the query
     (structural hash of the base — exclusions narrow the slice but never
     resurrect a dry one, so they stay out of the tag). *)
  let query_tag = Formula.hash base in
  while !n < count && not !exhausted do
    let want = Stdlib.min chunk_size (count - !n) in
    let hs = hints st in
    (* Rung 1: replay. *)
    let replayed =
      Trace.span "gen.rung1" @@ fun () ->
      pool_replay st side ~want ~fixed:(base :: box :: !excludes)
    in
    if replayed <> [] then Solver.note_pool_hits (List.length replayed);
    commit (List.map fst replayed);
    let want = want - List.length replayed in
    (* Rung 2: constant-narrowed enumeration under pooled pins. Each
       slice fixes every non-target variable, so its solves are nearly
       free compared to the full query; walk up to a handful of live
       pins before conceding the chunk to the full solver. *)
    let want =
      if want <= 0 then want
      else begin
        let remaining = ref want in
        List.iter
          (fun pin ->
            if !remaining > 0 then begin
              Solver.note_underapprox_solve ();
              let asked = !remaining in
              (* No hints inside the slice: the pin is the narrowing, and
                 distinctness still comes from the exclusion assumptions. *)
              let got, _ =
                Trace.span "gen.rung2" @@ fun () ->
                solve_chunk asked [ pin_formula st pin ]
              in
              List.iter (harvest_model st side) got;
              commit (List.rev_map extract got);
              (* A dry or short slice is the under-approximation's
                 conflict for this query: remember it so later chunks of
                 the same query skip straight past this pin. *)
              if List.length got < asked then
                Option.iter
                  (fun key -> Mpool.mark_dead ~key side ~tag:query_tag pin)
                  st.pool_key;
              remaining := !remaining - List.length got
            end)
          (live_pins st side pinnable ~tag:query_tag ~limit:pins_per_chunk);
        !remaining
      end
    in
    (* Rung 3: full enumeration, with the original exhaustion protocol. *)
    if want > 0 then begin
      if st.pool_key <> None then Solver.note_gen_fallback ();
      let got, _ = Trace.span "gen.rung3" @@ fun () -> solve_chunk want hs in
      let got =
        if got <> [] then got
        else begin
          let plain, ex =
            Trace.span "gen.rung3plain" @@ fun () -> solve_chunk want []
          in
          if ex then exhausted := true;
          plain
        end
      in
      List.iter (harvest_model st side) got;
      commit (List.rev_map extract got)
    end
  done;
  (List.rev !samples, !exhausted)

(* The optimality-confirmation query of the main loop: a model of
   [base] away from all [existing] samples, with no domain box (the check
   must be exact, not box-relative). Runs on the shared session so the
   encodings and learnts from sample generation carry over; never
   answered from the pool — optimality claims rest on this verdict. *)
let solve_residual st ~base ~existing =
  Trace.span "samples.residual"
  @@ fun () ->
  let sess = Lazy.force st.session in
  Solver.Session.solve_under sess ~node_limit:800
    ~assumptions:(base :: List.map (not_sample st) existing)

let project_away_others st p_formula =
  let others =
    List.filter (fun v -> not (List.mem v st.target_vars)) (Formula.vars p_formula)
  in
  if others = [] then Some p_formula
  else
    Trace.span "qe.project"
      ~args:[ ("eliminate", Trace.Int (List.length others)) ]
      (fun () ->
        Qe.project ~method_:st.cfg.Config.qe_method ~eliminate:others p_formula)

(* {2 The FALSE-sample oracle}

   FALSE samples are tuples of the unsatisfaction region:
   exists-free models of [forall others. not p]. Two backends answer it:
   the eager one negates the projection [psi = exists others. p] computed
   by quantifier elimination; when elimination blows up, the query is
   kept in its ∃∀ form and each sample request runs a CEGQI loop
   ([Cegqi]). The backend choice depends only on the formula, so every
   run mode takes the same path and samples stay byte-identical. *)

type false_oracle =
  | Negated_projection of Formula.t
  | Cegqi_block of { univ : int list }

let false_oracle st p_formula =
  let others =
    List.filter (fun v -> not (List.mem v st.target_vars)) (Formula.vars p_formula)
  in
  if others = [] then Negated_projection (Formula.not_ p_formula)
  else
    Trace.span "qe.project"
      ~args:[ ("eliminate", Trace.Int (List.length others)) ]
      (fun () ->
        match
          Qe.project_or_defer ~method_:st.cfg.Config.qe_method ~eliminate:others
            p_formula
        with
        | Qe.Closed psi -> Negated_projection (Formula.not_ psi)
        | Qe.Deferred { univ } -> Cegqi_block { univ })

(* Certified slow path for a CEGQI witness: re-run the universal check —
   the predicate with the whole witness pinned — fresh. Sat means the
   fast path called unsatisfiable a completion the certified solver can
   exhibit: a soundness bug, reported loudly. *)
let rederives_false st ~p_formula (m : Solver.model) =
  let pin =
    Formula.and_
      (List.map
         (fun v ->
           Formula.atom
             (Atom.mk_eq (Linexpr.var v)
                (Linexpr.const (Solver.model_value_strict m v))))
         st.target_vars)
  in
  match
    Solver.solve ~node_limit:800 ~is_int:(Encode.is_int_var st.env)
      (Formula.and_ [ p_formula; pin ])
  with
  | Solver.Unsat -> true
  | Solver.Unknown -> false
  | Solver.Sat _ ->
    raise
      (Cert.Certificate_error
         "cegqi witness: certified solver found a completion for a tuple \
          the fast path called unsatisfiable")

let gen_models_cegqi st ~p_formula ~univ ~extra ~count ~existing =
  Trace.span "samples.gen" ~args:[ ("count", Trace.Int count) ]
  @@ fun () ->
  let is_int = Encode.is_int_var st.env in
  let box = bounds st in
  let excludes = ref (List.map (not_sample st) existing) in
  let samples = ref [] in
  let n = ref 0 in
  let exhausted = ref false in
  let stop = ref false in
  while !n < count && not !exhausted && not !stop do
    let guard = extra @ (box :: !excludes) in
    match
      Cegqi.solve_exists_forall ~is_int ~univ ~matrix:p_formula ~guard ()
    with
    | Cegqi.Unsat_ea _ -> exhausted := true
    | Cegqi.Unknown_ea -> stop := true
    | Cegqi.Witness m ->
      if
        strictly_satisfies guard m
        && (trusts_witness st || rederives_false st ~p_formula m)
      then begin
        let arr =
          Array.of_list
            (List.map (fun v -> Solver.model_value_strict m v) st.target_vars)
        in
        excludes := not_sample st arr :: !excludes;
        samples := arr :: !samples;
        incr n
      end
      else
        (* An unknown on the certified re-derivation: drop the sample and
           end the call without claiming exhaustion. *)
        stop := true
  done;
  (List.rev !samples, !exhausted)

let gen_false st oracle ~p_formula ~extra ~count ~existing =
  match oracle with
  | Negated_projection np ->
    gen_models ~side:Mpool.False_side st
      ~base:(Formula.and_ (np :: extra))
      ~count ~existing
  | Cegqi_block { univ } ->
    gen_models_cegqi st ~p_formula ~univ ~extra ~count ~existing

let residual_false st oracle ~p_formula ~extra ~existing =
  match oracle with
  | Negated_projection np ->
    solve_residual st ~base:(Formula.and_ (np :: extra)) ~existing
  | Cegqi_block { univ } -> (
    Trace.span "samples.residual"
    @@ fun () ->
    let guard = extra @ List.map (not_sample st) existing in
    match
      Cegqi.solve_exists_forall ~node_limit:800
        ~is_int:(Encode.is_int_var st.env) ~univ ~matrix:p_formula ~guard ()
    with
    | Cegqi.Witness m -> Solver.Sat m
    | Cegqi.Unsat_ea _ -> Solver.Unsat
    | Cegqi.Unknown_ea -> Solver.Unknown)
