open Sia_numeric
module Trace = Sia_trace.Trace

(* Atom-keyed tables must hash/compare through Atom's own functions:
   atoms embed Rat coefficients, and the polymorphic hash would key on
   their physical representation. *)
module AtomTbl = Hashtbl.Make (Atom)

type model = (int * Rat.t) list

type result =
  | Sat of model
  | Unsat
  | Unknown

let result_label = function
  | Sat _ -> "sat"
  | Unsat -> "unsat"
  | Unknown -> "unknown"

let model_value m v = match List.assoc_opt v m with Some r -> r | None -> Rat.zero

(* Strict variant for call sites that require a total model (the
   certificate checker, countermodel extraction): a missing assignment is
   a bug, not a zero. *)
let model_value_strict m v =
  match List.assoc_opt v m with
  | Some r -> r
  | None ->
    invalid_arg
      (Printf.sprintf "Solver.model_value_strict: variable %d unassigned" v)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  queries : int;
  sat_answers : int;
  unsat_answers : int;
  unknown_answers : int;
  cache_hits : int;
  encodings : int;
  instances : int;
  theory_rounds : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  pivots : int;
  tableau_rebuilds : int;
  reused_rounds : int;
  shared_hits : int;
  shared_misses : int;
  pool_hits : int;
  underapprox_solves : int;
  gen_fallbacks : int;
  cegqi_instantiations : int;
  encode_time : float;
  search_time : float;
  theory_time : float;
  cert_lemmas : int;
  cert_proofs : int;
  cert_models : int;
  cert_rejections : int;
  cert_time : float;
}

let stats_zero =
  {
    queries = 0;
    sat_answers = 0;
    unsat_answers = 0;
    unknown_answers = 0;
    cache_hits = 0;
    encodings = 0;
    instances = 0;
    theory_rounds = 0;
    conflicts = 0;
    propagations = 0;
    restarts = 0;
    pivots = 0;
    tableau_rebuilds = 0;
    reused_rounds = 0;
    shared_hits = 0;
    shared_misses = 0;
    pool_hits = 0;
    underapprox_solves = 0;
    gen_fallbacks = 0;
    cegqi_instantiations = 0;
    encode_time = 0.0;
    search_time = 0.0;
    theory_time = 0.0;
    cert_lemmas = 0;
    cert_proofs = 0;
    cert_models = 0;
    cert_rejections = 0;
    cert_time = 0.0;
  }

let totals = ref stats_zero
let stats () = !totals

(* Field-wise combination of two stats records: [i] on the counters, [f]
   on the times. Sums and deltas are both this walk. *)
let stats_map2 i f a b =
  {
    queries = i a.queries b.queries;
    sat_answers = i a.sat_answers b.sat_answers;
    unsat_answers = i a.unsat_answers b.unsat_answers;
    unknown_answers = i a.unknown_answers b.unknown_answers;
    cache_hits = i a.cache_hits b.cache_hits;
    encodings = i a.encodings b.encodings;
    instances = i a.instances b.instances;
    theory_rounds = i a.theory_rounds b.theory_rounds;
    conflicts = i a.conflicts b.conflicts;
    propagations = i a.propagations b.propagations;
    restarts = i a.restarts b.restarts;
    pivots = i a.pivots b.pivots;
    tableau_rebuilds = i a.tableau_rebuilds b.tableau_rebuilds;
    reused_rounds = i a.reused_rounds b.reused_rounds;
    shared_hits = i a.shared_hits b.shared_hits;
    shared_misses = i a.shared_misses b.shared_misses;
    pool_hits = i a.pool_hits b.pool_hits;
    underapprox_solves = i a.underapprox_solves b.underapprox_solves;
    gen_fallbacks = i a.gen_fallbacks b.gen_fallbacks;
    cegqi_instantiations = i a.cegqi_instantiations b.cegqi_instantiations;
    encode_time = f a.encode_time b.encode_time;
    search_time = f a.search_time b.search_time;
    theory_time = f a.theory_time b.theory_time;
    cert_lemmas = i a.cert_lemmas b.cert_lemmas;
    cert_proofs = i a.cert_proofs b.cert_proofs;
    cert_models = i a.cert_models b.cert_models;
    cert_rejections = i a.cert_rejections b.cert_rejections;
    cert_time = f a.cert_time b.cert_time;
  }

let stats_add = stats_map2 ( + ) ( +. )

(* Merge a delta computed elsewhere — a worker process's [stats_since]
   over its lifetime — into this process's totals. The pool calls this
   once per worker so that [stats ()] in the parent reflects work done on
   its behalf in forked children. *)
let absorb_stats s = totals := stats_add !totals s

let stats_since s0 = stats_map2 ( - ) ( -. ) !totals s0

let pp_stats fmt s =
  Format.fprintf fmt
    "queries=%d (sat=%d unsat=%d unknown=%d) encodings=%d \
     instances=%d theory-rounds=%d (reused=%d rebuilds=%d) \
     pool=%d underapprox=%d fallbacks=%d cegqi=%d \
     conflicts=%d propagations=%d restarts=%d \
     pivots=%d encode=%.3fs search=%.3fs (theory=%.3fs) certs=%d/%d/%d \
     rejected=%d cert=%.3fs"
    s.queries s.sat_answers s.unsat_answers s.unknown_answers
    s.encodings s.instances s.theory_rounds s.reused_rounds
    s.tableau_rebuilds s.pool_hits s.underapprox_solves s.gen_fallbacks
    s.cegqi_instantiations s.conflicts s.propagations s.restarts s.pivots s.encode_time s.search_time
    s.theory_time s.cert_lemmas s.cert_proofs s.cert_models s.cert_rejections
    s.cert_time

(* Sample-generation fast-path counters. The ladder itself lives above
   the solver (Mpool / Samples); the counters live here so the existing
   per-phase snapshot and fork-pool absorption plumbing covers them. *)
let note_pool_hits n = totals := { !totals with pool_hits = !totals.pool_hits + n }

let note_underapprox_solve () =
  totals := { !totals with underapprox_solves = !totals.underapprox_solves + 1 }

let note_gen_fallback () =
  totals := { !totals with gen_fallbacks = !totals.gen_fallbacks + 1 }

let note_cegqi_instantiation () =
  totals :=
    { !totals with cegqi_instantiations = !totals.cegqi_instantiations + 1 }

let bump_query () = totals := { !totals with queries = !totals.queries + 1 }

let bump_encoding dt =
  totals :=
    {
      !totals with
      encodings = !totals.encodings + 1;
      encode_time = !totals.encode_time +. dt;
    }

let count_answer r =
  (totals :=
     match r with
     | Sat _ -> { !totals with sat_answers = !totals.sat_answers + 1 }
     | Unsat -> { !totals with unsat_answers = !totals.unsat_answers + 1 }
     | Unknown -> { !totals with unknown_answers = !totals.unknown_answers + 1 });
  r

(* ------------------------------------------------------------------ *)
(* Certificate auditing                                                *)
(* ------------------------------------------------------------------ *)

(* The solver produces certificates; checking them lives in [lib/check],
   which must not be a dependency of this library (it would invert the
   trust relationship: the checker depends on the formula/atom types
   only, not on solver internals). The checker therefore injects itself
   here as an [auditor] factory; in paranoid mode every new instance gets
   its own auditor, which receives the full proof-event stream, every
   theory lemma with its certificate, and every model before it is
   returned. Auditors raise {!Cert.Certificate_error} on a bad
   certificate — verdicts never silently pass unaudited. *)
type auditor = {
  on_sat_event : Cert.sat_event -> unit;
  on_lemma : is_int:(int -> bool) -> Theory.lit list -> Cert.theory_cert -> unit;
  on_model : (int -> Rat.t) -> Formula.t list -> unit;
}

let paranoid_flag = ref false
let set_paranoid b = paranoid_flag := b
let paranoid () = !paranoid_flag

let auditor_factory : (unit -> auditor) option ref = ref None
let set_auditor_factory f = auditor_factory := Some f

let new_auditor () =
  if !paranoid_flag then
    match !auditor_factory with Some f -> Some (f ()) | None -> None
  else None

let bump_cert_time dt =
  totals := { !totals with cert_time = !totals.cert_time +. dt }

(* Run one audit step, timing it and counting the outcome. Certificate
   rejections propagate to the caller: a rejection means either a solver
   soundness bug or a checker bug, and both must be loud. *)
let audited kind f =
  let t0 = Sys.time () in
  match f () with
  | () -> (
    bump_cert_time (Sys.time () -. t0);
    match kind with
    | `Event -> ()
    | `Proof -> totals := { !totals with cert_proofs = !totals.cert_proofs + 1 }
    | `Lemma -> totals := { !totals with cert_lemmas = !totals.cert_lemmas + 1 }
    | `Model -> totals := { !totals with cert_models = !totals.cert_models + 1 })
  | exception e ->
    bump_cert_time (Sys.time () -. t0);
    (match e with
     | Cert.Certificate_error _ ->
       totals := { !totals with cert_rejections = !totals.cert_rejections + 1 }
     | _ -> ());
    raise e

let traced aud ev =
  audited
    (match ev with Cert.Final _ -> `Proof | Cert.Given _ | Cert.Learnt _ -> `Event)
    (fun () -> aud.on_sat_event ev)

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* Tseitin encoding, implication direction only (sufficient for
   satisfiability): the formula is in NNF, so it is monotone in its
   literals, except for Dvd atoms which may occur under both polarities and
   whose assignments are therefore always passed to the theory.

   The implication-only direction is also what makes the returned root
   literal usable as an activation literal: assuming the root turns the
   formula on, while leaving it unassumed makes its clauses vacuous. *)
let encode sat atom_var f =
  let rec enc f =
    match f with
    | Formula.True ->
      let p = Sat.new_var sat in
      Sat.pos p
    | Formula.False ->
      let p = Sat.new_var sat in
      Sat.add_clause sat [ Sat.neg_lit p ];
      Sat.pos p
    | Formula.Atom a -> Sat.pos (atom_var a)
    | Formula.Not (Formula.Atom (Atom.Dvd _ as a)) -> Sat.neg_lit (atom_var a)
    | Formula.Not _ -> invalid_arg "Solver.encode: formula not in NNF"
    | Formula.And fs ->
      let p = Sat.new_var sat in
      List.iter (fun g -> Sat.add_clause sat [ Sat.neg_lit p; enc g ]) fs;
      Sat.pos p
    | Formula.Or fs ->
      let p = Sat.new_var sat in
      let lits = List.map enc fs in
      Sat.add_clause sat (Sat.neg_lit p :: lits);
      Sat.pos p
  in
  enc f

type instance = {
  sat : Sat.t;
  atom_tbl : int AtomTbl.t;
  mutable atoms : (Atom.t * int) list;
  mutable max_atom_var : int; (* max theory var over [atoms]; -1 if none *)
  fvars : int list;
  formula : Formula.t; (* NNF *)
  aud : auditor option;
  (* Theory session kept across runs on this instance. The simplex layer
     guarantees every check is bit-identical to one-shot solving
     regardless of tableau history, so reuse only changes cost, never
     answers. Recreated when a new atom's variable reaches the session's
     witness range. *)
  mutable tsess : Theory.session option;
}

let make_instance f =
  Trace.span "smt.encode"
  @@ fun () ->
  let t0 = Sys.time () in
  let sat = Sat.create () in
  (* The tracer must be live before the first clause of the encoding, or
     the replayed clause set would be incomplete. *)
  let aud = new_auditor () in
  (match aud with Some a -> Sat.set_tracer sat (traced a) | None -> ());
  let atom_tbl = AtomTbl.create 64 in
  let inst =
    {
      sat;
      atom_tbl;
      atoms = [];
      max_atom_var = -1;
      fvars = Formula.vars f;
      formula = f;
      aud;
      tsess = None;
    }
  in
  let atom_var a =
    match AtomTbl.find_opt atom_tbl a with
    | Some v -> v
    | None ->
      let v = Sat.new_var sat in
      AtomTbl.add atom_tbl a v;
      inst.atoms <- (a, v) :: inst.atoms;
      inst.max_atom_var <- List.fold_left max inst.max_atom_var (Atom.vars a);
      v
  in
  let root = encode sat atom_var f in
  Sat.add_clause sat [ root ];
  totals := { !totals with instances = !totals.instances + 1 };
  bump_encoding (Sys.time () -. t0);
  inst

let atom_var inst a =
  match AtomTbl.find_opt inst.atom_tbl a with
  | Some v -> v
  | None ->
    let v = Sat.new_var inst.sat in
    AtomTbl.add inst.atom_tbl a v;
    inst.atoms <- (a, v) :: inst.atoms;
    inst.max_atom_var <- List.fold_left max inst.max_atom_var (Atom.vars a);
    v

let default_node_limit = 4000 (* Theory.check_cert's default *)

(* One DPLL(T) run on the current clause set, optionally under assumption
   literals. [check] lists extra formulas (beyond [inst.formula]) that the
   caller asserted via assumptions: their variables join the model padding
   and the returned model is validated against them too.

   [theory_atoms], when given, restricts which atoms are passed to the
   theory solver. On a long-lived session only the atoms of the base
   formula, of the current assumptions, and of the model-blocking clauses
   are relevant to the query; stale atoms from earlier queries stay
   boolean-assigned (phase saving) but constraining the arithmetic model
   with them would make every simplex call grow with session age — and
   their values are free as far as this query's formulas are concerned.
   Soundness is unchanged: the encoding is monotone NNF, so root truth
   only rests on the checked atoms, and the model is still validated
   against the full formulas below. The restricted atoms are a subset of
   the instance's own, so theory conflicts resolve back to SAT variables
   through [inst.atom_tbl]. *)
let run_instance ?(max_rounds = 50_000) ?node_limit ?(assumptions = [])
    ?(check = []) ?fvars ?theory_atoms ~is_int inst =
  if Trace.enabled () then
    Trace.begin_span "smt.solve"
      ~args:
        [
          ("atoms", Trace.Int (List.length inst.atoms));
          ("assumptions", Trace.Int (List.length assumptions));
        ];
  let t0 = Sys.time () in
  let c0 = Sat.n_conflicts inst.sat in
  let p0 = Sat.n_propagations inst.sat in
  let r0 = Sat.n_restarts inst.sat in
  let pv0 = Simplex.pivot_count () in
  let ru0 = Theory.reused_round_count () in
  let rb0 = Theory.rebuild_count () in
  (* Model-padding variables: everything the validated formulas mention.
     Sessions precompute this once per query ([fvars]) — walking every
     check formula again on each enumeration step is pure waste. *)
  let fvars =
    match (fvars, check) with
    | Some fv, _ -> fv
    | None, [] -> inst.fvars
    | None, _ ->
      List.sort_uniq Stdlib.compare
        (List.rev_append (List.concat_map Formula.vars check) inst.fvars)
  in
  let atoms = match theory_atoms with Some l -> l | None -> inst.atoms in
  (* The theory session lives on the instance and is shared across runs:
     consecutive theory rounds — and consecutive runs of a long-lived
     session — share the incremental tableau, diffing each
     round's literal set against the previous one. The session's witness
     range starts above every atom variable of the instance (a superset
     of any run's [atoms]); when a later query encodes an atom whose
     variable reaches that range, the session is recreated one size up.
     Witness ids shift across recreations, which is unobservable: models
     are filtered to input variables and certificates are phrased over
     literal positions. *)
  let max_var = max 0 inst.max_atom_var in
  let tsession =
    match inst.tsess with
    | Some ts when Theory.session_fresh_base ts > max_var ->
      Theory.set_session_node_limit ts
        (Option.value node_limit ~default:default_node_limit);
      ts
    | _ ->
      let ts = Theory.create_session ~is_int ?node_limit ~max_var () in
      inst.tsess <- Some ts;
      ts
  in
  let rec loop round =
    if round > max_rounds then Unknown
    else if
      not
        (Trace.span "sat.search" (fun () -> Sat.solve ~assumptions inst.sat))
    then Unsat
    else begin
      (* Theory literals from the boolean model: positive Lin atoms, and
         Dvd atoms under either polarity. *)
      let lits =
        List.filter_map
          (fun (a, v) ->
            let value = Sat.value inst.sat v in
            match a with
            | Atom.Lin _ -> if value then Some (a, true) else None
            | Atom.Dvd _ -> Some (a, value))
          atoms
      in
      let tt0 = Sys.time () in
      if Trace.enabled () then
        Trace.begin_span "theory.check"
          ~args:
            [ ("round", Trace.Int round); ("lits", Trace.Int (List.length lits)) ];
      let verdict, cert =
        match Theory.check_cert_session tsession lits with
        | vc -> vc
        | exception e ->
          if Trace.enabled () then
            Trace.end_span "theory.check"
              ~args:[ ("exn", Trace.String (Printexc.to_string e)) ];
          raise e
      in
      if Trace.enabled () then
        Trace.end_span "theory.check"
          ~args:
            [
              ( "verdict",
                Trace.String
                  (match verdict with
                   | Theory.Sat _ -> "sat"
                   | Theory.Unsat _ -> "unsat"
                   | Theory.Unknown -> "unknown") );
            ];
      totals :=
        {
          !totals with
          theory_rounds = !totals.theory_rounds + 1;
          theory_time = !totals.theory_time +. (Sys.time () -. tt0);
        };
      match verdict with
      | Theory.Unknown -> Unknown
      | Theory.Sat m ->
        let assigned = Hashtbl.create 64 in
        List.iter (fun (v, _) -> Hashtbl.replace assigned v ()) m;
        let m =
          List.fold_left
            (fun acc v ->
              if Hashtbl.mem assigned v then acc
              else begin
                Hashtbl.replace assigned v ();
                (v, Rat.zero) :: acc
              end)
            m fvars
        in
        (* The model is padded over every variable of the formulas below,
           so the strict lookup cannot raise on a correct model — and a
           model that misses one of their variables is exactly the bug the
           strict lookup exists to expose. *)
        let lookup = model_value_strict m in
        let vformulas = inst.formula :: check in
        (match inst.aud with
         | Some a ->
           (* Paranoid: the independent evaluator replaces the inline
              backstop (it checks the same formulas with its own atom
              semantics and raises {!Cert.Certificate_error}). *)
           audited `Model (fun () -> a.on_model lookup vformulas)
         | None ->
           if not (List.for_all (fun f -> Formula.eval f lookup) vformulas)
           then
             failwith "Solver.solve: internal error, model does not satisfy formula");
        Sat m
      | Theory.Unsat core ->
        (match inst.aud with
         | Some a ->
           let cert =
             match cert with
             | Some c -> c
             | None ->
               raise (Cert.Certificate_error "theory Unsat without certificate")
           in
           audited `Lemma (fun () -> a.on_lemma ~is_int core cert)
         | None -> ());
        let blocking =
          List.map
            (fun (a, polarity) ->
              let v = AtomTbl.find inst.atom_tbl a in
              if polarity then Sat.neg_lit v else Sat.pos v)
            core
        in
        Sat.add_clause inst.sat blocking;
        loop (round + 1)
    end
  in
  let r =
    match loop 0 with
    | r -> r
    | exception e ->
      if Trace.enabled () then
        Trace.end_span "smt.solve"
          ~args:[ ("exn", Trace.String (Printexc.to_string e)) ];
      raise e
  in
  totals :=
    {
      !totals with
      search_time = !totals.search_time +. (Sys.time () -. t0);
      conflicts = !totals.conflicts + (Sat.n_conflicts inst.sat - c0);
      propagations = !totals.propagations + (Sat.n_propagations inst.sat - p0);
      restarts = !totals.restarts + (Sat.n_restarts inst.sat - r0);
      pivots = !totals.pivots + (Simplex.pivot_count () - pv0);
      reused_rounds = !totals.reused_rounds + (Theory.reused_round_count () - ru0);
      tableau_rebuilds = !totals.tableau_rebuilds + (Theory.rebuild_count () - rb0);
    };
  if Trace.enabled () then
    Trace.end_span "smt.solve"
      ~args:
        [
          ("result", Trace.String (result_label r));
          ("conflicts", Trace.Int (Sat.n_conflicts inst.sat - c0));
          ("pivots", Trace.Int (Simplex.pivot_count () - pv0));
        ];
  r

(* ------------------------------------------------------------------ *)
(* One-shot solving                                                    *)
(* ------------------------------------------------------------------ *)

(* Downstream layers (the model pool, the serve-mode rewrite cache) hold
   derived state that differential harnesses want cold; they register a
   flush here rather than the solver depending on them. *)
let reset_hooks : (unit -> unit) list ref = ref []
let on_reset_caches f = reset_hooks := f :: !reset_hooks
let reset_caches () = List.iter (fun f -> f ()) !reset_hooks

(* Every call builds its own instance, so in paranoid mode the verdict of
   this very call is certificate-checked. *)
let solve ?max_rounds ?node_limit ~is_int f =
  let f = Formula.nnf f in
  bump_query ();
  match f with
  | Formula.True ->
    count_answer (Sat (List.map (fun v -> (v, Rat.zero)) (Formula.vars f)))
  | Formula.False -> count_answer Unsat
  | _ ->
    count_answer (run_instance ?max_rounds ?node_limit ~is_int (make_instance f))

(* Exclude the model (on [distinct_on]) from later queries for as long as
   the [guard] literal is false. Returns the fresh disequality atoms, which
   join the abstraction and must be theory-checked by every query the
   clause is live for. *)
let block_model ~guard inst ~distinct_on m =
  let pairs =
    List.concat_map
      (fun v ->
        let value = Linexpr.const (model_value m v) in
        let lt = Atom.mk_lt (Linexpr.var v) value in
        let gt = Atom.mk_gt (Linexpr.var v) value in
        [ (lt, atom_var inst lt); (gt, atom_var inst gt) ])
      distinct_on
  in
  let lits = List.map (fun (_, v) -> Sat.pos v) pairs in
  Sat.add_clause inst.sat (guard :: lits);
  pairs

let entails ~is_int p q =
  match solve ~is_int (Formula.and_ [ p; Formula.not_ q ]) with
  | Sat _ -> Some false
  | Unsat -> Some true
  | Unknown -> None

(* ------------------------------------------------------------------ *)
(* Persistent sessions                                                 *)
(* ------------------------------------------------------------------ *)

module FTbl = Hashtbl.Make (Formula)

module Session = struct
  type session = {
    inst : instance;
    is_int : int -> bool;
    (* NNF formula -> activation literal and the formula's atoms *)
    lits : (Sat.lit * (Atom.t * int) list) FTbl.t;
    base_atoms : (Atom.t * int) list;
    (* Formulas permanently asserted via [add_clause], with their atoms:
       always theory-relevant and always part of model validation. *)
    mutable asserted : Formula.t list;
    mutable asserted_atoms : (Atom.t * int) list;
  }

  type t = session

  let create ~is_int base =
    let base = Formula.nnf base in
    let inst = make_instance base in
    {
      inst;
      is_int;
      lits = FTbl.create 64;
      base_atoms = inst.atoms;
      asserted = [];
      asserted_atoms = [];
    }

  (* Activation literal for a formula: encoded once per session, then
     reused by every later query that assumes or asserts it. Because the
     encoding is implication-only, an unassumed activation literal leaves
     its clauses vacuously satisfiable. *)
  let lit t f =
    let f = Formula.nnf f in
    match FTbl.find_opt t.lits f with
    | Some entry -> entry
    | None ->
      let t0 = Sys.time () in
      let l = Trace.span "smt.encode" (fun () -> encode t.inst.sat (atom_var t.inst) f) in
      bump_encoding (Sys.time () -. t0);
      let entry =
        (l, List.map (fun a -> (a, atom_var t.inst a)) (Formula.atoms f))
      in
      FTbl.add t.lits f entry;
      entry

  let add_clause t f =
    let l, atoms = lit t f in
    Sat.add_clause t.inst.sat [ l ];
    t.asserted <- f :: t.asserted;
    t.asserted_atoms <- List.rev_append atoms t.asserted_atoms

  (* Atoms the theory must check for this query: base, permanently
     asserted formulas, current assumptions, and (during enumeration) the
     current call's model-blocking clauses, deduplicated. Stale atoms
     from other queries are deliberately left out — see [run_instance]. *)
  let relevant_atoms t query_atoms =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun (_, v) ->
        if Hashtbl.mem seen v then false
        else begin
          Hashtbl.add seen v ();
          true
        end)
      (t.base_atoms @ t.asserted_atoms @ query_atoms)

  (* Per-query state that is invariant across the steps of one
     enumeration: the assumptions' activation literals and atoms, the
     model-validation formula list and its variable closure. Computed
     once by [prep]; [solve_many_under] re-uses it for every model of the
     call instead of re-walking hundreds of exclusion formulas per step. *)
  type prepped = {
    p_lits : Sat.lit list;
    p_atoms : (Atom.t * int) list;
    p_check : Formula.t list;
    p_fvars : int list;
  }

  let prep t assumptions =
    let assumptions = List.map Formula.nnf assumptions in
    let encoded = List.map (lit t) assumptions in
    let check = t.asserted @ assumptions in
    let fvars =
      match check with
      | [] -> t.inst.fvars
      | _ ->
        List.sort_uniq Stdlib.compare
          (List.rev_append (List.concat_map Formula.vars check) t.inst.fvars)
    in
    {
      p_lits = List.map fst encoded;
      p_atoms = List.concat_map snd encoded;
      p_check = check;
      p_fvars = fvars;
    }

  (* [extra_lits]/[extra_atoms] carry raw per-call state (the enumeration
     guard and its blocking atoms) that has no formula counterpart. *)
  let run_prepped ?max_rounds ?node_limit ?(extra_lits = []) ?(extra_atoms = [])
      t p =
    bump_query ();
    count_answer
      (run_instance ?max_rounds ?node_limit
         ~assumptions:(extra_lits @ p.p_lits)
         ~check:p.p_check ~fvars:p.p_fvars
         ~theory_atoms:(relevant_atoms t (extra_atoms @ p.p_atoms))
         ~is_int:t.is_int t.inst)

  let solve_under ?max_rounds ?node_limit ?(assumptions = []) t =
    run_prepped ?max_rounds ?node_limit t (prep t assumptions)

  (* Model-blocking clauses are scoped to this call by a fresh activation
     literal: assumed while enumerating, vacuous afterwards. The session's
     later theory checks therefore do not pay for past enumerations;
     callers that need earlier models excluded again pass explicit
     exclusion assumptions. *)
  let solve_many_under ?max_rounds ?(assumptions = []) ~count ~distinct_on t =
    if count <= 0 then ([], false)
    else begin
      let p = prep t assumptions in
      let guard = Sat.new_var t.inst.sat in
      let blocked = ref [] in
      let models = ref [] in
      let n = ref 0 in
      let exhausted = ref false in
      while !n < count && not !exhausted do
        match
          run_prepped ?max_rounds ~extra_lits:[ Sat.pos guard ]
            ~extra_atoms:!blocked t p
        with
        | Unsat | Unknown -> exhausted := true
        | Sat m ->
          models := m :: !models;
          incr n;
          if distinct_on = [] then exhausted := true
          else
            blocked :=
              List.rev_append
                (block_model ~guard:(Sat.neg_lit guard) t.inst ~distinct_on m)
                !blocked
      done;
      (* Retire the guard: its blocking clauses are satisfied at level 0
         from now on and never constrain another query. *)
      Sat.add_clause t.inst.sat [ Sat.neg_lit guard ];
      (List.rev !models, !exhausted)
    end

  let n_encodings t = FTbl.length t.lits
end
