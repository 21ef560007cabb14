(* Equivalence of incremental sessions with fresh solving: a persistent
   [Solver.Session] must answer every query in a batch with the same
   Sat/Unsat verdict as a from-scratch [Solver.solve] of the conjoined
   formula, and every Sat model must satisfy base and assumptions. The
   batches deliberately interleave repeated and contradictory queries so
   learnt clauses, theory lemmas, and phase saving from one query are
   live during the next. *)

open Sia_numeric
open Sia_smt
module Ast = Sia_sql.Ast
module Schema = Sia_relalg.Schema
module Qgen = Sia_workload.Qgen
module Encode = Sia_core.Encode

let qi = Rat.of_int
let v = Linexpr.var
let c = Linexpr.of_int
let sv coeff x = Linexpr.var ~coeff:(qi coeff) x
let all_int = fun _ -> true

let verdict = function
  | Solver.Sat _ -> "sat"
  | Solver.Unsat -> "unsat"
  | Solver.Unknown -> "unknown"

(* Fresh-solver reference answer for [base /\ qs]. *)
let fresh ~is_int base qs = Solver.solve ~is_int (Formula.and_ (base :: qs))

(* Run each query list against the session and against a fresh solver;
   verdicts must agree (Unknown on either side excuses the comparison —
   it is resource-dependent) and Sat models must satisfy everything. *)
let check_batch ~is_int base queries =
  let session = Solver.Session.create ~is_int base in
  List.iteri
    (fun i qs ->
      let inc = Solver.Session.solve_under ~assumptions:qs session in
      let ref_ = fresh ~is_int base qs in
      (match (inc, ref_) with
       | Solver.Unknown, _ | _, Solver.Unknown -> ()
       | Solver.Sat _, Solver.Sat _ | Solver.Unsat, Solver.Unsat -> ()
       | _ ->
         Alcotest.failf "query %d: incremental %s but fresh %s" i (verdict inc)
           (verdict ref_));
      match inc with
      | Solver.Sat m ->
        let lookup = Solver.model_value m in
        List.iteri
          (fun j f ->
            if not (Formula.eval f lookup) then
              Alcotest.failf "query %d: model violates formula %d" i j)
          (base :: qs)
      | Solver.Unsat | Solver.Unknown -> ())
    queries

(* --- Batches from the query-generator workload ------------------------- *)

(* For each generated predicate: base = full predicate, queries = each
   conjunct and its negation (so roughly half the batch is Unsat), every
   query asked twice to exercise encoding reuse. *)
let test_qgen_equivalence () =
  let queries = Qgen.generate ~seed:11 ~count:10 () in
  let batches = ref 0 in
  List.iter
    (fun (gq : Qgen.gen_query) ->
      match Encode.build_env Schema.tpch gq.Qgen.query.Ast.from gq.Qgen.pred with
      | exception Encode.Unsupported _ -> ()
      | env ->
        let is_int = Encode.is_int_var env in
        let base = Encode.encode_bool env gq.Qgen.pred in
        let conjuncts =
          List.map (Encode.encode_bool env) (Ast.conjuncts gq.Qgen.pred)
        in
        let per_conjunct f = [ [ f ]; [ Formula.not_ f ]; [ f ] ] in
        incr batches;
        check_batch ~is_int base (List.concat_map per_conjunct conjuncts))
    queries;
  Alcotest.(check bool) "some encodable predicates" true (!batches > 2)

(* --- Random-formula property ------------------------------------------ *)

let gen_atom =
  QCheck.Gen.(
    let* a = int_range (-3) 3 in
    let* b = int_range (-3) 3 in
    let* k = int_range (-9) 9 in
    let* rel = int_range 0 3 in
    let e = Linexpr.add (sv a 0) (sv b 1) in
    return
      (match rel with
       | 0 -> Atom.mk_le e (c k)
       | 1 -> Atom.mk_lt e (c k)
       | 2 -> Atom.mk_ge e (c k)
       | _ -> Atom.mk_eq e (c k)))

let gen_formula =
  QCheck.Gen.(
    let rec gen depth =
      if depth = 0 then map Formula.atom gen_atom
      else
        frequency
          [
            (3, map Formula.atom gen_atom);
            (2, map2 (fun a b -> Formula.and_ [ a; b ]) (gen (depth - 1)) (gen (depth - 1)));
            (2, map2 (fun a b -> Formula.or_ [ a; b ]) (gen (depth - 1)) (gen (depth - 1)));
            (1, map Formula.not_ (gen (depth - 1)));
          ]
    in
    gen 2)

let gen_case =
  QCheck.Gen.(
    let* base = gen_formula in
    let* qs = list_size (int_range 1 6) gen_formula in
    return (base, qs))

let prop_session_matches_fresh =
  QCheck.Test.make ~name:"session verdicts match fresh solve" ~count:150
    (QCheck.make gen_case) (fun (base, qs) ->
      (* Each query alone, then pairs of neighbours, then everything —
         the same session answers all of them. *)
      let batches =
        List.map (fun q -> [ q ]) qs
        @ (match qs with
           | q1 :: q2 :: _ -> [ [ q1; q2 ] ]
           | _ -> [])
        @ [ qs ]
      in
      check_batch ~is_int:all_int base batches;
      true)

(* --- Every verdict is audited ----------------------------------------- *)

(* The checker is enabled for this whole binary (see the runner below),
   so each Sat answer must reach the model auditor — a repeated query
   included: nothing replays an earlier verdict without checking it. *)
let test_repeat_audited () =
  let cert_models () = (Solver.stats ()).Solver.cert_models in
  let audited what solve =
    let m0 = cert_models () in
    (match solve () with
     | Solver.Sat _ -> ()
     | r -> Alcotest.failf "%s: expected sat, got %s" what (verdict r));
    Alcotest.(check bool) (what ^ " audits its model") true (cert_models () > m0)
  in
  let base = Formula.atom (Atom.mk_ge (v 830) (c 27182)) in
  let q = Formula.atom (Atom.mk_le (Linexpr.add (v 830) (sv 3 831)) (c 161803)) in
  let one_shot () = Solver.solve ~is_int:all_int (Formula.and_ [ base; q ]) in
  audited "first solve" one_shot;
  audited "repeated solve" one_shot;
  let session () =
    Solver.Session.solve_under ~assumptions:[ q ]
      (Solver.Session.create ~is_int:all_int base)
  in
  audited "first session query" session;
  audited "repeated session query" session

(* --- Session-specific behaviours -------------------------------------- *)

(* Unsat under assumptions must not poison the session. *)
let test_recovers_after_assumption_unsat () =
  let x0 = Formula.atom (Atom.mk_ge (v 0) (c 0)) in
  let lt5 = Formula.atom (Atom.mk_lt (v 0) (c 5)) in
  let ge5 = Formula.atom (Atom.mk_ge (v 0) (c 5)) in
  let s = Solver.Session.create ~is_int:all_int x0 in
  (match Solver.Session.solve_under ~assumptions:[ lt5; ge5 ] s with
   | Solver.Unsat -> ()
   | r -> Alcotest.failf "contradictory assumptions: %s" (verdict r));
  (match Solver.Session.solve_under ~assumptions:[ lt5 ] s with
   | Solver.Sat m ->
     let x = Solver.model_value m 0 in
     Alcotest.(check bool) "0 <= x < 5" true
       (Rat.compare x Rat.zero >= 0 && Rat.compare x (qi 5) < 0)
   | r -> Alcotest.failf "after recovery: %s" (verdict r));
  match Solver.Session.solve_under s with
  | Solver.Sat _ -> ()
  | r -> Alcotest.failf "no assumptions: %s" (verdict r)

(* add_clause is permanent; later queries see it. *)
let test_add_clause_is_permanent () =
  let s = Solver.Session.create ~is_int:all_int Formula.tru in
  let ge3 = Formula.atom (Atom.mk_ge (v 0) (c 3)) in
  let lt3 = Formula.atom (Atom.mk_lt (v 0) (c 3)) in
  Solver.Session.add_clause s ge3;
  (match Solver.Session.solve_under ~assumptions:[ lt3 ] s with
   | Solver.Unsat -> ()
   | r -> Alcotest.failf "clause ignored: %s" (verdict r));
  match Solver.Session.solve_under s with
  | Solver.Sat m ->
    Alcotest.(check bool) "x >= 3" true (Rat.compare (Solver.model_value m 0) (qi 3) >= 0)
  | r -> Alcotest.failf "sat expected: %s" (verdict r)

(* Enumeration on a session: distinct models, all satisfying base and
   assumptions; the blocking is scoped to the call, so later queries are
   unaffected while explicit exclusion assumptions still work. *)
let test_solve_many_under () =
  let box lo hi =
    Formula.and_
      [
        Formula.atom (Atom.mk_ge (v 0) (c lo));
        Formula.atom (Atom.mk_lt (v 0) (c hi));
      ]
  in
  let s = Solver.Session.create ~is_int:all_int (box 0 10) in
  let even = Formula.atom (Atom.mk_dvd (Bigint.of_int 2) (v 0)) in
  let models, exhausted =
    Solver.Session.solve_many_under ~assumptions:[ even ] ~count:20
      ~distinct_on:[ 0 ] s
  in
  Alcotest.(check int) "five even values in [0,10)" 5 (List.length models);
  Alcotest.(check bool) "exhausted" true exhausted;
  let values = List.map (fun m -> Solver.model_value m 0) models in
  Alcotest.(check int) "pairwise distinct" 5
    (List.length (List.sort_uniq Rat.compare values));
  List.iter
    (fun m ->
      let lookup = Solver.model_value m in
      Alcotest.(check bool) "model satisfies base and assumption" true
        (Formula.eval (box 0 10) lookup && Formula.eval even lookup))
    models;
  (* Blocking was scoped to the enumeration: the same query is Sat again. *)
  (match Solver.Session.solve_under ~assumptions:[ even ] s with
   | Solver.Sat _ -> ()
   | r -> Alcotest.failf "call-scoped blocking leaked: %s" (verdict r));
  (* Explicit exclusion of all five values is how callers re-block. *)
  let exclude =
    Formula.and_
      (List.map
         (fun value ->
           Formula.not_ (Formula.atom (Atom.mk_eq (v 0) (Linexpr.const value))))
         values)
  in
  match Solver.Session.solve_under ~assumptions:[ even; exclude ] s with
  | Solver.Unsat -> ()
  | r -> Alcotest.failf "exclusion assumptions ignored: %s" (verdict r)

(* One encoding per distinct side formula, however often it is queried. *)
let test_encoding_reuse () =
  let s = Solver.Session.create ~is_int:all_int Formula.tru in
  let f1 = Formula.atom (Atom.mk_ge (v 0) (c 1)) in
  let f2 = Formula.atom (Atom.mk_le (v 0) (c 8)) in
  for _ = 1 to 5 do
    ignore (Solver.Session.solve_under ~assumptions:[ f1; f2 ] s);
    ignore (Solver.Session.solve_under ~assumptions:[ f2 ] s)
  done;
  Alcotest.(check int) "two side encodings for ten queries" 2
    (Solver.Session.n_encodings s)

(* --- Raw SAT-level assumptions ---------------------------------------- *)

let test_sat_assumptions () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a; Sat.pos b ];
  Alcotest.(check bool) "sat under ~a" true (Sat.solve ~assumptions:[ Sat.neg_lit a ] s);
  Alcotest.(check bool) "b forced" true (Sat.value s b);
  Alcotest.(check bool) "unsat under ~a ~b" false
    (Sat.solve ~assumptions:[ Sat.neg_lit a; Sat.neg_lit b ] s);
  (* The instance survives an assumption-unsat answer. *)
  Alcotest.(check bool) "still sat without assumptions" true (Sat.solve s);
  Alcotest.(check bool) "sat under a ~b" true
    (Sat.solve ~assumptions:[ Sat.pos a; Sat.neg_lit b ] s);
  Alcotest.(check bool) "a assigned" true (Sat.value s a)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Sia_check.Check.enable ();
  Alcotest.run "incremental"
    [
      ( "equivalence",
        [ Alcotest.test_case "qgen batches" `Quick test_qgen_equivalence ]
        @ qsuite [ prop_session_matches_fresh ] );
      ( "session",
        [
          Alcotest.test_case "recovers after assumption unsat" `Quick
            test_recovers_after_assumption_unsat;
          Alcotest.test_case "add_clause permanent" `Quick test_add_clause_is_permanent;
          Alcotest.test_case "solve_many_under" `Quick test_solve_many_under;
          Alcotest.test_case "encoding reuse" `Quick test_encoding_reuse;
          Alcotest.test_case "sat-level assumptions" `Quick test_sat_assumptions;
        ] );
      ( "audit",
        [ Alcotest.test_case "repeated query re-audited" `Quick test_repeat_audited ] );
    ]
