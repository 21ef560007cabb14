(* Tests for the certifying solver and its independent checker
   ([lib/check]): RUP replay of the DRUP-style proof log, round-trips of
   theory certificates (Farkas leaves, branch trees, divisibility
   expansions, gcd witnesses), rejection of tampered certificates, strict
   model lookup, and a fuzz pass cross-validating paranoid against plain
   solving on random formulas. *)

open Sia_numeric
open Sia_smt
module Rup = Sia_check.Rup
module Check = Sia_check.Check

let qi = Rat.of_int
let v = Linexpr.var
let c = Linexpr.of_int
let sv coeff x = Linexpr.var ~coeff:(qi coeff) x
let all_int = fun _ -> true
let no_int = fun _ -> false

(* SAT literal encoding of the proof log: positive literal of var n is
   2n, negative is 2n+1. *)
let pos n = 2 * n
let neg n = (2 * n) + 1

let with_paranoid flag f =
  let was = Solver.paranoid () in
  Check.install ();
  Solver.set_paranoid flag;
  Fun.protect ~finally:(fun () -> Solver.set_paranoid was) f

(* --- RUP replay --- *)

let test_rup_accepts () =
  let t = Rup.create () in
  Rup.add_clause t [ pos 0; pos 1 ];
  Rup.add_clause t [ neg 0; pos 1 ];
  (* x1 follows by resolution, hence is RUP; x0 does not. *)
  Alcotest.(check bool) "x1 is RUP" true (Rup.check_rup t [ pos 1 ]);
  Alcotest.(check bool) "x0 is not RUP" false (Rup.check_rup t [ pos 0 ])

let test_rup_final () =
  let t = Rup.create () in
  Rup.add_clause t [ pos 0 ];
  Rup.add_clause t [ neg 0; pos 1 ];
  Alcotest.(check bool) "assuming ~x1 refutes" true (Rup.check_final t [ neg 1 ]);
  Alcotest.(check bool) "assuming x1 does not" false (Rup.check_final t [ pos 1 ])

let test_rup_chain () =
  (* Implication chain x0 -> x1 -> x2 -> x3 plus x0: each xi is RUP, and
     the mark/backtrack discipline keeps checks independent. *)
  let t = Rup.create () in
  Rup.add_clause t [ pos 0 ];
  Rup.add_clause t [ neg 0; pos 1 ];
  Rup.add_clause t [ neg 1; pos 2 ];
  Rup.add_clause t [ neg 2; pos 3 ];
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "x%d is RUP" i)
        true
        (Rup.check_rup t [ pos i ]))
    [ 0; 1; 2; 3 ];
  Alcotest.(check bool) "~x3 is not RUP" false (Rup.check_rup t [ neg 3 ])

let test_rup_dead_state () =
  let t = Rup.create () in
  Rup.add_clause t [ pos 0 ];
  Rup.add_clause t [ neg 0 ];
  (* Contradictory units: the empty clause is derivable, everything is
     refuted from here on. *)
  Alcotest.(check bool) "dead state refutes anything" true (Rup.check_final t [])

(* --- Theory certificates --- *)

let get_unsat ~is_int lits =
  match Theory.check_cert ~is_int lits with
  | Theory.Unsat core, Some cert -> (core, cert)
  | Theory.Unsat _, None -> Alcotest.fail "Unsat verdict without a certificate"
  | Theory.Sat _, _ -> Alcotest.fail "expected Unsat, got Sat"
  | Theory.Unknown, _ -> Alcotest.fail "expected Unsat, got Unknown"

let test_farkas_leaf_roundtrip () =
  (* x >= 1 /\ x <= 0: one rational Farkas combination. *)
  let lits =
    [ (Atom.mk_ge (v 0) (c 1), true); (Atom.mk_le (v 0) (c 0), true) ]
  in
  let core, cert = get_unsat ~is_int:no_int lits in
  Check.check_lemma ~is_int:no_int core cert

let test_branch_tree_roundtrip () =
  (* 2x + 3y = 1 in the unit box: LP-feasible (x = 1/2, y = 0), no
     integer point, and no single atom is gcd- or tightening-refutable —
     forces genuine branch and bound. *)
  let lits =
    [
      (Atom.mk_eq (Linexpr.add (sv 2 0) (sv 3 1)) (c 1), true);
      (Atom.mk_ge (v 0) (c 0), true);
      (Atom.mk_le (v 0) (c 1), true);
      (Atom.mk_ge (v 1) (c 0), true);
      (Atom.mk_le (v 1) (c 1), true);
    ]
  in
  let core, cert = get_unsat ~is_int:all_int lits in
  (match cert.Cert.refutation with
   | Cert.Tree (Cert.Branch _) -> ()
   | Cert.Tree (Cert.Leaf _) -> Alcotest.fail "expected a branch, got a leaf"
   | Cert.Gcd _ -> Alcotest.fail "expected a branch tree, got a gcd witness");
  Check.check_lemma ~is_int:all_int core cert

let test_dvd_positive_roundtrip () =
  (* 3 | x /\ x = 1: the divisibility expands to x - 3q = 0 with a fresh
     integer quotient, refuted by branching on q. *)
  let lits =
    [
      (Atom.mk_dvd (Bigint.of_int 3) (v 0), true);
      (Atom.mk_eq (v 0) (c 1), true);
    ]
  in
  let core, cert = get_unsat ~is_int:all_int lits in
  Check.check_lemma ~is_int:all_int core cert

let test_dvd_negative_roundtrip () =
  (* not (2 | x) /\ x = 2: the negated divisibility expands to
     x = 2q + r, 1 <= r <= 1. *)
  let lits =
    [
      (Atom.mk_dvd (Bigint.of_int 2) (v 0), false);
      (Atom.mk_eq (v 0) (c 2), true);
    ]
  in
  let core, cert = get_unsat ~is_int:all_int lits in
  Check.check_lemma ~is_int:all_int core cert

let test_gcd_roundtrip () =
  (* 2x = 1 over the integers: coefficient gcd 2 does not divide 1. *)
  let lits = [ (Atom.mk_eq (sv 2 0) (c 1), true) ] in
  let core, cert = get_unsat ~is_int:all_int lits in
  (match cert.Cert.refutation with
   | Cert.Gcd _ -> ()
   | Cert.Tree _ -> Alcotest.fail "expected a gcd witness");
  Check.check_lemma ~is_int:all_int core cert

let test_tampered_cert_rejected () =
  let lits =
    [ (Atom.mk_ge (v 0) (c 1), true); (Atom.mk_le (v 0) (c 0), true) ]
  in
  let core, cert = get_unsat ~is_int:no_int lits in
  let tampered =
    match cert.Cert.refutation with
    | Cert.Tree (Cert.Leaf fk) ->
      {
        cert with
        Cert.refutation =
          Cert.Tree (Cert.Leaf (List.map (fun (r, q) -> (r, Rat.neg q)) fk));
      }
    | Cert.Tree (Cert.Branch _) | Cert.Gcd _ ->
      Alcotest.fail "expected a single Farkas leaf"
  in
  match Check.check_lemma ~is_int:no_int core tampered with
  | () -> Alcotest.fail "tampered certificate accepted"
  | exception Cert.Certificate_error _ -> ()

let test_wrong_literals_rejected () =
  (* A certificate for one conflict must not check against weaker
     literals that are jointly satisfiable. *)
  let lits =
    [ (Atom.mk_ge (v 0) (c 1), true); (Atom.mk_le (v 0) (c 0), true) ]
  in
  let core, cert = get_unsat ~is_int:no_int lits in
  let weaker =
    List.map
      (fun (a, p) ->
        if Atom.equal a (Atom.mk_le (v 0) (c 0)) then
          (Atom.mk_le (v 0) (c 5), p)
        else (a, p))
      core
  in
  match Check.check_lemma ~is_int:no_int weaker cert with
  | () -> Alcotest.fail "certificate accepted for satisfiable literals"
  | exception Cert.Certificate_error _ -> ()

(* --- Model checking --- *)

let test_model_value_strict () =
  let f = Formula.atom (Atom.mk_ge (v 0) (c 1)) in
  match Solver.solve ~is_int:all_int f with
  | Solver.Sat m ->
    Alcotest.(check bool) "assigned var readable" true
      (Rat.sign (Solver.model_value_strict m 0) > 0);
    (match Solver.model_value_strict m 99 with
     | _ -> Alcotest.fail "expected Invalid_argument on missing var"
     | exception Invalid_argument _ -> ());
    (* The lenient accessor keeps its documented zero default. *)
    Alcotest.(check bool) "lenient zero default" true
      (Rat.equal (Solver.model_value m 99) Rat.zero)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected Sat"

let test_check_model_direct () =
  let f =
    Formula.and_
      [
        Formula.atom (Atom.mk_ge (v 0) (c 1));
        Formula.not_ (Formula.atom (Atom.mk_dvd (Bigint.of_int 2) (v 0)));
      ]
  in
  Check.check_model (fun x -> if x = 0 then qi 3 else raise Not_found) [ f ];
  match
    Check.check_model (fun x -> if x = 0 then qi 4 else raise Not_found) [ f ]
  with
  | () -> Alcotest.fail "violating model accepted"
  | exception Cert.Certificate_error _ -> ()

(* --- Paranoid end-to-end --- *)

let test_session_assumption_unsat_audited () =
  with_paranoid true (fun () ->
      let base =
        Formula.and_
          [
            Formula.atom (Atom.mk_ge (v 0) (c 0));
            Formula.atom (Atom.mk_le (v 0) (c 10));
          ]
      in
      let s = Solver.Session.create ~is_int:all_int base in
      (* Unsat under assumptions exercises the Final-with-assumptions
         proof event; a later Sat query on the same session exercises the
         model audit. Any certificate failure raises out of solve_under. *)
      (match
         Solver.Session.solve_under s
           ~assumptions:[ Formula.atom (Atom.mk_ge (v 0) (c 20)) ]
       with
      | Solver.Unsat -> ()
      | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "expected Unsat");
      match
        Solver.Session.solve_under s
          ~assumptions:[ Formula.atom (Atom.mk_ge (v 0) (c 5)) ]
      with
      | Solver.Sat _ -> ()
      | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected Sat")

let test_node_limit_zero_unknown () =
  (* A zero branch-and-bound budget makes every theory check give up:
     the verdict must be Unknown, never a fabricated Unsat. *)
  let s = Solver.Session.create ~is_int:all_int Formula.tru in
  match
    Solver.Session.solve_under s ~node_limit:0
      ~assumptions:
        [
          Formula.atom (Atom.mk_ge (v 0) (c 0));
          Formula.atom (Atom.mk_le (v 0) (c 5));
        ]
  with
  | Solver.Unknown -> ()
  | Solver.Sat _ -> Alcotest.fail "Sat without a theory check"
  | Solver.Unsat -> Alcotest.fail "Unsat without a theory check"

(* Random formulas over two variables, mixing linear comparisons with
   divisibility atoms so Dvd expansion certificates are fuzzed too. *)
let gen_formula =
  QCheck.Gen.(
    let gen_atom =
      let* a = int_range (-3) 3 in
      let* b = int_range (-3) 3 in
      let* k = int_range (-9) 9 in
      let* kind = int_range 0 4 in
      let e = Linexpr.add (sv a 0) (sv b 1) in
      return
        (match kind with
         | 0 -> Atom.mk_le e (c k)
         | 1 -> Atom.mk_lt e (c k)
         | 2 -> Atom.mk_ge e (c k)
         | 3 -> Atom.mk_eq e (c k)
         | _ -> Atom.mk_dvd (Bigint.of_int (2 + abs k mod 3)) e)
    in
    let rec gen depth =
      if depth = 0 then map Formula.atom gen_atom
      else
        frequency
          [
            (3, map Formula.atom gen_atom);
            ( 2,
              map2
                (fun a b -> Formula.and_ [ a; b ])
                (gen (depth - 1)) (gen (depth - 1)) );
            ( 2,
              map2
                (fun a b -> Formula.or_ [ a; b ])
                (gen (depth - 1)) (gen (depth - 1)) );
            (1, map Formula.not_ (gen (depth - 1)));
          ]
    in
    gen 3)

let prop_paranoid_agrees_with_plain =
  (* Every verdict under auditing must match the unaudited one, across
     integer typings; a certificate rejection raises and fails the test. *)
  QCheck.Test.make ~name:"paranoid verdicts match plain verdicts" ~count:120
    (QCheck.pair (QCheck.make gen_formula) (QCheck.int_range 0 2))
    (fun (f, typing) ->
      let is_int =
        match typing with
        | 0 -> all_int
        | 1 -> no_int
        | _ -> fun x -> x mod 2 = 0
      in
      let cls = function
        | Solver.Sat _ -> 0
        | Solver.Unsat -> 1
        | Solver.Unknown -> 2
      in
      (* The search is deterministic, so capping theory rounds and
         branch-and-bound nodes keeps the two runs comparable (both go
         Unknown at the same point) while bounding the rare pathological
         random instance. *)
      let audited =
        with_paranoid true (fun () ->
            Solver.solve ~max_rounds:300 ~node_limit:60 ~is_int f)
      in
      let plain =
        with_paranoid false (fun () ->
            Solver.solve ~max_rounds:300 ~node_limit:60 ~is_int f)
      in
      cls audited = cls plain)

let test_no_rejections () =
  (* Runs last: nothing in this suite may have produced a certificate the
     checker refused. *)
  let st = Solver.stats () in
  Alcotest.(check int) "cert rejections" 0 st.Solver.cert_rejections;
  Alcotest.(check bool) "certificates were actually checked" true
    (st.Solver.cert_lemmas + st.Solver.cert_proofs + st.Solver.cert_models > 0)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Sia_check.Check.enable ();
  Alcotest.run "check"
    [
      ( "rup",
        [
          Alcotest.test_case "accepts RUP, rejects non-RUP" `Quick test_rup_accepts;
          Alcotest.test_case "final under assumptions" `Quick test_rup_final;
          Alcotest.test_case "propagation chain" `Quick test_rup_chain;
          Alcotest.test_case "dead state" `Quick test_rup_dead_state;
        ] );
      ( "theory-certs",
        [
          Alcotest.test_case "farkas leaf" `Quick test_farkas_leaf_roundtrip;
          Alcotest.test_case "branch tree" `Quick test_branch_tree_roundtrip;
          Alcotest.test_case "dvd positive" `Quick test_dvd_positive_roundtrip;
          Alcotest.test_case "dvd negative" `Quick test_dvd_negative_roundtrip;
          Alcotest.test_case "gcd witness" `Quick test_gcd_roundtrip;
          Alcotest.test_case "tampered rejected" `Quick test_tampered_cert_rejected;
          Alcotest.test_case "wrong literals rejected" `Quick
            test_wrong_literals_rejected;
        ] );
      ( "models",
        [
          Alcotest.test_case "strict lookup" `Quick test_model_value_strict;
          Alcotest.test_case "direct model check" `Quick test_check_model_direct;
        ] );
      ( "paranoid",
        [
          Alcotest.test_case "session assumptions audited" `Quick
            test_session_assumption_unsat_audited;
          Alcotest.test_case "node limit zero is Unknown" `Quick
            test_node_limit_zero_unknown;
        ]
        @ qsuite [ prop_paranoid_agrees_with_plain ]
        @ [ Alcotest.test_case "no rejections" `Quick test_no_rejections ] );
    ]
