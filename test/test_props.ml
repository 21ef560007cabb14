(* Cross-cutting property tests on the SMT substrate: normal forms
   preserve semantics, canonicalization respects truth, enumeration is
   sound and distinct, and the two QE methods agree where both are exact. *)

open Sia_numeric
open Sia_smt

let qi = Rat.of_int
let v = Linexpr.var
let c = Linexpr.of_int
let sv coeff x = Linexpr.var ~coeff:(qi coeff) x
let all_int = fun _ -> true

(* Random formula generator over 3 variables: comparisons combined with
   And/Or/Not up to depth 3. *)
let gen_formula =
  QCheck.Gen.(
    let gen_atom =
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
         | _ -> Atom.mk_eq e (c k))
    in
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
    gen 3)

let sample_points =
  [ (0, 0); (1, -1); (-3, 2); (5, 5); (-7, -2); (2, 9); (-9, -9); (4, -6) ]

let lookup_of (x, y) var = if var = 0 then qi x else if var = 1 then qi y else Rat.zero

let prop_nnf_preserves_semantics =
  QCheck.Test.make ~name:"nnf preserves semantics" ~count:300 (QCheck.make gen_formula)
    (fun f ->
      let g = Formula.nnf f in
      List.for_all
        (fun pt -> Formula.eval f (lookup_of pt) = Formula.eval g (lookup_of pt))
        sample_points)

let prop_dnf_preserves_semantics =
  QCheck.Test.make ~name:"dnf preserves semantics" ~count:200 (QCheck.make gen_formula)
    (fun f ->
      match Formula.dnf f with
      | None -> true
      | Some cubes ->
        let eval_cubes pt =
          List.exists
            (fun cube ->
              List.for_all
                (fun (a, polarity) -> Atom.eval a (lookup_of pt) = polarity)
                cube)
            cubes
        in
        List.for_all
          (fun pt -> Formula.eval f (lookup_of pt) = eval_cubes pt)
          sample_points)

let prop_atom_canon_preserves_truth =
  (* mk_le a b must hold exactly when a <= b pointwise, whatever the
     internal scaling does. *)
  QCheck.Test.make ~name:"atom canonicalization preserves truth" ~count:300
    (QCheck.quad (QCheck.int_range (-6) 6) (QCheck.int_range (-6) 6)
       (QCheck.int_range (-20) 20) (QCheck.int_range 0 2))
    (fun (a, b, k, rel) ->
      let e1 = Linexpr.add (sv a 0) (sv b 1) in
      let e2 = c k in
      let atom =
        match rel with
        | 0 -> Atom.mk_le e1 e2
        | 1 -> Atom.mk_lt e1 e2
        | _ -> Atom.mk_eq e1 e2
      in
      List.for_all
        (fun ((x, y) as pt) ->
          let lhs = (a * x) + (b * y) in
          let expect =
            match rel with 0 -> lhs <= k | 1 -> lhs < k | _ -> lhs = k
          in
          Atom.eval atom (lookup_of pt) = expect)
        sample_points)

let prop_negate_complements =
  QCheck.Test.make ~name:"Atom.negate complements eval" ~count:300
    (QCheck.quad (QCheck.int_range (-6) 6) (QCheck.int_range (-6) 6)
       (QCheck.int_range (-20) 20) (QCheck.int_range 0 2))
    (fun (a, b, k, rel) ->
      let e1 = Linexpr.add (sv a 0) (sv b 1) in
      let atom =
        match rel with
        | 0 -> Atom.mk_le e1 (c k)
        | 1 -> Atom.mk_lt e1 (c k)
        | _ -> Atom.mk_eq e1 (c k)
      in
      QCheck.assume (Atom.is_trivial atom = None);
      let negs = Atom.negate atom in
      List.for_all
        (fun pt ->
          Atom.eval atom (lookup_of pt)
          = not (List.exists (fun n -> Atom.eval n (lookup_of pt)) negs))
        sample_points)

let prop_linexpr_eval_linear =
  QCheck.Test.make ~name:"linexpr eval is linear" ~count:300
    (QCheck.pair
       (QCheck.triple (QCheck.int_range (-9) 9) (QCheck.int_range (-9) 9)
          (QCheck.int_range (-9) 9))
       (QCheck.triple (QCheck.int_range (-9) 9) (QCheck.int_range (-9) 9)
          (QCheck.int_range (-9) 9)))
    (fun ((a1, b1, k1), (a2, b2, k2)) ->
      let e1 = Linexpr.add (Linexpr.add (sv a1 0) (sv b1 1)) (c k1) in
      let e2 = Linexpr.add (Linexpr.add (sv a2 0) (sv b2 1)) (c k2) in
      let lookup = lookup_of (3, -4) in
      Rat.equal
        (Linexpr.eval (Linexpr.add e1 e2) lookup)
        (Rat.add (Linexpr.eval e1 lookup) (Linexpr.eval e2 lookup))
      && Rat.equal
           (Linexpr.eval (Linexpr.scale (qi 7) e1) lookup)
           (Rat.mul (qi 7) (Linexpr.eval e1 lookup))
      && Rat.equal
           (Linexpr.eval (Linexpr.subst e1 0 e2) lookup)
           (Linexpr.eval
              (Linexpr.add (Linexpr.scale (qi a1) e2)
                 (Linexpr.add (sv b1 1) (c k1)))
              lookup))

(* Model enumeration on a session built from the formula alone. *)
let solve_many ~count ~distinct_on f =
  Solver.Session.solve_many_under ~count ~distinct_on
    (Solver.Session.create ~is_int:all_int f)

let prop_solve_many_distinct_and_sound =
  QCheck.Test.make ~name:"solve_many models distinct and sound" ~count:100
    (QCheck.int_range 3 12)
    (fun n ->
      let f =
        Formula.and_
          [
            Formula.atom (Atom.mk_ge (v 0) (c 0));
            Formula.atom (Atom.mk_le (v 0) (c 20));
            Formula.atom (Atom.mk_ge (v 1) (v 0));
            Formula.atom (Atom.mk_le (v 1) (c 20));
          ]
      in
      let models, exhausted = solve_many ~count:n ~distinct_on:[ 0; 1 ] f in
      List.length models = n
      && (not exhausted)
      && List.for_all (fun m -> Formula.eval f (Solver.model_value m)) models
      && begin
        let key m =
          Rat.to_string (Solver.model_value m 0) ^ "," ^ Rat.to_string (Solver.model_value m 1)
        in
        List.length (List.sort_uniq Stdlib.compare (List.map key models)) = n
      end)

let test_solve_many_exhausts () =
  (* x in [0, 2] integer: exactly 3 models on x. *)
  let f =
    Formula.and_
      [ Formula.atom (Atom.mk_ge (v 0) (c 0)); Formula.atom (Atom.mk_le (v 0) (c 2)) ]
  in
  let models, exhausted = solve_many ~count:10 ~distinct_on:[ 0 ] f in
  Alcotest.(check int) "three models" 3 (List.length models);
  Alcotest.(check bool) "exhausted" true exhausted

let prop_fm_cooper_agree_on_unit_nonstrict =
  (* With +-1 coefficients and NON-strict bounds the real projection has
     integral interval endpoints, so it is exact over Z and must agree
     with Cooper. (With strict bounds FM genuinely over-approximates: from
     x + y < k1 and -x + y < k2 it derives 2y < k1 + k2, which admits the
     empty open interval (y - k2, k1 - y) of length 1 — that is why Sia
     treats FM as sound-for-FALSE-samples only; see DESIGN.md.) *)
  let gen_cube =
    QCheck.Gen.(
      let gen_atom =
        let* sx = oneofl [ -1; 1 ] in
        let* sy = oneofl [ -1; 1 ] in
        let* k = int_range (-10) 10 in
        let e = Linexpr.add (sv sx 0) (sv sy 1) in
        return (Atom.mk_le e (c k))
      in
      list_size (int_range 1 4) gen_atom)
  in
  QCheck.Test.make ~name:"fm and cooper agree on unit non-strict cubes" ~count:150
    (QCheck.make gen_cube)
    (fun atoms ->
      let fm = Fourier_motzkin.eliminate [ 0 ] atoms in
      let cooper = Cooper.eliminate_cube 0 (List.map (fun a -> (a, true)) atoms) in
      match (fm, cooper) with
      | Some fm_atoms, Some cooper_f ->
        let fm_f = Formula.and_ (List.map Formula.atom fm_atoms) in
        List.for_all
          (fun y ->
            let lk var = if var = 1 then qi y else Rat.zero in
            Formula.eval fm_f lk = Formula.eval cooper_f lk)
          [ -12; -5; -2; -1; 0; 1; 4; 11 ]
      | _, _ -> true)

let prop_fm_contains_cooper =
  (* In general (strict bounds included) the FM projection contains the
     exact integer projection. *)
  let gen_cube =
    QCheck.Gen.(
      let gen_atom =
        let* sx = int_range (-2) 2 in
        let* sy = int_range (-2) 2 in
        let* k = int_range (-10) 10 in
        let* strict = bool in
        let e = Linexpr.add (sv sx 0) (sv sy 1) in
        return (if strict then Atom.mk_lt e (c k) else Atom.mk_le e (c k))
      in
      list_size (int_range 1 4) gen_atom)
  in
  QCheck.Test.make ~name:"fm projection contains cooper projection" ~count:150
    (QCheck.make gen_cube)
    (fun atoms ->
      let fm = Fourier_motzkin.eliminate [ 0 ] atoms in
      let cooper = Cooper.eliminate_cube 0 (List.map (fun a -> (a, true)) atoms) in
      match (fm, cooper) with
      | Some fm_atoms, Some cooper_f ->
        let fm_f = Formula.and_ (List.map Formula.atom fm_atoms) in
        List.for_all
          (fun y ->
            let lk var = if var = 1 then qi y else Rat.zero in
            (not (Formula.eval cooper_f lk)) || Formula.eval fm_f lk)
          [ -12; -5; -2; -1; 0; 1; 4; 11 ]
      | _, _ -> true)

(* Random cubes over three variables for eliminating var 2; small
   coefficients keep FM's quadratic blow-up trivial. *)
let gen_qe_cube =
  QCheck.Gen.(
    let gen_atom =
      let* a = int_range (-2) 2 in
      let* b = int_range (-2) 2 in
      let* d = int_range (-2) 2 in
      let* k = int_range (-8) 8 in
      let* strict = bool in
      let e = Linexpr.add (Linexpr.add (sv a 0) (sv b 1)) (sv d 2) in
      return (if strict then Atom.mk_lt e (c k) else Atom.mk_le e (c k))
    in
    list_size (int_range 1 4) gen_atom)

let qe_grid = [ (0, 0); (1, -2); (-3, 4); (5, 1); (-1, -7); (2, 3) ]

(* Pin vars 0 and 1 to a grid point and ask the solver whether some value
   of var 2 satisfies the cube; the projection must evaluate to exactly
   that verdict (Unknown skipped). *)
let qe_matches_solver ~is_int atoms projected_eval =
  List.for_all
    (fun (x, y) ->
      let pinned =
        Formula.and_
          (Formula.atom (Atom.mk_eq (v 0) (c x))
          :: Formula.atom (Atom.mk_eq (v 1) (c y))
          :: List.map Formula.atom atoms)
      in
      let lk var = if var = 0 then qi x else if var = 1 then qi y else Rat.zero in
      match Solver.solve ~is_int pinned with
      | Solver.Unknown -> true
      | Solver.Sat _ -> projected_eval lk
      | Solver.Unsat -> not (projected_eval lk))
    qe_grid

let prop_fm_matches_real_solver =
  (* Fourier-Motzkin is exact over R: eliminating a variable must agree
     with the real-typed solver's own verdict on every grid point. *)
  QCheck.Test.make ~name:"fm projection agrees with real solver" ~count:80
    (QCheck.make gen_qe_cube)
    (fun atoms ->
      match Fourier_motzkin.eliminate [ 2 ] atoms with
      | None -> true
      | Some proj ->
        let proj_f = Formula.and_ (List.map Formula.atom proj) in
        qe_matches_solver ~is_int:(fun _ -> false) atoms (Formula.eval proj_f))

let prop_cooper_matches_int_solver =
  (* Cooper's elimination is exact over Z: same agreement against the
     integer-typed solver. *)
  QCheck.Test.make ~name:"cooper projection agrees with int solver" ~count:80
    (QCheck.make gen_qe_cube)
    (fun atoms ->
      match Cooper.eliminate_cube 2 (List.map (fun a -> (a, true)) atoms) with
      | None -> true
      | Some cooper_f ->
        qe_matches_solver ~is_int:all_int atoms (Formula.eval cooper_f))

let prop_entails_reflexive_transitive =
  QCheck.Test.make ~name:"entailment is reflexive and respects strengthening" ~count:100
    (QCheck.pair (QCheck.int_range (-10) 10) (QCheck.int_range 0 10))
    (fun (k, d) ->
      let p1 = Formula.atom (Atom.mk_ge (v 0) (c k)) in
      let p2 = Formula.atom (Atom.mk_ge (v 0) (c (k - d))) in
      Solver.entails ~is_int:all_int p1 p1 = Some true
      && Solver.entails ~is_int:all_int p1 p2 = Some true
      && (d = 0 || Solver.entails ~is_int:all_int p2 p1 = Some false))

let test_mixed_int_real () =
  (* y real in (0, 1) has a model even though no integer fits. *)
  let f =
    Formula.and_
      [ Formula.atom (Atom.mk_gt (v 9) (c 0)); Formula.atom (Atom.mk_lt (v 9) (c 1)) ]
  in
  (match Solver.solve ~is_int:(fun x -> x <> 9) f with
   | Solver.Sat m ->
     let y = Solver.model_value m 9 in
     Alcotest.(check bool) "0 < y < 1" true
       (Rat.sign y > 0 && Rat.compare y Rat.one < 0)
   | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected real sat");
  match Solver.solve ~is_int:all_int f with
  | Solver.Unsat -> ()
  | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "expected int unsat"

let test_dvd_negation_roundtrip () =
  (* x in [0,10), exactly the multiples of 3 satisfy 3|x; enumerate both
     polarities and check the counts partition. *)
  let box =
    Formula.and_
      [ Formula.atom (Atom.mk_ge (v 0) (c 0)); Formula.atom (Atom.mk_lt (v 0) (c 10)) ]
  in
  let dvd = Formula.atom (Atom.mk_dvd (Bigint.of_int 3) (v 0)) in
  let count f =
    fst (solve_many ~count:20 ~distinct_on:[ 0 ] f) |> List.length
  in
  Alcotest.(check int) "multiples of 3 in [0,10)" 4 (count (Formula.and_ [ box; dvd ]));
  Alcotest.(check int) "non-multiples" 6 (count (Formula.and_ [ box; Formula.not_ dvd ]))

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Sia_check.Check.enable ();
  Alcotest.run "props"
    [
      ( "normal-forms",
        qsuite
          [
            prop_nnf_preserves_semantics;
            prop_dnf_preserves_semantics;
            prop_atom_canon_preserves_truth;
            prop_negate_complements;
            prop_linexpr_eval_linear;
          ] );
      ( "enumeration",
        qsuite [ prop_solve_many_distinct_and_sound ]
        @ [
            Alcotest.test_case "exhaustion" `Quick test_solve_many_exhausts;
            Alcotest.test_case "mixed int/real" `Quick test_mixed_int_real;
            Alcotest.test_case "dvd polarity partition" `Quick test_dvd_negation_roundtrip;
          ] );
      ( "qe-agreement",
        qsuite
          [
            prop_fm_cooper_agree_on_unit_nonstrict;
            prop_fm_contains_cooper;
            prop_fm_matches_real_solver;
            prop_cooper_matches_int_solver;
            prop_entails_reflexive_transitive;
          ] );
    ]
