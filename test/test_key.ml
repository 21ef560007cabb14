(* Canonical key stability (lib/smt/key.ml). The serve daemon's rewrite
   cache assumes these keys are a pure function of formula structure —
   alpha-renaming and conjunct order must not split keys. *)

open Sia_numeric
module Atom = Sia_smt.Atom
module Formula = Sia_smt.Formula
module Key = Sia_smt.Key
module Linexpr = Sia_smt.Linexpr

let q = Rat.of_int
let le v c = Formula.atom (Atom.mk_le (Linexpr.var v) (Linexpr.const (q c)))
let ge v c = Formula.atom (Atom.mk_ge (Linexpr.var v) (Linexpr.const (q c)))

let diff_le a b c =
  Formula.atom
    (Atom.mk_le (Linexpr.sub (Linexpr.var a) (Linexpr.var b)) (Linexpr.const (q c)))

let all_int _ = true

let canon ?(is_int = all_int) f = Key.canonical ~is_int (Formula.nnf f)

let key_testable =
  Alcotest.testable
    (fun fmt (f, bits) ->
      Format.fprintf fmt "(%a, [%s])" (Formula.pp ?name:None) f
        (String.concat ";" (List.map string_of_bool bits)))
    (fun (f1, b1) (f2, b2) -> Formula.equal f1 f2 && b1 = b2)

(* ------------------------------------------------------------------ *)
(* Canonical keys                                                      *)
(* ------------------------------------------------------------------ *)

let test_alpha_invariance () =
  (* Same structure over different variable numberings: one key. *)
  let f1 = Formula.and_ [ le 3 10; ge 7 2; diff_le 3 7 5 ] in
  let f2 = Formula.and_ [ le 800 10; ge 901 2; diff_le 800 901 5 ] in
  Alcotest.check key_testable "alpha-renamed formulas share a key"
    (canon f1).Key.id (canon f2).Key.id

let test_order_invariance () =
  let f1 = Formula.and_ [ le 1 10; ge 2 2 ] in
  let f2 = Formula.and_ [ ge 2 2; le 1 10 ] in
  Alcotest.check key_testable "conjunct order does not split keys"
    (canon f1).Key.id (canon f2).Key.id

let test_integrality_in_key () =
  let bits is_int = snd (canon ~is_int (le 1 10)).Key.id in
  Alcotest.(check (list bool)) "integer variable" [ true ] (bits all_int);
  Alcotest.(check (list bool)) "rational variable" [ false ] (bits (fun _ -> false))

(* The pinned key: the canonical form of a concrete formula must never
   drift silently — a drift would change which serve requests share a
   cache entry. *)
let test_pinned_rendering () =
  let f = Formula.and_ [ ge 7 2; le 3 10 ] in
  let kf, bits = (canon f).Key.id in
  Alcotest.(check int) "two canonical variables" 2 (List.length bits);
  Alcotest.(check (list int)) "canonical variables are 0 and 1" [ 0; 1 ]
    (List.sort compare (Formula.vars kf));
  (* The renamed formula is itself expressible in canonical variable
     space: whichever atom sorts first got variable 0. *)
  let candidate1 = Formula.canon (Formula.and_ [ ge 0 2; le 1 10 ]) in
  let candidate2 = Formula.canon (Formula.and_ [ le 0 10; ge 1 2 ]) in
  Alcotest.(check bool) "pinned canonical form" true
    (Formula.equal kf candidate1 || Formula.equal kf candidate2)

let () =
  Alcotest.run "key"
    [
      ( "canonical",
        [
          Alcotest.test_case "alpha invariance" `Quick test_alpha_invariance;
          Alcotest.test_case "order invariance" `Quick test_order_invariance;
          Alcotest.test_case "integrality bits in key" `Quick
            test_integrality_in_key;
          Alcotest.test_case "pinned rendering" `Quick test_pinned_rendering;
        ] );
    ]
