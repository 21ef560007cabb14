(* Unit and property tests for the numeric substrate: Bigint, Rat, Delta. *)

open Sia_numeric

let bigint = Alcotest.testable Bigint.pp Bigint.equal
let rat = Alcotest.testable Rat.pp Rat.equal

let bi = Bigint.of_int
let q = Rat.of_ints

(* --- Bigint unit tests --- *)

let test_bigint_basic () =
  Alcotest.check bigint "0 + 0" Bigint.zero (Bigint.add Bigint.zero Bigint.zero);
  Alcotest.check bigint "1 + 1 = 2" (bi 2) (Bigint.add Bigint.one Bigint.one);
  Alcotest.check bigint "neg" (bi (-5)) (Bigint.neg (bi 5));
  Alcotest.check bigint "sub" (bi 3) (Bigint.sub (bi 10) (bi 7));
  Alcotest.check bigint "mul" (bi 56) (Bigint.mul (bi 8) (bi 7));
  Alcotest.check bigint "mul neg" (bi (-56)) (Bigint.mul (bi (-8)) (bi 7));
  Alcotest.(check int) "sign pos" 1 (Bigint.sign (bi 3));
  Alcotest.(check int) "sign neg" (-1) (Bigint.sign (bi (-3)));
  Alcotest.(check int) "sign zero" 0 (Bigint.sign Bigint.zero)

let test_bigint_strings () =
  Alcotest.(check string) "to_string 0" "0" (Bigint.to_string Bigint.zero);
  Alcotest.(check string) "big" "123456789012345678901234567890"
    (Bigint.to_string (Bigint.of_string "123456789012345678901234567890"));
  Alcotest.(check string) "negative big" "-9999999999999999999999"
    (Bigint.to_string (Bigint.of_string "-9999999999999999999999"));
  Alcotest.check bigint "of_string small" (bi 42) (Bigint.of_string "42");
  Alcotest.check bigint "of_string +" (bi 7) (Bigint.of_string "+7")

let test_bigint_carry () =
  (* Crossing limb boundaries around 10^9. *)
  let b = Bigint.of_string "999999999" in
  Alcotest.check bigint "carry add" (Bigint.of_string "1000000000") (Bigint.add b Bigint.one);
  Alcotest.check bigint "borrow sub" b (Bigint.sub (Bigint.of_string "1000000000") Bigint.one);
  let huge = Bigint.of_string "999999999999999999" in
  Alcotest.check bigint "carry chain" (Bigint.of_string "1000000000000000000") (Bigint.add huge Bigint.one)

let test_bigint_divmod () =
  let check_div a b =
    let a = bi a and b = bi b in
    let qv, r = Bigint.divmod a b in
    Alcotest.check bigint "a = q*b + r" a (Bigint.add (Bigint.mul qv b) r);
    Alcotest.(check bool) "|r| < |b|" true (Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0)
  in
  check_div 17 5;
  check_div (-17) 5;
  check_div 17 (-5);
  check_div (-17) (-5);
  check_div 0 3;
  check_div 1000000007 97;
  Alcotest.check bigint "big division"
    (Bigint.of_string "12193263113702179522618503273386678859451149739156")
    (Bigint.div
       (Bigint.mul
          (Bigint.of_string "12193263113702179522618503273386678859451149739156")
          (Bigint.of_string "987654321987654321"))
       (Bigint.of_string "987654321987654321"));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bigint.divmod Bigint.one Bigint.zero))

(* Regression: [min_int]'s magnitude is [max_int + 1] = 2^62, which is
   also the smallest [Big] magnitude — the single pair where a
   Small-by-Big division has a nonzero quotient. The broken fast path
   (quotient 0) let a simplex pivot build a tableau that disagreed with
   its own rows; the certificate checker caught it on a CEGQI chain of
   dyadic pins. *)
let test_bigint_min_int_boundary () =
  let p62 = Bigint.of_string "4611686018427387904" in
  let p63 = Bigint.of_string "9223372036854775808" in
  let mi = bi min_int in
  Alcotest.check bigint "min_int / 2^62" (bi (-1)) (Bigint.div mi p62);
  Alcotest.check bigint "min_int mod 2^62" Bigint.zero (Bigint.rem mi p62);
  Alcotest.check bigint "min_int / 2^63" Bigint.zero (Bigint.div mi p63);
  Alcotest.check bigint "min_int mod 2^63" mi (Bigint.rem mi p63);
  Alcotest.check bigint "min_int fdiv 2^62" (bi (-1)) (Bigint.fdiv mi p62);
  Alcotest.check bigint "gcd min_int 2^63" p62 (Bigint.gcd mi p63);
  (* The Rat normalization that surfaced the bug: -2^62 / 2^63 = -1/2. *)
  Alcotest.check rat "-2^62/2^63 normalizes"
    (Rat.of_ints (-1) 2)
    (Rat.make mi p63)

let test_bigint_fdiv () =
  Alcotest.check bigint "fdiv 7 2" (bi 3) (Bigint.fdiv (bi 7) (bi 2));
  Alcotest.check bigint "fdiv -7 2" (bi (-4)) (Bigint.fdiv (bi (-7)) (bi 2));
  Alcotest.check bigint "fdiv 6 3" (bi 2) (Bigint.fdiv (bi 6) (bi 3));
  Alcotest.check bigint "fdiv -6 3" (bi (-2)) (Bigint.fdiv (bi (-6)) (bi 3))

let test_bigint_gcd () =
  Alcotest.check bigint "gcd 12 18" (bi 6) (Bigint.gcd (bi 12) (bi 18));
  Alcotest.check bigint "gcd 0 5" (bi 5) (Bigint.gcd Bigint.zero (bi 5));
  Alcotest.check bigint "gcd neg" (bi 6) (Bigint.gcd (bi (-12)) (bi 18));
  Alcotest.check bigint "lcm 4 6" (bi 12) (Bigint.lcm (bi 4) (bi 6))

let test_bigint_to_int () =
  Alcotest.(check (option int)) "roundtrip" (Some 123456) (Bigint.to_int (bi 123456));
  Alcotest.(check (option int)) "negative" (Some (-42)) (Bigint.to_int (bi (-42)));
  Alcotest.(check (option int)) "max_int" (Some max_int) (Bigint.to_int (bi max_int));
  Alcotest.(check (option int)) "overflow" None
    (Bigint.to_int (Bigint.mul (bi max_int) (bi 10)))

let test_bigint_pow () =
  Alcotest.check bigint "2^10" (bi 1024) (Bigint.pow Bigint.two 10);
  Alcotest.check bigint "10^18" (Bigint.of_string "1000000000000000000") (Bigint.pow (bi 10) 18);
  Alcotest.check bigint "x^0" Bigint.one (Bigint.pow (bi 77) 0)

(* --- Bigint property tests --- *)

let gen_int = QCheck.int_range (-1_000_000_000) 1_000_000_000

let prop_add_commutes =
  QCheck.Test.make ~name:"bigint add commutes" ~count:500
    (QCheck.pair gen_int gen_int)
    (fun (a, b) -> Bigint.equal (Bigint.add (bi a) (bi b)) (Bigint.add (bi b) (bi a)))

let prop_add_matches_int =
  QCheck.Test.make ~name:"bigint add matches int" ~count:500
    (QCheck.pair gen_int gen_int)
    (fun (a, b) -> Bigint.equal (Bigint.add (bi a) (bi b)) (bi (a + b)))

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bigint mul matches int" ~count:500
    (QCheck.pair (QCheck.int_range (-100000) 100000) (QCheck.int_range (-100000) 100000))
    (fun (a, b) -> Bigint.equal (Bigint.mul (bi a) (bi b)) (bi (a * b)))

let prop_divmod_identity =
  QCheck.Test.make ~name:"bigint divmod identity" ~count:500
    (QCheck.pair gen_int gen_int)
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      let qv, r = Bigint.divmod (bi a) (bi b) in
      Bigint.equal (bi a) (Bigint.add (Bigint.mul qv (bi b)) r)
      && Bigint.compare (Bigint.abs r) (Bigint.abs (bi b)) < 0)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint string roundtrip" ~count:500
    (QCheck.list_of_size (QCheck.Gen.int_range 1 40) (QCheck.int_range 0 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let x = Bigint.of_string s in
      Bigint.equal x (Bigint.of_string (Bigint.to_string x)))

let prop_compare_matches_int =
  QCheck.Test.make ~name:"bigint compare matches int" ~count:500
    (QCheck.pair gen_int gen_int)
    (fun (a, b) -> Stdlib.compare a b = Bigint.compare (bi a) (bi b))

(* --- Rat tests --- *)

let test_rat_basic () =
  Alcotest.check rat "1/2 + 1/3" (q 5 6) (Rat.add (q 1 2) (q 1 3));
  Alcotest.check rat "normalize" (q 1 2) (q 2 4);
  Alcotest.check rat "neg den normalizes" (q (-1) 2) (q 1 (-2));
  Alcotest.check rat "mul" (q 1 3) (Rat.mul (q 2 3) (q 1 2));
  Alcotest.check rat "div" (q 4 3) (Rat.div (q 2 3) (q 1 2));
  Alcotest.check rat "sub" (q 1 6) (Rat.sub (q 1 2) (q 1 3));
  Alcotest.(check bool) "1/2 < 2/3" true (Rat.compare (q 1 2) (q 2 3) < 0)

let test_rat_floor_ceil () =
  Alcotest.check bigint "floor 7/2" (bi 3) (Rat.floor (q 7 2));
  Alcotest.check bigint "floor -7/2" (bi (-4)) (Rat.floor (q (-7) 2));
  Alcotest.check bigint "ceil 7/2" (bi 4) (Rat.ceil (q 7 2));
  Alcotest.check bigint "ceil -7/2" (bi (-3)) (Rat.ceil (q (-7) 2));
  Alcotest.check bigint "floor int" (bi 5) (Rat.floor (q 5 1));
  Alcotest.check bigint "ceil int" (bi 5) (Rat.ceil (q 5 1))

let test_rat_strings () =
  Alcotest.check rat "of_string n/d" (q 3 4) (Rat.of_string "3/4");
  Alcotest.check rat "of_string int" (q 17 1) (Rat.of_string "17");
  Alcotest.check rat "of_string decimal" (q 5 2) (Rat.of_string "2.5");
  Alcotest.check rat "of_string neg decimal" (q (-5) 2) (Rat.of_string "-2.5");
  Alcotest.(check string) "to_string" "3/4" (Rat.to_string (q 3 4))

let test_rat_float_approx () =
  Alcotest.check rat "0.5" (q 1 2) (Rat.of_float_approx 0.5);
  Alcotest.check rat "-0.25" (q (-1) 4) (Rat.of_float_approx (-0.25));
  Alcotest.check rat "3.0" (q 3 1) (Rat.of_float_approx 3.0);
  let approx = Rat.of_float_approx 0.333333333333 in
  Alcotest.check rat "1/3" (q 1 3) approx

let prop_rat_field =
  QCheck.Test.make ~name:"rat add assoc" ~count:300
    (QCheck.triple
       (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range 1 1000))
       (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range 1 1000))
       (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range 1 1000)))
    (fun ((a, b), (c, d), (e, f)) ->
      let x = q a b and y = q c d and z = q e f in
      Rat.equal (Rat.add x (Rat.add y z)) (Rat.add (Rat.add x y) z))

let prop_rat_mul_inverse =
  QCheck.Test.make ~name:"rat mul inverse" ~count:300
    (QCheck.pair (QCheck.int_range 1 10000) (QCheck.int_range 1 10000))
    (fun (a, b) ->
      let x = q a b in
      Rat.equal Rat.one (Rat.mul x (Rat.inv x)))

let prop_rat_floor_le =
  QCheck.Test.make ~name:"rat floor <= x < floor+1" ~count:300
    (QCheck.pair (QCheck.int_range (-10000) 10000) (QCheck.int_range 1 100))
    (fun (a, b) ->
      let x = q a b in
      let fl = Rat.of_bigint (Rat.floor x) in
      Rat.compare fl x <= 0 && Rat.compare x (Rat.add fl Rat.one) < 0)

(* --- Delta tests --- *)

let test_delta_compare () =
  let d1 = Delta.make (q 1 1) (q 1 1) in
  let d2 = Delta.make (q 1 1) Rat.zero in
  Alcotest.(check bool) "1 + d > 1" true (Delta.compare d1 d2 > 0);
  Alcotest.(check bool) "1 - d < 1" true
    (Delta.compare (Delta.make (q 1 1) (q (-1) 1)) d2 < 0);
  Alcotest.(check bool) "2 > 1 + d" true
    (Delta.compare (Delta.of_int 2) d1 > 0)

let test_delta_concretize () =
  (* x = 5 - delta must concretize strictly below 5. *)
  let v = Delta.make (q 5 1) (q (-1) 1) in
  let five = Delta.of_int 5 in
  let c = Delta.concretize [ v; five ] v in
  Alcotest.(check bool) "concrete < 5" true (Rat.compare c (q 5 1) < 0);
  (* Tight sandwich: 4 < x < 5 with x = 5 - delta, y = 4 + delta. *)
  let y = Delta.make (q 4 1) (q 1 1) in
  let all = [ v; y; five; Delta.of_int 4 ] in
  let cv = Delta.concretize all v and cy = Delta.concretize all y in
  Alcotest.(check bool) "order preserved" true (Rat.compare cy cv < 0)

let test_delta_choose () =
  let half = q 1 2 in
  Alcotest.check rat "empty" half (Delta.choose_delta []);
  Alcotest.check rat "all-zero infs" half
    (Delta.choose_delta [ Delta.of_int 3; Delta.of_int (-7); Delta.of_int 3 ]);
  (* One constraining pair: a = 1 + 2d lies below b = 2 as long as
     d < (2 - 1) / (2 - 0); every other pair is ordered for any d. *)
  let a = Delta.make (q 1 1) (q 2 1) and b = Delta.of_int 2 in
  let all = [ a; b; Delta.make (q 5 1) (q 3 1); Delta.of_int 0 ] in
  Alcotest.check rat "single pair" (q 1 4) (Delta.choose_delta all)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "numeric"
    [
      ( "bigint",
        [
          Alcotest.test_case "basic" `Quick test_bigint_basic;
          Alcotest.test_case "strings" `Quick test_bigint_strings;
          Alcotest.test_case "carry" `Quick test_bigint_carry;
          Alcotest.test_case "divmod" `Quick test_bigint_divmod;
          Alcotest.test_case "min_int/Big boundary" `Quick
            test_bigint_min_int_boundary;
          Alcotest.test_case "fdiv" `Quick test_bigint_fdiv;
          Alcotest.test_case "gcd" `Quick test_bigint_gcd;
          Alcotest.test_case "to_int" `Quick test_bigint_to_int;
          Alcotest.test_case "pow" `Quick test_bigint_pow;
        ] );
      ( "bigint-props",
        qsuite
          [
            prop_add_commutes;
            prop_add_matches_int;
            prop_mul_matches_int;
            prop_divmod_identity;
            prop_string_roundtrip;
            prop_compare_matches_int;
          ] );
      ( "rat",
        [
          Alcotest.test_case "basic" `Quick test_rat_basic;
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
          Alcotest.test_case "strings" `Quick test_rat_strings;
          Alcotest.test_case "float approx" `Quick test_rat_float_approx;
        ] );
      ("rat-props", qsuite [ prop_rat_field; prop_rat_mul_inverse; prop_rat_floor_le ]);
      ( "delta",
        [
          Alcotest.test_case "compare" `Quick test_delta_compare;
          Alcotest.test_case "concretize" `Quick test_delta_concretize;
          Alcotest.test_case "choose_delta" `Quick test_delta_choose;
        ] );
    ]
