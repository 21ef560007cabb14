(* Randomized cross-checks of the numeric fast paths: [Bigint] keeps
   machine-int values in an unboxed [Small] representation with checked
   arithmetic that falls back to limb arrays, and [Rat]/[Delta] layer
   their own both-int shortcuts on top. Every operation here is computed
   twice — once directly (taking whatever fast path applies) and once
   transported through a huge offset or scale K so the same value runs
   the multi-limb slow path — and the results must agree exactly. The
   generators concentrate on the hairy boundary: around [max_int],
   [min_int] (whose negation overflows a machine int), and decimal limb
   multiples. *)

open Sia_numeric

let bigint = Alcotest.testable Bigint.pp Bigint.equal
let rat = Alcotest.testable Rat.pp Rat.equal

(* The transport constant: far beyond the int range, so any value
   shifted or scaled by it is forced onto the slow representation. *)
let k_big = Bigint.of_string "1000000000000000000000000000000"

(* --- Generators: ints hugging the representation boundaries ----------- *)

let gen_boundary_int =
  QCheck.Gen.(
    oneof
      [
        int_range (-100) 100;
        (* around max_int / min_int *)
        map (fun d -> max_int - d) (int_range 0 100);
        map (fun d -> min_int + d) (int_range 0 100);
        (* around +-2^31 and +-2^62 halves *)
        map (fun d -> (1 lsl 31) + d) (int_range (-100) 100);
        map (fun d -> -(1 lsl 31) + d) (int_range (-100) 100);
        map (fun d -> (1 lsl 61) + d) (int_range (-100) 100);
        map (fun d -> -(1 lsl 61) + d) (int_range (-100) 100);
        (* around decimal limb multiples *)
        map (fun d -> 1_000_000_000 + d) (int_range (-100) 100);
        map (fun d -> 1_000_000_000_000_000_000 + d) (int_range (-100) 100);
        map (fun d -> -1_000_000_000_000_000_000 + d) (int_range (-100) 100);
      ])

let gen_pair = QCheck.Gen.pair gen_boundary_int gen_boundary_int

let print_pair (a, b) = Printf.sprintf "(%d, %d)" a b

(* --- Bigint: fast vs transported slow --------------------------------- *)

(* add/sub via shift: (a + K) + b - K runs multi-limb additions on the
   same values the direct call handles in the int fast path. *)
let prop_add_sub =
  QCheck.Test.make ~name:"bigint add/sub fast = slow" ~count:2000
    (QCheck.make gen_pair ~print:print_pair)
    (fun (ai, bi_) ->
      let a = Bigint.of_int ai and b = Bigint.of_int bi_ in
      let fast = Bigint.add a b in
      let slow = Bigint.sub (Bigint.add (Bigint.add a k_big) b) k_big in
      Alcotest.check bigint "add" fast slow;
      let fast = Bigint.sub a b in
      let slow = Bigint.sub (Bigint.sub (Bigint.add a k_big) b) k_big in
      Alcotest.check bigint "sub" fast slow;
      (* neg through sub, catching the -min_int overflow class *)
      Alcotest.check bigint "neg" (Bigint.neg a) (Bigint.sub Bigint.zero a);
      true)

(* mul via scale: (aK)b / K is an exact division of slow-path products. *)
let prop_mul =
  QCheck.Test.make ~name:"bigint mul fast = slow" ~count:2000
    (QCheck.make gen_pair ~print:print_pair)
    (fun (ai, bi_) ->
      let a = Bigint.of_int ai and b = Bigint.of_int bi_ in
      let fast = Bigint.mul a b in
      let slow = Bigint.div (Bigint.mul (Bigint.mul a k_big) b) k_big in
      Alcotest.check bigint "mul" fast slow;
      true)

(* divmod via scale: truncated division is scale-invariant, so
   divmod (aK) (bK) must give the same quotient and a K-scaled rest. *)
let prop_divmod =
  QCheck.Test.make ~name:"bigint divmod fast = slow" ~count:2000
    (QCheck.make gen_pair ~print:print_pair)
    (fun (ai, bi_) ->
      QCheck.assume (bi_ <> 0);
      let a = Bigint.of_int ai and b = Bigint.of_int bi_ in
      let q, r = Bigint.divmod a b in
      (* truncated-division contract on the fast path itself *)
      Alcotest.check bigint "a = q*b + r" a (Bigint.add (Bigint.mul q b) r);
      Alcotest.(check bool)
        "|r| < |b|" true
        (Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0);
      Alcotest.(check bool)
        "sign r" true
        (Bigint.is_zero r || Bigint.sign r = Bigint.sign a);
      let q', r' = Bigint.divmod (Bigint.mul a k_big) (Bigint.mul b k_big) in
      Alcotest.check bigint "quotient" q q';
      Alcotest.check bigint "rest" (Bigint.mul r k_big) r';
      true)

(* gcd via scale: gcd(aK, bK) = gcd(a, b) * K. *)
let prop_gcd =
  QCheck.Test.make ~name:"bigint gcd fast = slow" ~count:2000
    (QCheck.make gen_pair ~print:print_pair)
    (fun (ai, bi_) ->
      let a = Bigint.of_int ai and b = Bigint.of_int bi_ in
      let g = Bigint.gcd a b in
      Alcotest.check bigint "gcd scaled"
        (Bigint.mul g k_big)
        (Bigint.gcd (Bigint.mul a k_big) (Bigint.mul b k_big));
      if ai <> 0 || bi_ <> 0 then begin
        Alcotest.(check bool) "gcd positive" true (Bigint.sign g > 0);
        Alcotest.check bigint "gcd divides a" Bigint.zero (Bigint.rem a g);
        Alcotest.check bigint "gcd divides b" Bigint.zero (Bigint.rem b g)
      end;
      true)

(* compare via shift, plus string round-trips (the decimal printer and
   parser are representation-independent witnesses). *)
let prop_compare_roundtrip =
  QCheck.Test.make ~name:"bigint compare/to_string fast = slow" ~count:2000
    (QCheck.make gen_pair ~print:print_pair)
    (fun (ai, bi_) ->
      let a = Bigint.of_int ai and b = Bigint.of_int bi_ in
      Alcotest.(check int)
        "compare shifted" (Bigint.compare a b)
        (Bigint.compare (Bigint.add a k_big) (Bigint.add b k_big));
      Alcotest.(check int) "compare = int compare" (compare ai bi_) (Bigint.compare a b);
      Alcotest.check bigint "of_string . to_string" a (Bigint.of_string (Bigint.to_string a));
      Alcotest.(check (option int)) "to_int round trip" (Some ai) (Bigint.to_int a);
      Alcotest.(check int)
        "hash agrees with slow route" (Bigint.hash a)
        (Bigint.hash (Bigint.sub (Bigint.add a k_big) k_big));
      true)

(* min_int corners, deterministically: every unary/binary op where the
   int fast path can overflow silently. *)
let test_min_int_corners () =
  let mi = Bigint.of_int min_int in
  let mx = Bigint.of_int max_int in
  Alcotest.check bigint "neg min_int" (Bigint.add mx Bigint.one) (Bigint.neg mi);
  Alcotest.check bigint "abs min_int" (Bigint.add mx Bigint.one) (Bigint.abs mi);
  Alcotest.(check string)
    "to_string min_int" (string_of_int min_int) (Bigint.to_string mi);
  Alcotest.check bigint "min_int - 1"
    (Bigint.sub (Bigint.neg mx) Bigint.two)
    (Bigint.sub mi Bigint.one);
  Alcotest.check bigint "min_int * -1" (Bigint.add mx Bigint.one)
    (Bigint.mul mi (Bigint.of_int (-1)));
  Alcotest.check bigint "min_int / -1" (Bigint.add mx Bigint.one)
    (Bigint.div mi (Bigint.of_int (-1)));
  Alcotest.check bigint "max_int + 1 - 1" mx
    (Bigint.sub (Bigint.add mx Bigint.one) Bigint.one);
  Alcotest.(check (option int)) "max_int+1 overflows to_int" None
    (Bigint.to_int (Bigint.add mx Bigint.one))

(* --- Rat: native-int and both-int fast paths vs Bigint reference ------- *)

(* Components straddling the limit of [Rat]'s native-int path (2^30) and
   twice that (2^31, where a cross-product sum overflows a native int),
   next to small values and the [Bigint] boundaries above. *)
let gen_rat_component =
  QCheck.Gen.(
    oneof
      [
        int_range (-100) 100;
        map (fun d -> (1 lsl 30) + d) (int_range (-3) 3);
        map (fun d -> -(1 lsl 30) + d) (int_range (-3) 3);
        map (fun d -> (1 lsl 31) - d) (int_range 1 100);
        map (fun d -> -(1 lsl 31) + d) (int_range 1 100);
        gen_boundary_int;
      ])

(* Denominators: often 1, so integer x fraction and integer x integer
   mixes are common. *)
let gen_rat_den = QCheck.Gen.(frequency [ (1, return 1); (3, gen_rat_component) ])

(* (a, b, c, d) for x = a/b and y = c/d. Besides independent pairs, y is
   drawn from x so that results cancel: y = x (x - y = 0, x / y = 1),
   y = -x (x + y = 0), y = b/a and y = -2b/a (x * y and x / y integral),
   and y = (a + k*b)/b (x - y = -k). Reversing numerator and denominator
   also puts negative divisors before [div] and [inv]. *)
let gen_rat_case =
  QCheck.Gen.(
    let* a = gen_rat_component in
    let* b = gen_rat_den in
    let* k = int_range (-3) 3 in
    let* c = gen_rat_component in
    let* d = gen_rat_den in
    oneofl
      [
        (a, b, c, d);
        (a, b, a, b);
        (a, b, -a, b);
        (a, b, b, a);
        (a, b, -2 * b, a);
        (a, b, a + (k * b), b);
      ])

(* [r] is exactly [n/d] in lowest terms with a positive denominator,
   checked by Bigint arithmetic alone, never through a Rat operation. *)
let check_exact name (r : Rat.t) n d =
  Alcotest.(check bool) (name ^ ": positive denominator") true (Bigint.sign r.Rat.den > 0);
  Alcotest.check bigint (name ^ ": lowest terms") Bigint.one (Bigint.gcd r.Rat.num r.Rat.den);
  Alcotest.check bigint (name ^ ": value") (Bigint.mul r.Rat.num d) (Bigint.mul n r.Rat.den)

let prop_rat_ops =
  QCheck.Test.make ~name:"rat fast = bigint reference" ~count:4000
    (QCheck.make gen_rat_case ~print:(fun (a, b, c, d) ->
         Printf.sprintf "%d/%d, %d/%d" a b c d))
    (fun (ai, bi_, ci, di) ->
      QCheck.assume (bi_ <> 0 && di <> 0);
      let big = Bigint.of_int in
      let mk n d = Rat.make (big n) (big d) in
      let x = mk ai bi_ and y = mk ci di in
      check_exact "make x" x (big ai) (big bi_);
      check_exact "make y" y (big ci) (big di);
      (* the same values built through slow-path components *)
      let slow n d =
        Rat.make (Bigint.mul (big n) k_big) (Bigint.mul (big d) k_big)
      in
      let x' = slow ai bi_ and y' = slow ci di in
      Alcotest.check rat "normalization" x x';
      Alcotest.check rat "add" (Rat.add x y) (Rat.add x' y');
      Alcotest.check rat "sub" (Rat.sub x y) (Rat.sub x' y');
      Alcotest.check rat "mul" (Rat.mul x y) (Rat.mul x' y');
      Alcotest.(check int) "compare" (Rat.compare x y) (Rat.compare x' y');
      if ci <> 0 then Alcotest.check rat "div" (Rat.div x y) (Rat.div x' y');
      (* every operation against its textbook formula in Bigint *)
      let xn = x.Rat.num and xd = x.Rat.den and yn = y.Rat.num and yd = y.Rat.den in
      check_exact "add" (Rat.add x y)
        (Bigint.add (Bigint.mul xn yd) (Bigint.mul yn xd))
        (Bigint.mul xd yd);
      check_exact "sub" (Rat.sub x y)
        (Bigint.sub (Bigint.mul xn yd) (Bigint.mul yn xd))
        (Bigint.mul xd yd);
      check_exact "mul" (Rat.mul x y) (Bigint.mul xn yn) (Bigint.mul xd yd);
      if ci <> 0 then begin
        check_exact "div" (Rat.div x y) (Bigint.mul xn yd) (Bigint.mul xd yn);
        check_exact "inv" (Rat.inv y) yd yn
      end;
      let sign c = if c < 0 then -1 else if c > 0 then 1 else 0 in
      Alcotest.(check int) "compare formula"
        (sign (Bigint.compare (Bigint.mul xn yd) (Bigint.mul yn xd)))
        (sign (Rat.compare x y));
      (* denominator sign normalization *)
      Alcotest.check rat "make sign" (mk ai bi_)
        (Rat.make (Bigint.neg (big ai)) (Bigint.neg (big bi_)));
      true)

let gen_int_quad =
  QCheck.Gen.(quad gen_boundary_int gen_boundary_int gen_boundary_int gen_boundary_int)

(* Delta fast paths: arithmetic on the (real, inf) pairs must match
   componentwise Rat arithmetic. *)
let prop_delta_ops =
  QCheck.Test.make ~name:"delta componentwise reference" ~count:1000
    (QCheck.make gen_int_quad ~print:(fun (a, b, c, d) ->
         Printf.sprintf "%d+%de, %d+%de" a b c d))
    (fun (ar, ai, br, bi_) ->
      let q = Rat.of_int in
      let x = Delta.make (q ar) (q ai) and y = Delta.make (q br) (q bi_) in
      let sum = Delta.add x y in
      Alcotest.check rat "real sum" (Rat.add (q ar) (q br)) sum.Delta.real;
      Alcotest.check rat "inf sum" (Rat.add (q ai) (q bi_)) sum.Delta.inf;
      let diff = Delta.sub x y in
      Alcotest.check rat "real diff" (Rat.sub (q ar) (q br)) diff.Delta.real;
      Alcotest.check rat "inf diff" (Rat.sub (q ai) (q bi_)) diff.Delta.inf;
      let scaled = Delta.scale (q br) x in
      Alcotest.check rat "real scale" (Rat.mul (q br) (q ar)) scaled.Delta.real;
      Alcotest.check rat "inf scale" (Rat.mul (q br) (q ai)) scaled.Delta.inf;
      let expect =
        let c = Rat.compare (q ar) (q br) in
        if c <> 0 then c else Rat.compare (q ai) (q bi_)
      in
      let sign c = if c < 0 then -1 else if c > 0 then 1 else 0 in
      Alcotest.(check int)
        "compare lexicographic" (sign expect)
        (sign (Delta.compare x y));
      true)

(* [Delta.choose_delta] against the all-pairs definition it must match
   exactly: half the least (b.real - a.real) / (a.inf - b.inf) over the
   pairs with a.real < b.real and a.inf > b.inf, capped at 1. *)
let choose_delta_reference all =
  let bound = ref Rat.one in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Rat.compare a.Delta.real b.Delta.real < 0 && Rat.compare a.inf b.inf > 0
          then begin
            let cand = Rat.div (Rat.sub b.real a.real) (Rat.sub a.inf b.inf) in
            if Rat.compare cand !bound < 0 then bound := cand
          end)
        all)
    all;
  Rat.div !bound (Rat.of_int 2)

(* Reals: small integers, fractions, and values past +-2^62 (the Big
   representation), drawn partly from a per-list pool so that
   duplicates and equal reals under different infs are common. *)
let gen_delta_list =
  let open QCheck.Gen in
  let two62 = Bigint.of_string "4611686018427387904" in
  let gen_real =
    oneof
      [
        map Rat.of_int (int_range (-20) 20);
        map2 Rat.of_ints (int_range (-50) 50) (int_range 1 7);
        map2
          (fun s d -> Rat.add (Rat.of_bigint (if s then two62 else Bigint.neg two62)) (Rat.of_int d))
          bool (int_range (-5) 5);
        map2
          (fun n d -> Rat.make (Bigint.add two62 (Bigint.of_int n)) (Bigint.of_int d))
          (int_range (-5) 5) (int_range 1 5);
      ]
  in
  let gen_inf = oneofl [ Rat.of_int (-2); Rat.minus_one; Rat.of_ints (-1) 2; Rat.zero; Rat.one ] in
  list_size (int_range 1 8) gen_real >>= fun pool ->
  list_size (int_range 0 60)
    (map2 Delta.make (oneof [ oneofl pool; gen_real ]) gen_inf)

let print_delta_list l =
  String.concat "; " (List.map (fun v -> Format.asprintf "%a" Delta.pp v) l)

let prop_choose_delta =
  QCheck.Test.make ~name:"choose_delta = all-pairs reference" ~count:1000
    (QCheck.make gen_delta_list ~print:print_delta_list)
    (fun all ->
      let got = Delta.choose_delta all and want = choose_delta_reference all in
      Alcotest.check rat "value" want got;
      (* Same representation too: models built from it print the same. *)
      Alcotest.(check bool) "structural" true (got = want);
      true)

(* Representation robustness: [Bigint.denormalized_of_int] builds the
   same value in the non-canonical multi-limb form; [compare], [equal]
   and [hash] must not see the difference. [Rat.of_bigint] stores its
   argument verbatim, so routing the denormalized value through it
   checks that [Rat.hash]/[Rat.compare] inherit the property. *)
let prop_repr_independence =
  QCheck.Test.make ~name:"hash/compare across representations" ~count:2000
    (QCheck.make gen_pair ~print:print_pair)
    (fun (ai, bi_) ->
      let a = Bigint.of_int ai and a' = Bigint.denormalized_of_int ai in
      let b = Bigint.of_int bi_ and b' = Bigint.denormalized_of_int bi_ in
      Alcotest.(check bool) "bigint equal" true (Bigint.equal a a');
      Alcotest.(check int) "bigint hash" (Bigint.hash a) (Bigint.hash a');
      let sign c = if c < 0 then -1 else if c > 0 then 1 else 0 in
      let c0 = sign (Bigint.compare a b) in
      Alcotest.(check int) "compare small/big" c0 (sign (Bigint.compare a b'));
      Alcotest.(check int) "compare big/small" c0 (sign (Bigint.compare a' b));
      Alcotest.(check int) "compare big/big" c0 (sign (Bigint.compare a' b'));
      let r = Rat.of_bigint a and r' = Rat.of_bigint a' in
      Alcotest.(check bool) "rat equal" true (Rat.equal r r');
      Alcotest.(check int) "rat hash" (Rat.hash r) (Rat.hash r');
      let s = Rat.of_bigint b and s' = Rat.of_bigint b' in
      Alcotest.(check int)
        "rat compare" (sign (Rat.compare r s)) (sign (Rat.compare r' s'));
      true)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "numeric-diff"
    [
      ( "bigint",
        qsuite [ prop_add_sub; prop_mul; prop_divmod; prop_gcd; prop_compare_roundtrip ]
        @ [ Alcotest.test_case "min_int corners" `Quick test_min_int_corners ] );
      ("rat", qsuite [ prop_rat_ops ]);
      ("delta", qsuite [ prop_delta_ops; prop_choose_delta ]);
      ("representation", qsuite [ prop_repr_independence ]);
    ]
