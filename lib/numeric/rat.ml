type t = { num : Bigint.t; den : Bigint.t }

let zero = { num = Bigint.zero; den = Bigint.one }
let one = { num = Bigint.one; den = Bigint.one }
let minus_one = { num = Bigint.minus_one; den = Bigint.one }

(* Native-int path. The simplex tableau and the bound comparisons run
   overwhelmingly on small fractions; when every numerator and
   denominator is a [Small] below 2^30 in magnitude, every cross product
   is below 2^60 and a sum of two below 2^61, so the operation runs on
   native ints with one gcd and allocates only the result. The result is
   in lowest terms with a positive denominator, so it equals what the
   [Bigint] path returns. Any other operand takes the [Bigint] path. *)
let small_limit = 1 lsl 30
let fits n = n < small_limit && n > -small_limit

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* [n/d] in lowest terms; neither may be [min_int], so both negate. *)
let of_native n d =
  if d = 0 then raise Division_by_zero;
  if n = 0 then zero
  else if d = 1 then { num = Bigint.of_int n; den = Bigint.one }
  else begin
    let n = if d < 0 then -n else n and d = Stdlib.abs d in
    let g = gcd_int (Stdlib.abs n) d in
    let d = d / g in
    { num = Bigint.of_int (n / g); den = (if d = 1 then Bigint.one else Bigint.of_int d) }
  end

let make num den =
  match (num, den) with
  | Bigint.Small n, Bigint.Small d when n <> min_int && d <> min_int -> of_native n d
  | _ ->
    if Bigint.is_zero den then raise Division_by_zero;
    if Bigint.is_zero num then zero
    else begin
      let num, den = if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
      let g = Bigint.gcd num den in
      { num = Bigint.div num g; den = Bigint.div den g }
    end

let of_bigint n = { num = n; den = Bigint.one }
let of_int n = of_bigint (Bigint.of_int n)
let of_ints n d = make (Bigint.of_int n) (Bigint.of_int d)
let sign x = Bigint.sign x.num
let is_zero x = Bigint.is_zero x.num
let is_integer x = Bigint.equal x.den Bigint.one
let neg x = { x with num = Bigint.neg x.num }
let abs x = { x with num = Bigint.abs x.num }

(* Integer-by-integer operations need no gcd renormalization: the result
   denominator is one. The solver's hot loops (pivot updates, bound
   comparisons) run overwhelmingly on integer rationals, so these fast
   paths bypass [make]'s gcd/division entirely. *)
let both_int a b = Bigint.equal a.den Bigint.one && Bigint.equal b.den Bigint.one

let add a b =
  match (a.num, a.den, b.num, b.den) with
  | Bigint.Small an, Bigint.Small ad, Bigint.Small bn, Bigint.Small bd
    when fits an && fits ad && fits bn && fits bd ->
    of_native ((an * bd) + (bn * ad)) (ad * bd)
  | _ ->
    if both_int a b then { num = Bigint.add a.num b.num; den = Bigint.one }
    else
      make
        (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
        (Bigint.mul a.den b.den)

let sub a b =
  match (a.num, a.den, b.num, b.den) with
  | Bigint.Small an, Bigint.Small ad, Bigint.Small bn, Bigint.Small bd
    when fits an && fits ad && fits bn && fits bd ->
    of_native ((an * bd) - (bn * ad)) (ad * bd)
  | _ ->
    if both_int a b then { num = Bigint.sub a.num b.num; den = Bigint.one }
    else add a (neg b)

let mul a b =
  match (a.num, a.den, b.num, b.den) with
  | Bigint.Small an, Bigint.Small ad, Bigint.Small bn, Bigint.Small bd
    when fits an && fits ad && fits bn && fits bd ->
    of_native (an * bn) (ad * bd)
  | _ ->
    if both_int a b then { num = Bigint.mul a.num b.num; den = Bigint.one }
    else make (Bigint.mul a.num b.num) (Bigint.mul a.den b.den)

let div a b =
  match (a.num, a.den, b.num, b.den) with
  | Bigint.Small an, Bigint.Small ad, Bigint.Small bn, Bigint.Small bd
    when fits an && fits ad && fits bn && fits bd ->
    of_native (an * bd) (ad * bn)
  | _ -> make (Bigint.mul a.num b.den) (Bigint.mul a.den b.num)

let inv a = make a.den a.num

let compare a b =
  match (a.num, a.den, b.num, b.den) with
  | Bigint.Small an, Bigint.Small ad, Bigint.Small bn, Bigint.Small bd
    when fits an && fits ad && fits bn && fits bd ->
    Int.compare (an * bd) (bn * ad)
  | _ ->
    if both_int a b then Bigint.compare a.num b.num
    else Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)
let equal a b = compare a b = 0

(* Rationals are kept in lowest terms with positive denominator, so
   num/den are a hashing identity; mixing their representation-
   independent Bigint hashes keeps [hash] consistent with [equal]
   without rendering to a string. *)
let hash x = (Bigint.hash x.num * 1000003) + Bigint.hash x.den

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let floor x = Bigint.fdiv x.num x.den
let ceil x = Bigint.neg (Bigint.fdiv (Bigint.neg x.num) x.den)
let to_float x = Bigint.to_float x.num /. Bigint.to_float x.den

let to_string x =
  if is_integer x then Bigint.to_string x.num
  else Bigint.to_string x.num ^ "/" ^ Bigint.to_string x.den

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    make
      (Bigint.of_string (String.sub s 0 i))
      (Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)))
  | None ->
    (match String.index_opt s '.' with
     | None -> of_bigint (Bigint.of_string s)
     | Some i ->
       let int_part = String.sub s 0 i in
       let frac = String.sub s (i + 1) (String.length s - i - 1) in
       let scale = Bigint.pow (Bigint.of_int 10) (String.length frac) in
       let whole = Bigint.of_string (if int_part = "" || int_part = "-" then int_part ^ "0" else int_part) in
       let f = Bigint.of_string (if frac = "" then "0" else frac) in
       let f = if Bigint.sign whole < 0 || (int_part <> "" && int_part.[0] = '-') then Bigint.neg f else f in
       make (Bigint.add (Bigint.mul whole scale) f) scale)

(* Continued-fraction best approximation with bounded denominator. *)
let of_float_approx ?(max_den = 1_000_000) f =
  if Float.is_nan f || Float.is_integer f then of_bigint (Bigint.of_string (Printf.sprintf "%.0f" (if Float.is_nan f then 0.0 else f)))
  else begin
    let negative = f < 0.0 in
    let f = Float.abs f in
    let rec go x (h1, k1) (h2, k2) depth =
      (* convergents: h/k *)
      let a = Float.to_int (Float.floor x) in
      let h = (a * h1) + h2 and k = (a * k1) + k2 in
      if k > max_den || depth > 30 then (h1, k1)
      else begin
        let frac = x -. Float.of_int a in
        if frac < 1e-12 then (h, k) else go (1.0 /. frac) (h, k) (h1, k1) (depth + 1)
      end
    in
    let h, k = go f (1, 0) (0, 1) 0 in
    let r = of_ints h (Stdlib.max k 1) in
    if negative then neg r else r
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)
