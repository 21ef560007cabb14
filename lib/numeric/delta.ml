type t = { real : Rat.t; inf : Rat.t }

let make real inf = { real; inf }
let of_rat r = { real = r; inf = Rat.zero }
let of_int n = of_rat (Rat.of_int n)
let zero = of_rat Rat.zero
let delta = { real = Rat.zero; inf = Rat.one }

let compare a b =
  let c = Rat.compare a.real b.real in
  if c <> 0 then c else Rat.compare a.inf b.inf

let equal a b = compare a b = 0
(* The infinitesimal component is zero for almost every value flowing
   through simplex pivots (only strict-bound values carry one), so skip
   the second rational operation when both sides agree it is zero. *)
let add a b =
  { real = Rat.add a.real b.real
  ; inf = (if Rat.is_zero a.inf && Rat.is_zero b.inf then Rat.zero else Rat.add a.inf b.inf)
  }

let sub a b =
  { real = Rat.sub a.real b.real
  ; inf = (if Rat.is_zero a.inf && Rat.is_zero b.inf then Rat.zero else Rat.sub a.inf b.inf)
  }

let neg a = { real = Rat.neg a.real; inf = Rat.neg a.inf }

let scale k a =
  { real = Rat.mul k a.real; inf = (if Rat.is_zero a.inf then Rat.zero else Rat.mul k a.inf) }
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Pick delta0 > 0 such that for every pair (a, b) in the list with
   a < b lexicographically, a.real + a.inf*delta0 < b.real + b.inf*delta0
   holds strictly. Only pairs with a.real < b.real and a.inf > b.inf
   constrain delta0; each admits every delta0 below
   (b.real - a.real) / (a.inf - b.inf). delta0 is half the least such
   bound, capped at 1, so every constraining pair keeps strict order.

   The least bound is found without visiting pairs: group the reals by
   inf, and for two groups with infs iA > iB the least bound among
   their pairs is the smallest positive gap b - a (a in A, b in B) over
   the constant iA - iB. One merge sweep over the two sorted groups
   finds that gap, so the result is the all-pairs minimum exactly, in
   O(k n + n log n) for n values with k distinct infs. *)

(* Smallest positive [b - a] with [a] in [ra] and [b] in [rb], both
   sorted ascending without duplicates: for each [b] only the largest
   [a < b] can give it. *)
let min_gap ra rb =
  let best = ref None and p = ref 0 in
  let n = Array.length ra in
  Array.iter
    (fun b ->
      while !p < n && Rat.compare ra.(!p) b < 0 do
        incr p
      done;
      if !p > 0 then begin
        let gap = Rat.sub b ra.(!p - 1) in
        match !best with
        | Some m when Rat.compare m gap <= 0 -> ()
        | Some _ | None -> best := Some gap
      end)
    rb;
  !best

(* The values' distinct infs, ascending, each with its reals sorted
   ascending without duplicates. *)
let groups_by_inf all =
  let by_inf a b =
    let c = Rat.compare a.inf b.inf in
    if c <> 0 then c else Rat.compare a.real b.real
  in
  (* Walk the sorted values from the back, so consing leaves each run's
     reals, and the runs themselves, in ascending order. *)
  match List.rev (List.sort_uniq by_inf all) with
  | [] -> [||]
  | v :: rest ->
    let flush inf reals acc = (inf, Array.of_list reals) :: acc in
    let groups, inf, reals =
      List.fold_left
        (fun (acc, inf, reals) v ->
          if Rat.equal v.inf inf then (acc, inf, v.real :: reals)
          else (flush inf reals acc, v.inf, [ v.real ]))
        ([], v.inf, [ v.real ])
        rest
    in
    Array.of_list (flush inf reals groups)

let choose_delta all =
  let bound = ref Rat.one in
  (* A single inf (in practice usually 0) constrains nothing: skip the
     sort. *)
  (match all with
   | v0 :: rest when List.exists (fun v -> not (Rat.equal v.inf v0.inf)) rest ->
     let groups = groups_by_inf all in
     for j = 1 to Array.length groups - 1 do
       let ia, ra = groups.(j) in
       for i = 0 to j - 1 do
         let ib, rb = groups.(i) in
         match min_gap ra rb with
         | None -> ()
         | Some gap ->
           let cand = Rat.div gap (Rat.sub ia ib) in
           if Rat.compare cand !bound < 0 then bound := cand
       done
     done
   | _ -> ());
  Rat.div !bound (Rat.of_int 2)

let apply delta0 v = Rat.add v.real (Rat.mul v.inf delta0)
let concretize all v = apply (choose_delta all) v

let pp fmt { real; inf } =
  if Rat.is_zero inf then Rat.pp fmt real
  else Format.fprintf fmt "%a%s%a*d" Rat.pp real (if Rat.sign inf >= 0 then "+" else "") Rat.pp inf
