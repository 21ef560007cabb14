open Sia_numeric

(* Dutertre-de Moura general simplex over delta-rationals, restructured
   around a persistent tableau shared across theory rounds and
   branch-and-bound nodes.

   The persistent part is the *structure*: external-variable interning,
   one slack variable per distinct linear form (with its definitional row
   kept as an immutable template), and the grown scratch arrays. Bounds
   are per-round state: each round re-scans its atom list into
   tightest-bound caches (cheap — the per-atom translation is memoized by
   the caller), and branch-and-bound cuts assert and retract bounds
   through a trail with [push]/[pop].

   Every [check] starts from the canonical basis — slacks basic on their
   template rows, all assignments zero — and runs Bland's rule through a
   per-round priority order that reproduces the dense numbering a scratch
   build of that round's atom list would have used. Results (verdict,
   model, Farkas certificate reasons) are therefore a deterministic
   function of the round's atoms alone, independent of what earlier
   rounds or sibling branches did to the tableau: certificates stay
   reproducible, and the solver's search trajectory is identical to
   solving every node from scratch, at a fraction of the cost. *)

type result =
  | Sat of (int * Rat.t) list
  | Unsat of int list

type farkas = (int * Rat.t) list

(* Bound provenance: a base-scan bound carries the round-local atom index
   it came from; a branch-and-bound cut carries its root distance. *)
type bref =
  | Hyp of int
  | Cut of int

type bfarkas = (bref * Rat.t) list

exception Conflict of bfarkas

(* Atom ids are plain ints; comparing them with the dedicated int
   comparator keeps the core extraction monomorphic (and safe if the id
   representation ever grows structure). *)
let core_of_farkas fk = List.sort_uniq Int.compare (List.map fst fk)

let pivots = ref 0
let pivot_count () = !pivots

module FormTbl = Hashtbl.Make (struct
  type t = Linexpr.t

  let equal = Linexpr.equal
  let hash = Linexpr.hash
end)

type bound = { value : Delta.t; bref : bref }

type trail_cell = {
  tvar : int; (* dense id of the bounded slack *)
  tupper : bool;
  tprev : bound option;
  tprev_cuts : int list;
  tactivated : bool; (* the slack joined the round by this assert *)
}

type t = {
  (* persistent structure *)
  var_ids : (int, int) Hashtbl.t; (* external id -> dense *)
  forms : int FormTbl.t; (* slack form -> dense *)
  mutable nvars : int; (* dense ids ever allocated *)
  mutable ext_ids : int array; (* dense -> external id; -1 for slacks *)
  mutable template : Linexpr.t array; (* slack definitional row *)
  (* scratch, canonically restored at each check *)
  mutable rows : Linexpr.t array;
  mutable basic : bool array;
  mutable beta : Delta.t array;
  (* round state *)
  mutable lower : bound option array;
  mutable upper : bound option array;
  mutable stamp : int array; (* round generation per dense var *)
  mutable prio : int array; (* round priority (scratch-build dense id) *)
  mutable order : int array; (* priority -> dense *)
  mutable round : int;
  mutable round_n : int; (* active vars this round *)
  mutable base_n : int; (* actives before any cut *)
  mutable cuts : int list; (* cut-slack dense ids, priority order *)
  mutable trail : trail_cell list;
  mutable marks : int list;
  mutable trail_n : int;
}

let create () =
  let n = 64 in
  {
    var_ids = Hashtbl.create 64;
    forms = FormTbl.create 64;
    nvars = 0;
    ext_ids = Array.make n (-1);
    template = Array.make n Linexpr.zero;
    rows = Array.make n Linexpr.zero;
    basic = Array.make n false;
    beta = Array.make n Delta.zero;
    lower = Array.make n None;
    upper = Array.make n None;
    stamp = Array.make n (-1);
    prio = Array.make n (-1);
    order = Array.make n (-1);
    round = 0;
    round_n = 0;
    base_n = 0;
    cuts = [];
    trail = [];
    marks = [];
    trail_n = 0;
  }

let n_vars t = t.nvars

let grow t n =
  if n > Array.length t.ext_ids then begin
    let cap = max n (2 * Array.length t.ext_ids) in
    let extend a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 t.nvars;
      a'
    in
    t.ext_ids <- extend t.ext_ids (-1);
    t.template <- extend t.template Linexpr.zero;
    t.rows <- extend t.rows Linexpr.zero;
    t.basic <- extend t.basic false;
    t.beta <- extend t.beta Delta.zero;
    t.lower <- extend t.lower None;
    t.upper <- extend t.upper None;
    t.stamp <- extend t.stamp (-1);
    t.prio <- extend t.prio (-1);
    t.order <- extend t.order (-1)
  end

let new_dense t ext =
  let d = t.nvars in
  grow t (d + 1);
  t.ext_ids.(d) <- ext;
  t.nvars <- d + 1;
  d

let intern_var t v =
  match Hashtbl.find_opt t.var_ids v with
  | Some d -> d
  | None ->
    let d = new_dense t v in
    Hashtbl.add t.var_ids v d;
    d

let slack_of t form =
  match FormTbl.find_opt t.forms form with
  | Some d -> d
  | None ->
    let d = new_dense t (-1) in
    FormTbl.add t.forms form d;
    t.template.(d) <- form;
    d

(* Translate a linear expression to a dense-variable form, interning
   externals permanently. *)
let dense_form t e =
  List.fold_left
    (fun acc (v, c) -> Linexpr.add acc (Linexpr.var ~coeff:c (intern_var t v)))
    Linexpr.zero (Linexpr.terms e)

(* {2 Round protocol} *)

let begin_round t =
  t.round <- t.round + 1;
  t.round_n <- 0;
  t.base_n <- 0;
  t.cuts <- [];
  t.trail <- [];
  t.marks <- [];
  t.trail_n <- 0

(* Activate a dense var for this round, assigning the next priority (the
   dense id a per-round scratch build would have given it). *)
let touch t d =
  if t.stamp.(d) <> t.round then begin
    t.stamp.(d) <- t.round;
    t.lower.(d) <- None;
    t.upper.(d) <- None;
    t.prio.(d) <- t.round_n;
    t.order.(t.round_n) <- d;
    t.round_n <- t.round_n + 1
  end

let seal_base t = t.base_n <- t.round_n

(* Record a base bound from the round scan. Tie-breaking matches a
   scratch build processing bounds in atom order: only a strictly tighter
   bound replaces the cached one, and a crossing raises the same
   certificate pair a scratch build would have raised. *)
let scan_upper t d value bref =
  match t.upper.(d) with
  | Some u when Delta.compare u.value value <= 0 -> ()
  | Some _ | None -> (
    match t.lower.(d) with
    | Some l when Delta.compare value l.value < 0 ->
      raise (Conflict [ (bref, Rat.one); (l.bref, Rat.minus_one) ])
    | Some _ | None -> t.upper.(d) <- Some { value; bref })

let scan_lower t d value bref =
  match t.lower.(d) with
  | Some l when Delta.compare l.value value >= 0 -> ()
  | Some _ | None -> (
    match t.upper.(d) with
    | Some u when Delta.compare value u.value > 0 ->
      raise (Conflict [ (u.bref, Rat.one); (bref, Rat.minus_one) ])
    | Some _ | None -> t.lower.(d) <- Some { value; bref })

(* {2 Cuts: push / assert / pop over the trail} *)

let push t = t.marks <- t.trail_n :: t.marks
let at_base t = t.marks = []

(* Re-derive the cut segment of the priority order from [t.cuts]. The
   base prefix is static for the round; a scratch build at this node
   would number cut slacks by first occurrence scanning the cut list
   newest-first, which is exactly the order [t.cuts] maintains. *)
let resync_cuts t =
  let i = ref t.base_n in
  List.iter
    (fun s ->
      t.prio.(s) <- !i;
      t.order.(!i) <- s;
      incr i)
    t.cuts;
  t.round_n <- !i

let assert_cut_bound t ~upper d value ~depth =
  let bref = Cut depth in
  let activated = t.stamp.(d) <> t.round in
  let prev_cuts = t.cuts in
  if activated then begin
    t.stamp.(d) <- t.round;
    t.lower.(d) <- None;
    t.upper.(d) <- None;
    grow t (t.base_n + List.length t.cuts + 2);
    t.cuts <- d :: t.cuts
  end
  else if t.prio.(d) >= t.base_n then
    (* already a cut slack: a fresh cut moves it to the segment front,
       mirroring first-occurrence numbering over newest-first cuts *)
    t.cuts <- d :: List.filter (fun x -> x <> d) t.cuts;
  resync_cuts t;
  let prev = if upper then t.upper.(d) else t.lower.(d) in
  t.trail <-
    {
      tvar = d;
      tupper = upper;
      tprev = prev;
      tprev_cuts = prev_cuts;
      tactivated = activated;
    }
    :: t.trail;
  t.trail_n <- t.trail_n + 1;
  if upper then scan_upper t d value bref else scan_lower t d value bref

let pop t =
  match t.marks with
  | [] -> invalid_arg "Simplex.pop: at base level"
  | mark :: rest ->
    t.marks <- rest;
    while t.trail_n > mark do
      match t.trail with
      | [] -> assert false
      | cell :: tl ->
        t.trail <- tl;
        t.trail_n <- t.trail_n - 1;
        if cell.tupper then t.upper.(cell.tvar) <- cell.tprev
        else t.lower.(cell.tvar) <- cell.tprev;
        t.cuts <- cell.tprev_cuts;
        if cell.tactivated then t.stamp.(cell.tvar) <- -1
    done;
    resync_cuts t

(* {2 Bland's algorithm from the canonical basis} *)

let violates_lower t x =
  match t.lower.(x) with
  | Some l -> Delta.compare t.beta.(x) l.value < 0
  | None -> false

let violates_upper t x =
  match t.upper.(x) with
  | Some u -> Delta.compare t.beta.(x) u.value > 0
  | None -> false

let below_upper t x =
  match t.upper.(x) with
  | Some u -> Delta.compare t.beta.(x) u.value < 0
  | None -> true

let above_lower t x =
  match t.lower.(x) with
  | Some l -> Delta.compare t.beta.(x) l.value > 0
  | None -> true

(* Pivot basic xi with nonbasic xj and set beta(xi) = v. *)
let pivot_and_update t xi xj v =
  incr pivots;
  let row = t.rows.(xi) in
  let aij = Linexpr.coeff row xj in
  let theta = Delta.scale (Rat.inv aij) (Delta.sub v t.beta.(xi)) in
  t.beta.(xi) <- v;
  t.beta.(xj) <- Delta.add t.beta.(xj) theta;
  for i = 0 to t.round_n - 1 do
    let xk = t.order.(i) in
    if t.basic.(xk) && xk <> xi then begin
      let akj = Linexpr.coeff t.rows.(xk) xj in
      if not (Rat.is_zero akj) then
        t.beta.(xk) <- Delta.add t.beta.(xk) (Delta.scale akj theta)
    end
  done;
  (* Solve row of xi for xj: xi = sum a_k x_k  ==>
     xj = (1/aij) xi - sum_{k<>j} (a_k/aij) x_k *)
  let rest = Linexpr.remove row xj in
  let xj_def =
    Linexpr.add
      (Linexpr.var ~coeff:(Rat.inv aij) xi)
      (Linexpr.scale (Rat.neg (Rat.inv aij)) rest)
  in
  t.basic.(xi) <- false;
  t.rows.(xi) <- Linexpr.zero;
  t.basic.(xj) <- true;
  t.rows.(xj) <- xj_def;
  for i = 0 to t.round_n - 1 do
    let xk = t.order.(i) in
    if t.basic.(xk) && xk <> xj then begin
      let r = t.rows.(xk) in
      if Linexpr.mem r xj then t.rows.(xk) <- Linexpr.subst r xj xj_def
    end
  done

(* Farkas combination for a stuck row; coefficients accumulate per bound
   provenance (the same atom may back several bounds). *)
let farkas_of_row t xi ~at_lower =
  let tbl = Hashtbl.create 8 in
  let add r c =
    let prev = try Hashtbl.find tbl r with Not_found -> Rat.zero in
    Hashtbl.replace tbl r (Rat.add prev c)
  in
  (if at_lower then
     match t.lower.(xi) with
     | Some l -> add l.bref Rat.minus_one
     | None -> ()
   else
     match t.upper.(xi) with
     | Some u -> add u.bref Rat.one
     | None -> ());
  List.iter
    (fun (x, c) ->
      let want_upper = if at_lower then Rat.sign c > 0 else Rat.sign c < 0 in
      let coeff = if at_lower then c else Rat.neg c in
      if want_upper then
        match t.upper.(x) with Some u -> add u.bref coeff | None -> ()
      else
        match t.lower.(x) with Some l -> add l.bref coeff | None -> ())
    (Linexpr.terms t.rows.(xi));
  Hashtbl.fold
    (fun r c acc -> if Rat.is_zero c then acc else (r, c) :: acc)
    tbl []

(* Entering variable: the suitable row term with the smallest priority —
   the same choice a scratch build (whose row term order is ascending in
   its own dense numbering) makes by taking the first suitable term. *)
let entering t row ~increase =
  let best = ref (-1) in
  let best_p = ref max_int in
  List.iter
    (fun (x, c) ->
      let suitable =
        if increase then
          (Rat.sign c > 0 && below_upper t x)
          || (Rat.sign c < 0 && above_lower t x)
        else
          (Rat.sign c < 0 && below_upper t x)
          || (Rat.sign c > 0 && above_lower t x)
      in
      if suitable && t.prio.(x) < !best_p then begin
        best := x;
        best_p := t.prio.(x)
      end)
    (Linexpr.terms row);
  !best

let check t =
  (* canonical restore: slacks basic on their template rows, beta = 0 *)
  for i = 0 to t.round_n - 1 do
    let x = t.order.(i) in
    if t.ext_ids.(x) >= 0 then begin
      t.basic.(x) <- false;
      t.rows.(x) <- Linexpr.zero
    end
    else begin
      t.basic.(x) <- true;
      t.rows.(x) <- t.template.(x)
    end;
    t.beta.(x) <- Delta.zero
  done;
  let rec loop () =
    (* Bland's rule: the violating basic variable of smallest priority. *)
    let xi = ref (-1) in
    (let i = ref 0 in
     while !xi < 0 && !i < t.round_n do
       let x = t.order.(!i) in
       if t.basic.(x) && (violates_lower t x || violates_upper t x) then
         xi := x;
       incr i
     done);
    if !xi < 0 then Ok ()
    else begin
      let xi = !xi in
      let row = t.rows.(xi) in
      if violates_lower t xi then begin
        let xj = entering t row ~increase:true in
        if xj < 0 then Error (farkas_of_row t xi ~at_lower:true)
        else begin
          let l =
            match t.lower.(xi) with Some l -> l.value | None -> assert false
          in
          pivot_and_update t xi xj l;
          loop ()
        end
      end
      else begin
        let xj = entering t row ~increase:false in
        if xj < 0 then Error (farkas_of_row t xi ~at_lower:false)
        else begin
          let u =
            match t.upper.(xi) with Some u -> u.value | None -> assert false
          in
          pivot_and_update t xi xj u;
          loop ()
        end
      end
    end
  in
  loop ()

(* {2 Reading the state after [check] returned Ok} *)

let model t =
  let acc = ref [] in
  for i = t.round_n - 1 downto 0 do
    let x = t.order.(i) in
    if t.ext_ids.(x) >= 0 then acc := (t.ext_ids.(x), t.beta.(x)) :: !acc
  done;
  !acc

let first_frac t ~is_int =
  let found = ref None in
  let i = ref 0 in
  while !found = None && !i < t.round_n do
    let x = t.order.(!i) in
    let v = t.ext_ids.(x) in
    if v >= 0 && is_int v then begin
      let d = t.beta.(x) in
      if not (Rat.is_integer d.Delta.real && Rat.is_zero d.Delta.inf) then
        found := Some (v, d)
    end;
    incr i
  done;
  !found

let in_play t =
  let all = ref [] in
  for i = 0 to t.round_n - 1 do
    let x = t.order.(i) in
    all := t.beta.(x) :: !all;
    (match t.lower.(x) with Some l -> all := l.value :: !all | None -> ());
    (match t.upper.(x) with Some u -> all := u.value :: !all | None -> ())
  done;
  !all

(* {2 Atom translation}

   Shared by the one-shot interface and by [Theory]'s memoized
   per-literal translation. An atom either is constant after translation
   (carrying its own refutation when false) or contributes bounds on a
   slack variable. *)

type trans =
  | TConst of {
      ok : bool;
      coeff : Rat.t;
    }
  | TBounds of {
      svar : int;
      bnds : (bool * Delta.t) list; (* (upper?, value), in scan order *)
    }

let translate t a =
  match a with
  | Atom.Dvd _ -> invalid_arg "Simplex: Dvd atom"
  | Atom.Lin (rel, e) ->
    let dense = dense_form t e in
    let k = Linexpr.constant e in
    if Linexpr.is_const dense then begin
      let ok =
        match rel with
        | Atom.Le -> Rat.sign k <= 0
        | Atom.Lt -> Rat.sign k < 0
        | Atom.Eq -> Rat.is_zero k
      in
      let coeff =
        match rel with
        | Atom.Le | Atom.Lt -> Rat.one
        | Atom.Eq -> if Rat.sign k > 0 then Rat.one else Rat.minus_one
      in
      TConst { ok; coeff }
    end
    else begin
      let svar = slack_of t dense in
      let rhs = Rat.neg k in
      let bnds =
        match rel with
        | Atom.Le -> [ (true, Delta.of_rat rhs) ]
        | Atom.Lt -> [ (true, Delta.make rhs Rat.minus_one) ]
        | Atom.Eq -> [ (true, Delta.of_rat rhs); (false, Delta.of_rat rhs) ]
      in
      TBounds { svar; bnds }
    end

(* Assert a translated cut (a single-variable branching atom) at root
   distance [depth]. Raises [Conflict] on an immediate crossing. *)
let assert_cut t trans ~depth =
  match trans with
  | TConst { ok; coeff } ->
    if not ok then raise (Conflict [ (Cut depth, coeff) ])
  | TBounds { svar; bnds } ->
    List.iter
      (fun (upper, value) -> assert_cut_bound t ~upper svar value ~depth)
      bnds

(* {2 One-shot interface (scratch build per call)} *)

let farkas_of_bfarkas fk =
  List.map
    (function
      | Hyp i, c -> (i, c)
      | Cut _, _ -> assert false (* no cuts in one-shot solving *))
    fk

let solve_full atoms =
  let t = create () in
  begin_round t;
  match
    (* pass 1: intern and activate external variables in atom order *)
    List.iter
      (fun a -> List.iter (fun v -> touch t (intern_var t v)) (Atom.vars a))
      atoms;
    (* pass 2: translate, checking constant atoms at their position *)
    let tagged =
      List.mapi
        (fun i a ->
          match translate t a with
          | TConst { ok; coeff } ->
            if not ok then raise (Conflict [ (Hyp i, coeff) ]);
            (i, None)
          | TBounds { svar; bnds } ->
            touch t svar;
            (i, Some (svar, bnds)))
        atoms
    in
    (* pass 3: scan bounds in atom order *)
    List.iter
      (fun (i, tr) ->
        match tr with
        | None -> ()
        | Some (svar, bnds) ->
          List.iter
            (fun (upper, value) ->
              if upper then scan_upper t svar value (Hyp i)
              else scan_lower t svar value (Hyp i))
            bnds)
      tagged;
    seal_base t
  with
  | exception Conflict fk -> Error (farkas_of_bfarkas fk)
  | () -> (
    match check t with
    | Error fk -> Error (farkas_of_bfarkas fk)
    | Ok () -> Ok (model t, in_play t))

let solve_delta_cert atoms =
  match solve_full atoms with
  | Error fk -> Error (core_of_farkas fk, fk)
  | Ok (model, all) -> Ok (model, all)

let solve_delta atoms =
  match solve_full atoms with
  | Error fk -> Error (core_of_farkas fk)
  | Ok (model, _) -> Ok model

let solve atoms =
  match solve_full atoms with
  | Error fk -> Unsat (core_of_farkas fk)
  | Ok (dmodel, all) ->
    let delta0 = Delta.choose_delta all in
    Sat (List.map (fun (v, d) -> (v, Delta.apply delta0 d)) dmodel)
