open Sia_numeric

type lit = Atom.t * bool

type verdict =
  | Sat of (int * Rat.t) list
  | Unsat of lit list
  | Unknown

(* Rewrite a literal into plain linear atoms, introducing fresh integer
   variables for divisibility. [fresh] allocates variable ids that cannot
   clash with the caller's. Returns the expanded atoms together with the
   fresh witness variables introduced, in allocation order — the
   certificate checker re-derives this expansion from the literal and the
   witness ids alone, so the shape here is part of the certificate
   contract (see [Check.expand_spec]). *)
let expand_lit fresh (a, polarity) =
  match (a, polarity) with
  | Atom.Lin _, false -> invalid_arg "Theory.check: negated Lin literal"
  | Atom.Lin _, true -> ([ a ], [])
  | Atom.Dvd (d, e), true ->
    (* d | e  <=>  exists q. e - d*q = 0 *)
    let q = fresh () in
    ([ Atom.mk_eq e (Linexpr.var ~coeff:(Rat.of_bigint d) q) ], [ q ])
  | Atom.Dvd (d, e), false ->
    (* not (d | e)  <=>  exists q r. e = d*q + r  /\  1 <= r <= d-1 *)
    let q = fresh () and r = fresh () in
    let dq = Linexpr.var ~coeff:(Rat.of_bigint d) q in
    let rv = Linexpr.var r in
    ( [
        Atom.mk_eq e (Linexpr.add dq rv);
        Atom.mk_ge rv (Linexpr.of_int 1);
        Atom.mk_le rv (Linexpr.sub (Linexpr.const (Rat.of_bigint d)) (Linexpr.of_int 1));
      ],
      [ q; r ] )

(* Integer tightening: for an atom whose variables are all integer (with
   integer coefficients, which canonical atoms guarantee), the constraint
   sum c_i x_i + k (rel) 0 can be strengthened without losing integer
   points: with g = gcd(c_i) and t = (sum c_i x_i)/g,
     t + k/g <  0  becomes  t <= ceil(-k/g) - 1
     t + k/g <= 0  becomes  t <= floor(-k/g).
   This is what lets simplex alone refute fractional strips such as
   19 < x - y < 20 that branch-and-bound cannot (the region is unbounded). *)
let tighten_int is_int atom =
  match atom with
  | Atom.Lin ((Atom.Le | Atom.Lt) as rel, e) ->
    let terms = Linexpr.terms e in
    let k = Linexpr.constant e in
    if terms = [] || not (List.for_all (fun (v, c) -> is_int v && Rat.is_integer c) terms)
       || not (Rat.is_integer k)
    then atom
    else begin
      let g = List.fold_left (fun acc (_, c) -> Bigint.gcd acc c.Rat.num) Bigint.zero terms in
      if Bigint.is_zero g then atom
      else begin
        let t = Linexpr.scale (Rat.make Bigint.one g) (Linexpr.set_constant e Rat.zero) in
        let bound = Rat.div (Rat.neg k) (Rat.of_bigint g) in
        let rhs =
          match rel with
          | Atom.Le -> Rat.floor bound
          | Atom.Lt -> Bigint.sub (Rat.ceil bound) Bigint.one
          | Atom.Eq -> assert false
        in
        Atom.mk_le t (Linexpr.const (Rat.of_bigint rhs))
      end
    end
  | Atom.Lin (Atom.Eq, _) | Atom.Dvd _ -> atom

(* gcd test: an equality sum c_i x_i + k = 0 with all x_i integer is
   infeasible when gcd(c_i) does not divide k (after integer scaling,
   which canonical atoms already have). *)
let gcd_infeasible is_int atom =
  match atom with
  | Atom.Lin (Atom.Eq, e) ->
    let terms = Linexpr.terms e in
    if terms <> [] && List.for_all (fun (v, _) -> is_int v) terms then begin
      let g =
        List.fold_left (fun acc (_, c) -> Bigint.gcd acc c.Rat.num) Bigint.zero terms
      in
      let k = Linexpr.constant e in
      (not (Bigint.is_zero g))
      && Rat.is_integer k
      && not (Bigint.is_zero (Bigint.rem k.Rat.num g))
    end
    else false
  | Atom.Lin _ | Atom.Dvd _ -> false

(* Floor of a delta-rational for an integer variable: the largest integer
   strictly representable below (or at) the value. *)
let delta_floor (d : Delta.t) =
  let r = d.Delta.real in
  if Rat.is_integer r then begin
    if Rat.sign d.Delta.inf < 0 then Bigint.sub (Rat.floor r) Bigint.one else Rat.floor r
  end
  else Rat.floor r

(* Remap the [Hyp] references of a refutation tree from input-literal
   indices to positions in the core literal list. *)
let rec remap_tree pos = function
  | Cert.Leaf fk ->
    Cert.Leaf
      (List.map
         (function
           | Cert.Hyp (i, j), c -> (Cert.Hyp (pos i, j), c)
           | (Cert.Cut _, _) as e -> e)
         fk)
  | Cert.Branch b ->
    Cert.Branch { b with le = remap_tree pos b.le; ge = remap_tree pos b.ge }

(* ------------------------------------------------------------------ *)
(* Sessions: shared tableau across theory rounds                       *)
(* ------------------------------------------------------------------ *)

(* Reuse counters, sampled as deltas by the solver's stats machinery. *)
let reused_rounds = ref 0
let rebuilds = ref 0
let reused_round_count () = !reused_rounds
let rebuild_count () = !rebuilds

module LitTbl = Hashtbl.Make (struct
  type t = lit

  let equal (a1, p1) (a2, p2) = p1 = p2 && Atom.equal a1 a2
  let hash (a, p) = Hashtbl.hash (Atom.hash a, p)
end)

(* Per-atom record of a literal's expansion, computed once per session.
   The translation cache maps the atom onto the current tableau
   structure (dense variable ids in [Atom.vars] order, plus the slack /
   bound translation); it is keyed by the structure generation so a
   scratch rebuild invalidates it wholesale. *)
type aentry = {
  ta : Atom.t; (* tightened atom *)
  gcd_bad : bool;
  mutable tcache : (int * int array * Simplex.trans) option;
}

type entry = {
  aents : aentry array; (* in expansion order *)
  fresh : int list; (* witness variables, allocation order *)
}

type session = {
  is_int : int -> bool;
  fresh_base : int; (* ids >= fresh_base are session-allocated witnesses *)
  mutable next_fresh : int;
  entries : entry LitTbl.t;
  mutable simplex : Simplex.t;
  mutable sgen : int; (* structure generation, bumped on rebuild *)
  mutable node_limit : int;
}

let create_session ~is_int ?(node_limit = 4000) ~max_var () =
  {
    is_int;
    fresh_base = max_var + 1;
    next_fresh = max_var + 1;
    entries = LitTbl.create 64;
    simplex = Simplex.create ();
    sgen = 0;
    node_limit;
  }

let session_fresh_base s = s.fresh_base
let set_session_node_limit s n = s.node_limit <- n
let session_is_int s v = v >= s.fresh_base || s.is_int v

let entry_of_lit s lit =
  match LitTbl.find_opt s.entries lit with
  | Some e -> e
  | None ->
    let fresh () =
      let v = s.next_fresh in
      s.next_fresh <- v + 1;
      v
    in
    let atoms, fresh_list = expand_lit fresh lit in
    let is_int' = session_is_int s in
    let aents =
      Array.of_list
        (List.map
           (fun a ->
             let ta = tighten_int is_int' a in
             { ta; gcd_bad = gcd_infeasible is_int' ta; tcache = None })
           atoms)
    in
    let e = { aents; fresh = fresh_list } in
    LitTbl.add s.entries lit e;
    e

(* Scratch-rebuild escape hatch: interned variables and slack rows are
   never garbage collected, so a session whose literal population has
   drifted can accumulate structure far beyond what any one round
   touches. When dead structure dominates, start over with a fresh
   tableau — results are unaffected (every round is solved from the
   canonical basis), only translation caches need invalidating. *)
let maybe_rebuild s ~needed =
  if Simplex.n_vars s.simplex > (4 * needed) + 64 then begin
    incr rebuilds;
    if Sia_trace.Trace.enabled () then
      Sia_trace.Trace.instant "simplex.rebuild"
        ~args:
          [
            ("vars", Sia_trace.Trace.Int (Simplex.n_vars s.simplex));
            ("needed", Sia_trace.Trace.Int needed);
          ];
    s.simplex <- Simplex.create ();
    s.sgen <- s.sgen + 1
  end

let check_cert_session s lits =
  let lits_arr = Array.of_list lits in
  let n_lits = Array.length lits_arr in
  let entry_arr = Array.map (entry_of_lit s) lits_arr in
  let max_input_var =
    Array.fold_left
      (fun acc (a, _) -> List.fold_left max acc (Atom.vars a))
      (-1) lits_arr
  in
  if max_input_var >= s.fresh_base then
    invalid_arg "Theory.Session: literal variable clashes with session witness ids";
  (* Flatten the expansions, tagging each atom with (input literal index,
     position within that literal's expansion) — the [Hyp] coordinates of
     certificates. Simplex-level [Hyp] references are indices into this
     flattened list. *)
  let base_ref, base_aent =
    let refs = ref [] and aes = ref [] in
    for i = n_lits - 1 downto 0 do
      let aents = entry_arr.(i).aents in
      for j = Array.length aents - 1 downto 0 do
        refs := (i, j) :: !refs;
        aes := aents.(j) :: !aes
      done
    done;
    (Array.of_list !refs, Array.of_list !aes)
  in
  let n_base = Array.length base_ref in
  (* Certificate for an Unsat core: per-core-literal fresh witnesses plus
     the refutation, with [Hyp] references remapped to core positions. *)
  let cert_for core_idx refutation =
    let pos =
      let tbl = Hashtbl.create 8 in
      List.iteri (fun p i -> Hashtbl.add tbl i p) core_idx;
      fun i -> try Hashtbl.find tbl i with Not_found -> -1
    in
    let refutation =
      match refutation with
      | Cert.Tree t -> Cert.Tree (remap_tree pos t)
      | Cert.Gcd _ as g -> g
    in
    {
      Cert.fresh = Array.of_list (List.map (fun i -> entry_arr.(i).fresh) core_idx);
      refutation;
    }
  in
  (* Fast gcd screen (pure; simplex untouched on a hit). *)
  let gcd_hit = ref None in
  (try
     for si = 0 to n_base - 1 do
       if base_aent.(si).gcd_bad then begin
         gcd_hit := Some base_ref.(si);
         raise Exit
       end
     done
   with Exit -> ());
  match !gcd_hit with
  | Some (i, j) ->
    (Unsat [ lits_arr.(i) ], Some (cert_for [ i ] (Cert.Gcd (0, j))))
  | None -> begin
    let orig_vars =
      List.sort_uniq Stdlib.compare (List.concat_map (fun (a, _) -> Atom.vars a) lits)
    in
    maybe_rebuild s ~needed:(n_base + List.length orig_vars);
    let sx = s.simplex in
    let is_int' = session_is_int s in
    (* Dense variables and bound translation of a base atom, memoized
       against the current structure generation. *)
    let trans_of si =
      let ae = base_aent.(si) in
      match ae.tcache with
      | Some (g, dv, tr) when g = s.sgen -> (dv, tr)
      | Some _ | None ->
        let dv =
          Array.of_list (List.map (Simplex.intern_var sx) (Atom.vars ae.ta))
        in
        let tr = Simplex.translate sx ae.ta in
        ae.tcache <- Some (s.sgen, dv, tr);
        (dv, tr)
    in
    (* Round setup, mirroring a scratch tableau build of the flattened
       atom list: activate external variables in atom order, then slacks
       in atom order (false constant atoms conflict at their position),
       then scan all bounds in atom order. *)
    let setup_base () =
      let nv0 = Simplex.n_vars sx in
      Simplex.begin_round sx;
      for si = 0 to n_base - 1 do
        let dv, _ = trans_of si in
        Array.iter (fun d -> Simplex.touch sx d) dv
      done;
      for si = 0 to n_base - 1 do
        match snd (trans_of si) with
        | Simplex.TConst { ok; coeff } ->
          if not ok then raise (Simplex.Conflict [ (Simplex.Hyp si, coeff) ])
        | Simplex.TBounds { svar; _ } -> Simplex.touch sx svar
      done;
      for si = 0 to n_base - 1 do
        match snd (trans_of si) with
        | Simplex.TConst _ -> ()
        | Simplex.TBounds { svar; bnds } ->
          List.iter
            (fun (upper, value) ->
              if upper then Simplex.scan_upper sx svar value (Simplex.Hyp si)
              else Simplex.scan_lower sx svar value (Simplex.Hyp si))
            bnds
      done;
      Simplex.seal_base sx;
      if nv0 > 0 && Simplex.n_vars sx = nv0 then incr reused_rounds
    in
    let cert_ref = function
      | Simplex.Hyp si ->
        let i, j = base_ref.(si) in
        Cert.Hyp (i, j)
      | Simplex.Cut d -> Cert.Cut d
    in
    let leaf_of_bfarkas fk = Cert.Leaf (List.map (fun (br, c) -> (cert_ref br, c)) fk) in
    let core_of_bfarkas fk =
      List.sort_uniq Stdlib.compare
        (List.filter_map
           (function
             | Simplex.Hyp si, _ -> Some (fst base_ref.(si))
             | Simplex.Cut _, _ -> None)
           fk)
    in
    let nodes = ref 0 in
    let exception Out_of_budget in
    (* Branch and bound over the shared tableau. Each node first performs
       its setup — the root builds the round's bound caches, an inner
       node asserts its branching cut (a pair of single-variable bounds,
       no new rows) — then pivots from the canonical basis. Setup runs
       after the budget gate so crossing conflicts are accounted to the
       node that discovered them, exactly as when each node is solved
       from scratch. [depth] is the number of cuts on the current path; a
       cut asserted here is [Cut depth] in certificate references,
       matching the branch tree's root distance. *)
    let rec bb ~depth ~setup =
      incr nodes;
      if !nodes > s.node_limit then raise Out_of_budget;
      match
        setup ();
        Simplex.check sx
      with
      | exception Simplex.Conflict fk ->
        Error (core_of_bfarkas fk, leaf_of_bfarkas fk)
      | Error fk -> Error (core_of_bfarkas fk, leaf_of_bfarkas fk)
      | Ok () -> begin
        match Simplex.first_frac sx ~is_int:is_int' with
        | None ->
          (* Leaf model: read assignments and in-play values before any
             backtracking pops the cut bounds they satisfy. *)
          Ok (Simplex.model sx, Simplex.in_play sx)
        | Some (v, d) ->
          let fl = delta_floor d in
          let le = Atom.mk_le (Linexpr.var v) (Linexpr.const (Rat.of_bigint fl)) in
          let ge =
            Atom.mk_ge (Linexpr.var v)
              (Linexpr.const (Rat.of_bigint (Bigint.add fl Bigint.one)))
          in
          let branch cut =
            (* The pop must survive Out_of_budget escaping from [bb]:
               a leaked frame would let the next branch read bounds
               asserted by an abandoned sibling. *)
            Simplex.push sx;
            Fun.protect
              ~finally:(fun () -> Simplex.pop sx)
              (fun () ->
                let tr = Simplex.translate sx cut in
                bb ~depth:(depth + 1)
                  ~setup:(fun () -> Simplex.assert_cut sx tr ~depth))
          in
          (match branch le with
           | Ok m -> Ok m
           | Error (c1, t1) -> begin
             match branch ge with
             | Ok m -> Ok m
             | Error (c2, t2) ->
               Error
                 ( List.sort_uniq Int.compare (c1 @ c2),
                   Cert.Branch { var = v; floor = fl; le = t1; ge = t2 } )
           end)
      end
    in
    match bb ~depth:0 ~setup:setup_base with
    | exception Out_of_budget -> (Unknown, None)
    | Error (core_idx, tree) ->
      (* A branch-derived core can be empty only if infeasibility came
         entirely from internal atoms, which cannot happen since branches
         partition integer space; fall back to the full literal set. *)
      let core_idx =
        if core_idx = [] then List.init n_lits (fun i -> i) else core_idx
      in
      ( Unsat (List.map (fun i -> lits_arr.(i)) core_idx),
        Some (cert_for core_idx (Cert.Tree tree)) )
    | Ok (dmodel, in_play) ->
      (* delta0 must preserve not only the pairwise order of variable
         values but the sign of every constraint row: a strict atom like
         [10x - y < 0] with [x = delta] tolerates only [delta0 < 1/10],
         which no pairwise comparison of the input variables' values
         reveals. [in_play] is the simplex's full set of assignments
         (slack rows included) and bounds, exactly what choose_delta
         needs. Concretization and model assembly get their own span, so
         a trace separates them from the simplex work in [theory.check]. *)
      Sia_trace.Trace.span "theory.model" @@ fun () ->
      let delta0 = Delta.choose_delta in_play in
      let in_orig = Hashtbl.create 64 in
      List.iter (fun v -> Hashtbl.replace in_orig v ()) orig_vars;
      let model =
        List.filter_map
          (fun (v, d) ->
            if Hashtbl.mem in_orig v then Some (v, Delta.apply delta0 d) else None)
          dmodel
      in
      (* Variables mentioned in the input but absent from the simplex
         (eliminated constants etc.) default to zero. *)
      let present = Hashtbl.create 64 in
      List.iter (fun (v, _) -> Hashtbl.replace present v ()) model;
      let model =
        List.fold_left
          (fun acc v ->
            if Hashtbl.mem present v then acc
            else begin
              Hashtbl.replace present v ();
              (v, Rat.zero) :: acc
            end)
          model orig_vars
      in
      (Sat model, None)
  end

(* ------------------------------------------------------------------ *)
(* One-shot interface                                                  *)
(* ------------------------------------------------------------------ *)

let check_cert ~is_int ?(node_limit = 4000) lits =
  let max_var =
    List.fold_left (fun acc (a, _) -> List.fold_left max acc (Atom.vars a)) 0 lits
  in
  let s = create_session ~is_int ~node_limit ~max_var () in
  check_cert_session s lits

let check ~is_int ?node_limit lits = fst (check_cert ~is_int ?node_limit lits)
