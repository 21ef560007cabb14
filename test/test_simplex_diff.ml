(* Differential tests for the incremental simplex/theory stack: a
   persistent tableau answering through rounds and push/pop cut levels
   must be *bit-identical* to building and solving from scratch — same
   verdicts, same models (values and order), same cores, same Farkas
   multipliers. This is the determinism contract solver-level result
   reproducibility rests on (DESIGN.md section 15), so the comparisons
   below use exact equality, not satisfiability-preserving equivalence. *)

open Sia_numeric
open Sia_smt

let qi = Rat.of_int
let c = Linexpr.of_int
let sv coeff x = Linexpr.var ~coeff:(qi coeff) x

(* --- Generators ------------------------------------------------------- *)

let gen_linexpr =
  QCheck.Gen.(
    let* a = int_range (-3) 3 in
    let* b = int_range (-3) 3 in
    let* d = int_range (-3) 3 in
    return (Linexpr.add (sv a 0) (Linexpr.add (sv b 1) (sv d 2))))

let gen_atom =
  QCheck.Gen.(
    let* e = gen_linexpr in
    let* k = int_range (-8) 8 in
    let* kind = int_range 0 3 in
    return
      (match kind with
       | 0 -> Atom.mk_le e (c k)
       | 1 -> Atom.mk_lt e (c k)
       | 2 -> Atom.mk_ge e (c k)
       | _ -> Atom.mk_eq e (c k)))

let gen_lit =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun a -> (a, true)) gen_atom);
        ( 1,
          (* Dvd only over the integer-typed variables (0 and 2; the
             session tests type variable 1 rational). *)
          let* a = int_range (-3) 3 in
          let* b = int_range (-3) 3 in
          let* d = int_range 2 4 in
          let* pol = bool in
          return
            (Atom.mk_dvd (Bigint.of_int d) (Linexpr.add (sv a 0) (sv b 2)), pol) );
      ])

(* --- Session rounds vs fresh solves (theory level) --------------------- *)

(* A pool of literals queried as overlapping rounds against one session:
   every round's verdict must equal a fresh from-scratch [check_cert] of
   the same round — Sat models equal as lists, Unsat cores equal as
   literal lists — and every incremental Unsat certificate must satisfy
   the independent checker (this is what --paranoid runs rely on). *)
let gen_rounds =
  QCheck.Gen.(
    let* pool = list_size (int_range 4 8) gen_lit in
    let pool = Array.of_list pool in
    let* nrounds = int_range 2 5 in
    let gen_round =
      let* picks = list_size (int_range 1 4) (int_range 0 (Array.length pool - 1)) in
      return (List.map (fun i -> pool.(i)) picks)
    in
    let* rounds = list_repeat nrounds gen_round in
    return rounds)

let lit_pp fmt (a, pol) =
  Format.fprintf fmt "%s%a" (if pol then "" else "not ") (Atom.pp ?name:None) a

let show_verdict = function
  | Theory.Sat m ->
    Format.asprintf "Sat [%a]"
      (Format.pp_print_list (fun fmt (v, q) -> Format.fprintf fmt "x%d=%a;" v Rat.pp q))
      m
  | Theory.Unsat core ->
    Format.asprintf "Unsat [%a]" (Format.pp_print_list lit_pp) core
  | Theory.Unknown -> "Unknown"

let same_verdict a b =
  match (a, b) with
  | Theory.Sat m1, Theory.Sat m2 ->
    List.length m1 = List.length m2
    && List.for_all2 (fun (v1, q1) (v2, q2) -> v1 = v2 && Rat.equal q1 q2) m1 m2
  | Theory.Unsat c1, Theory.Unsat c2 ->
    List.length c1 = List.length c2
    && List.for_all2
         (fun (a1, p1) (a2, p2) -> p1 = p2 && Atom.equal a1 a2)
         c1 c2
  | Theory.Unknown, Theory.Unknown -> true
  | _ -> false

(* One session answering [rounds] in order: every verdict must equal a
   fresh from-scratch solve of the same round, and every incremental
   Unsat certificate must satisfy the independent checker. *)
let rounds_agree rounds =
  QCheck.assume
    (List.for_all
       (List.for_all (fun (a, pol) ->
            pol || match a with Atom.Dvd _ -> true | Atom.Lin _ -> false))
       rounds);
  let is_int v = v <> 1 in
  let node_limit = 200 in
  let session = Theory.create_session ~is_int ~node_limit ~max_var:16 () in
  List.iteri
    (fun i round ->
      let sv, scert = Theory.check_cert_session session round in
      let fv, _ = Theory.check_cert ~is_int ~node_limit round in
      if not (same_verdict sv fv) then
        QCheck.Test.fail_reportf "round %d: session %s but fresh %s" i
          (show_verdict sv) (show_verdict fv);
      match (sv, scert) with
      | Theory.Unsat core, Some cert ->
        (* Incremental certificates must pass the independent checker. *)
        (try Sia_check.Check.check_lemma ~is_int core cert
         with Cert.Certificate_error msg ->
           QCheck.Test.fail_reportf "round %d: certificate rejected: %s" i msg)
      | Theory.Unsat _, None ->
        QCheck.Test.fail_reportf "round %d: Unsat without certificate" i
      | (Theory.Sat _ | Theory.Unknown), _ -> ())
    rounds;
  true

let pp_rounds rounds =
  String.concat " | "
    (List.map (fun r -> Format.asprintf "%a" (Format.pp_print_list lit_pp) r) rounds)

let prop_session_matches_fresh =
  QCheck.Test.make ~name:"session rounds identical to fresh solves" ~count:300
    (QCheck.make gen_rounds ~print:pp_rounds)
    rounds_agree

(* Growing literal lists — each round appends a suffix to the previous
   one, so consecutive rounds share a prefix of literals whose
   expansions and translations the session already holds. Verdicts and
   certificates must stay bit-identical to scratch. *)
let gen_growing =
  QCheck.Gen.(
    let* base = list_size (int_range 1 4) gen_lit in
    let* exts = list_size (int_range 1 3) (list_size (int_range 1 2) gen_lit) in
    return
      (List.rev
         (List.fold_left (fun acc ext -> (List.hd acc @ ext) :: acc) [ base ] exts)))

let prop_growing_matches_fresh =
  QCheck.Test.make ~name:"growing rounds identical to fresh solves" ~count:300
    (QCheck.make gen_growing ~print:pp_rounds)
    rounds_agree

(* --- Push/pop cuts vs scratch solves (simplex level) ------------------- *)

(* Round setup against a session tableau, mirroring [Theory]'s protocol:
   external variables in atom order, then slack activation in atom order
   with constant atoms conflicting at their position, then all bound
   scans in atom order. *)
let setup_round sx atoms =
  Simplex.begin_round sx;
  let tagged =
    List.mapi (fun si a -> (si, a, Simplex.translate sx a)) atoms
  in
  List.iter
    (fun (_, a, _) ->
      List.iter (fun v -> Simplex.touch sx (Simplex.intern_var sx v)) (Atom.vars a))
    tagged;
  List.iter
    (fun (si, _, tr) ->
      match tr with
      | Simplex.TConst { ok; coeff } ->
        if not ok then raise (Simplex.Conflict [ (Simplex.Hyp si, coeff) ])
      | Simplex.TBounds { svar; _ } -> Simplex.touch sx svar)
    tagged;
  List.iter
    (fun (si, _, tr) ->
      match tr with
      | Simplex.TConst _ -> ()
      | Simplex.TBounds { svar; bnds } ->
        List.iter
          (fun (upper, value) ->
            if upper then Simplex.scan_upper sx svar value (Simplex.Hyp si)
            else Simplex.scan_lower sx svar value (Simplex.Hyp si))
          bnds)
    tagged;
  Simplex.seal_base sx

(* Map a session certificate into the scratch index space: base atoms
   keep their index, the cut at root distance [d] is scratch atom
   [n_base + (ncuts - 1 - d)] (the scratch list carries cuts newest
   first). *)
let map_bref ~n_base ~ncuts = function
  | Simplex.Hyp si -> si
  | Simplex.Cut d -> n_base + (ncuts - 1 - d)

let sorted_fk fk = List.sort (fun (i, _) (j, _) -> compare i j) fk

let same_fk fk1 fk2 =
  List.length fk1 = List.length fk2
  && List.for_all2
       (fun (i1, c1) (i2, c2) -> i1 = i2 && Rat.equal c1 c2)
       (sorted_fk fk1) (sorted_fk fk2)

let same_model m1 m2 =
  List.length m1 = List.length m2
  && List.for_all2 (fun (v1, d1) (v2, d2) -> v1 = v2 && Delta.equal d1 d2) m1 m2

let same_in_play p1 p2 =
  let s = List.sort Delta.compare in
  List.length p1 = List.length p2 && List.for_all2 Delta.equal (s p1) (s p2)

(* Outcome of one incremental node, in scratch coordinates. *)
type node_result =
  | NConflict of (int * Rat.t) list
  | NModel of (int * Delta.t) list * Delta.t list

let incr_node sx ~n_base ~ncuts setup =
  match
    setup ();
    Simplex.check sx
  with
  | exception Simplex.Conflict fk ->
    NConflict (List.map (fun (r, q) -> (map_bref ~n_base ~ncuts r, q)) fk)
  | Error fk ->
    NConflict (List.map (fun (r, q) -> (map_bref ~n_base ~ncuts r, q)) fk)
  | Ok () -> NModel (Simplex.model sx, Simplex.in_play sx)

let scratch_node atoms =
  match Simplex.solve_delta_cert atoms with
  | Error (_, fk) -> NConflict fk
  | Ok (m, all) -> NModel (m, all)

let same_node a b =
  match (a, b) with
  | NConflict f1, NConflict f2 -> same_fk f1 f2
  | NModel (m1, p1), NModel (m2, p2) -> same_model m1 m2 && same_in_play p1 p2
  | _ -> false

let show_node = function
  | NConflict fk ->
    Format.asprintf "Conflict [%a]"
      (Format.pp_print_list (fun fmt (i, q) -> Format.fprintf fmt "(%d,%a);" i Rat.pp q))
      fk
  | NModel (m, _) ->
    Format.asprintf "Model [%a]"
      (Format.pp_print_list (fun fmt (v, d) -> Format.fprintf fmt "x%d=%a;" v Delta.pp d))
      m

(* Cut specs: (variable, upper?) plus a step; concretized so consecutive
   cuts on the same side of the same variable strictly tighten, as real
   branch-and-bound cuts do (a branch always cuts at the floor/ceiling
   of a value strictly inside the current bounds). *)
let gen_case =
  QCheck.Gen.(
    let* base = list_size (int_range 1 5) gen_atom in
    let* cuts =
      list_size (int_range 0 4)
        (let* v = int_range 0 2 in
         let* upper = bool in
         let* start = int_range (-5) 5 in
         let* step = int_range 1 2 in
         return (v, upper, start, step))
    in
    return (base, cuts))

(* Branch-and-bound only ever cuts on a variable of the round ([first_frac]
   picks from the model), and [assert_cut] relies on that: it does not
   enroll new external variables. Restrict generated cuts accordingly. *)
let eligible_cuts base cuts =
  let vs = List.sort_uniq compare (List.concat_map Atom.vars base) in
  List.filter (fun (v, _, _, _) -> List.mem v vs) cuts

let concretize_cuts cuts =
  let last = Hashtbl.create 8 in
  List.map
    (fun (v, upper, start, step) ->
      let value =
        match Hashtbl.find_opt last (v, upper) with
        | None -> start
        | Some prev -> if upper then prev - step else prev + step
      in
      Hashtbl.replace last (v, upper) value;
      if upper then Atom.mk_le (Linexpr.var v) (c value)
      else Atom.mk_ge (Linexpr.var v) (c value))
    cuts

let prop_pushpop_matches_scratch =
  QCheck.Test.make ~name:"push/pop cuts identical to scratch solves" ~count:500
    (QCheck.make gen_case ~print:(fun (base, cuts) ->
         Format.asprintf "base [%a] cuts [%a]"
           (Format.pp_print_list (Atom.pp ?name:None))
           base
           (Format.pp_print_list (Atom.pp ?name:None))
           (concretize_cuts (eligible_cuts base cuts))))
    (fun (base, cuts) ->
      let cut_atoms = concretize_cuts (eligible_cuts base cuts) in
      let n_base = List.length base in
      let sx = Simplex.create () in
      (* Drive the same tableau through two identical rounds so the
         second one exercises structure reuse (interned vars, cached
         template rows) rather than first-touch allocation. *)
      for _round = 1 to 2 do
        let results = ref [] in
        (* Root node. *)
        let root = incr_node sx ~n_base ~ncuts:0 (fun () -> setup_round sx base) in
        let sroot = scratch_node base in
        if not (same_node root sroot) then
          QCheck.Test.fail_reportf "root: incremental %s but scratch %s"
            (show_node root) (show_node sroot);
        results := [ root ];
        (* Descend a cut path, comparing every node against a scratch
           solve of base @ cuts-so-far (newest first). *)
        let alive = ref (match root with NModel _ -> true | NConflict _ -> false) in
        List.iteri
          (fun i cut ->
            if !alive then begin
              Simplex.push sx;
              let tr = Simplex.translate sx cut in
              let ncuts = i + 1 in
              let node =
                incr_node sx ~n_base ~ncuts (fun () ->
                    Simplex.assert_cut sx tr ~depth:i)
              in
              let extra =
                List.rev (List.filteri (fun j _ -> j <= i) cut_atoms)
              in
              let snode = scratch_node (base @ extra) in
              if not (same_node node snode) then
                QCheck.Test.fail_reportf
                  "depth %d: incremental %s but scratch %s" ncuts
                  (show_node node) (show_node snode);
              results := node :: !results;
              match node with NConflict _ -> alive := false | NModel _ -> ()
            end)
          cut_atoms;
        (* Unwind, checking that pop restores each earlier node's exact
           result (conflicts were popped eagerly above, so only replay
           levels that were pushed). *)
        let depth = ref (List.length !results - 1) in
        results := List.tl !results;
        List.iter
          (fun expected ->
            Simplex.pop sx;
            decr depth;
            let replay =
              incr_node sx ~n_base ~ncuts:!depth (fun () -> ())
            in
            if not (same_node replay expected) then
              QCheck.Test.fail_reportf
                "pop to depth %d: replay %s but first visit %s" !depth
                (show_node replay) (show_node expected))
          !results;
        if not (Simplex.at_base sx) then
          QCheck.Test.fail_reportf "trail not empty after unwinding"
      done;
      true)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "simplex-diff"
    [
      ( "session-vs-fresh",
        qsuite [ prop_session_matches_fresh; prop_growing_matches_fresh ] );
      ("pushpop-vs-scratch", qsuite [ prop_pushpop_matches_scratch ]);
    ]
