(* Differential tests for the fast sample-generation paths: the CEGQI
   ∃∀ backend must agree with eager elimination (FM over the rationals,
   Cooper over the integers) followed by direct solving; every CEGQI
   witness must check strictly; a predicate past the DNF limit still
   synthesizes, through CEGQI; pool replay must never surface a sample
   the full formula rejects; and under-approximation conflict pins stay
   scoped to the query that discovered them. *)

open Sia_numeric
open Sia_smt
module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Schema = Sia_relalg.Schema
open Sia_core

let qi = Rat.of_int
let v = Linexpr.var
let c = Linexpr.of_int
let sv coeff x = Linexpr.var ~coeff:(qi coeff) x
let all_int = fun _ -> true
let all_rat = fun _ -> false

(* ∃∀ instances over three variables: x = {0, 1} existential, y = {2}
   universal. The guard box keeps integer branch-and-bound finite and
   every instance inside both QE methods' exact fragments. *)
let box lo hi vars =
  List.concat_map
    (fun x ->
      [
        Formula.atom (Atom.mk_ge (v x) (c lo));
        Formula.atom (Atom.mk_le (v x) (c hi));
      ])
    vars

let gen_atom vars =
  QCheck.Gen.(
    let* coeffs = flatten_l (List.map (fun _ -> int_range (-3) 3) vars) in
    let* k = int_range (-9) 9 in
    let* rel = int_range 0 3 in
    let e =
      List.fold_left2
        (fun acc x a -> Linexpr.add acc (sv a x))
        Linexpr.zero vars coeffs
    in
    return
      (match rel with
       | 0 -> Atom.mk_le e (c k)
       | 1 -> Atom.mk_lt e (c k)
       | 2 -> Atom.mk_ge e (c k)
       | _ -> Atom.mk_eq e (c k)))

let gen_formula vars =
  QCheck.Gen.(
    let rec gen depth =
      if depth = 0 then map Formula.atom (gen_atom vars)
      else
        frequency
          [
            (3, map Formula.atom (gen_atom vars));
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
    gen 2)

(* One ∃∀ instance: matrix P(x, y), existential guard G(x). *)
let gen_instance =
  QCheck.Gen.(
    let* matrix = gen_formula [ 0; 1; 2 ] in
    let* guard = gen_formula [ 0; 1 ] in
    return (matrix, guard))

let instance = QCheck.make gen_instance

(* Decide ∃x. G ∧ box ∧ ∀y.¬P by eager elimination: project y out of P,
   then solve the quantifier-free residue directly. [None] when either
   step hits a resource limit. *)
let eager_decide ~method_ ~is_int (matrix, guard) =
  match Qe.project ~method_ ~eliminate:[ 2 ] matrix with
  | None -> None
  (* A projection can stay under [Qe.project]'s internal cube limit yet
     come out enormous (Cooper divisibility towers especially); solving
     its negation then dominates the whole suite on one unlucky case.
     The differential makes no claim on such instances. *)
  | Some projected when Formula.size projected > 800 -> None
  | Some projected -> (
    let f = Formula.and_ (guard :: Formula.not_ projected :: box (-8) 8 [ 0; 1 ]) in
    (* Cap theory rounds: an unlucky integer instance can branch-and-
       bound for minutes, and Unknown already means "no claim" here. *)
    match Solver.solve ~max_rounds:400 ~is_int f with
    | Solver.Sat _ -> Some true
    | Solver.Unsat -> Some false
    | Solver.Unknown -> None)

let cegqi_decide ~is_int (matrix, guard) =
  Cegqi.solve_exists_forall ~max_rounds:400 ~node_limit:1000 ~is_int
    ~univ:[ 2 ] ~matrix
    ~guard:(guard :: box (-8) 8 [ 0; 1 ])
    ()

let agree_test ~name ~method_ ~is_int =
  QCheck.Test.make ~name ~count:60 instance (fun inst ->
      Solver.reset_caches ();
      (try ignore (cegqi_decide ~is_int inst)
       with e ->
         let (matrix, guard) = inst in
         Format.eprintf "CERTFAIL %s@.matrix: %a@.guard: %a@." (Printexc.to_string e)
           (Formula.pp ?name:None) matrix (Formula.pp ?name:None) guard;
         raise e);
      match (eager_decide ~method_ ~is_int inst, cegqi_decide ~is_int inst) with
      | None, _ | _, Cegqi.Unknown_ea -> true (* resource limit: no claim *)
      | Some eager, Cegqi.Witness _ -> eager
      | Some eager, Cegqi.Unsat_ea _ -> not eager)

let prop_cegqi_agrees_fm_rat =
  agree_test ~name:"cegqi agrees with FM + direct solve (rationals)"
    ~method_:`Real ~is_int:all_rat

let prop_cegqi_agrees_cooper_int =
  agree_test ~name:"cegqi agrees with Cooper + direct solve (integers)"
    ~method_:`Int ~is_int:all_int

(* Every Witness is a checkable certificate: the guard block evaluates
   true under it (strict evaluation — the model is total over the
   non-universal variables) and the matrix with the witness pinned has no
   universal counterexample. *)
let prop_witness_checks =
  QCheck.Test.make ~name:"cegqi witnesses check strictly" ~count:60 instance
    (fun ((matrix, guard) as inst) ->
      Solver.reset_caches ();
      match cegqi_decide ~is_int:all_int inst with
      | Cegqi.Unsat_ea _ | Cegqi.Unknown_ea -> true
      | Cegqi.Witness m -> (
        let lookup x = match List.assoc_opt x m with Some r -> r | None -> Rat.zero in
        List.for_all
          (fun g -> Formula.eval g lookup)
          (guard :: box (-8) 8 [ 0; 1 ])
        &&
        let pins =
          List.map
            (fun x -> Formula.atom (Atom.mk_eq (v x) (Linexpr.const (lookup x))))
            [ 0; 1 ]
        in
        match
          Solver.solve ~max_rounds:400 ~is_int:all_int
            (Formula.and_ (matrix :: pins))
        with
        | Solver.Unsat -> true
        | Solver.Sat _ -> false
        | Solver.Unknown -> true (* universal side hit a limit: skip *)))

(* Known-answer sanity checks for both definitive outcomes. *)
let test_cegqi_witness_exists () =
  Solver.reset_caches ();
  (* ∃x0 ∈ [0,5]. ∀y. ¬(y = x0 ∧ y ≥ 10): any x0 in the box works. *)
  let matrix =
    Formula.and_
      [
        Formula.atom (Atom.mk_eq (v 2) (v 0));
        Formula.atom (Atom.mk_ge (v 2) (c 10));
      ]
  in
  match
    Cegqi.solve_exists_forall ~node_limit:4000 ~is_int:all_int ~univ:[ 2 ]
      ~matrix ~guard:(box 0 5 [ 0 ]) ()
  with
  | Cegqi.Witness m ->
    let x0 = match List.assoc_opt 0 m with Some r -> r | None -> Rat.zero in
    Alcotest.(check bool) "witness inside the box" true
      (Rat.compare x0 Rat.zero >= 0 && Rat.compare x0 (qi 5) <= 0)
  | Cegqi.Unsat_ea _ -> Alcotest.fail "expected a witness, got Unsat_ea"
  | Cegqi.Unknown_ea -> Alcotest.fail "expected a witness, got Unknown_ea"

let test_cegqi_unsat () =
  Solver.reset_caches ();
  (* ∀y. ¬(y ≤ x0) never holds — y = x0 is always a counterexample. *)
  let matrix = Formula.atom (Atom.mk_le (v 2) (v 0)) in
  match
    Cegqi.solve_exists_forall ~node_limit:4000 ~is_int:all_int ~univ:[ 2 ]
      ~matrix ~guard:(box (-4) 4 [ 0 ]) ()
  with
  | Cegqi.Unsat_ea n ->
    Alcotest.(check bool) "refuted with at least one instantiation" true (n >= 1)
  | Cegqi.Witness _ -> Alcotest.fail "expected Unsat_ea, got a witness"
  | Cegqi.Unknown_ea -> Alcotest.fail "expected Unsat_ea, got Unknown_ea"

(* CEGQI is the only FALSE-sample path once elimination blows up. Thirteen
   two-way disjunctions put the DNF at 2^13 cubes, past [Formula.dnf]'s
   4096-cube limit, so projecting l_discount away fails and synthesis
   must answer through the ∃∀ loop. For integer q, ∃d ∈ [0, 10] satisfying
   every conjunct exists iff each i with q >= 10+3i has 2i+1 < 10, i.e.
   i <= 4, i.e. q < 25: the optimal reduction is q <= 24. *)
let past_dnf_limit_pred =
  Parser.parse_predicate
    (String.concat " AND "
       (List.init 13 (fun i ->
            Printf.sprintf "(l_quantity < %d OR l_discount > %d)" (10 + (3 * i))
              ((2 * i) + 1))
       @ [ "l_discount <= 10"; "l_discount >= 0" ]))

let test_cegqi_past_dnf_limit () =
  Solver.reset_caches ();
  let pred = past_dnf_limit_pred in
  let from = [ "lineitem" ] and target_cols = [ "l_quantity" ] in
  let env = Encode.build_env Schema.tpch from pred in
  let st = Samples.make_state Config.default env ~target_cols in
  Alcotest.(check bool) "eager projection gives up" true
    (Samples.project_away_others st (Encode.encode_bool env pred) = None);
  let s0 = Solver.stats () in
  let r = Synthesize.synthesize Schema.tpch ~from ~pred ~target_cols in
  let d = Solver.stats_since s0 in
  (match r.Synthesize.outcome with
   | Synthesize.Optimal p ->
     Alcotest.(check string) "optimal reduction" "24 >= l_quantity"
       (Sia_sql.Printer.string_of_pred p)
   | _ -> Alcotest.fail "expected an Optimal outcome");
  Alcotest.(check bool) "answered through CEGQI" true
    (r.Synthesize.solver.Solver.cegqi_instantiations > 0);
  Alcotest.(check int) "every certificate accepted" 0 d.Solver.cert_rejections

(* --- Pool replay strict-evaluation soundness --- *)

(* Pollute the model pool with valuations the query rejects (out of range,
   wrong sign) alongside genuine models, then drive gen_models: every
   sample it returns must satisfy the full formula, whatever rung served
   it, and the poisoned entries must never leak through. Run plain (the
   strict-evaluation witness alone) and paranoid (every replayed sample
   also re-derived by a certified solve — the only way that path runs). *)
let test_pool_replay_strict_eval ~paranoid () =
  Solver.reset_caches ();
  let pred = Parser.parse_predicate "l_quantity > 3 AND l_quantity < 40" in
  let env = Encode.build_env Schema.tpch [ "lineitem" ] pred in
  let base = Encode.encode_bool env pred in
  let key = "test-cegqi-pool" in
  let st =
    Samples.make_state ~pool_key:key
      { Config.default with Config.paranoid }
      env ~target_cols:[ "l_quantity" ]
  in
  List.iter
    (fun n -> Mpool.harvest ~key Mpool.True_side [| ("l_quantity", qi n) |])
    [ 1000; -5; 3; 10; 25 ];
  (* 1000, -5 and 3 violate the predicate; 10 and 25 satisfy it. *)
  let samples, _exhausted = Samples.gen_models st ~base ~count:8 ~existing:[] in
  Alcotest.(check bool) "produced samples" true (samples <> []);
  let qvar = Encode.var_of_column env "l_quantity" in
  List.iter
    (fun s ->
      let value = s.(0) in
      Alcotest.(check bool)
        (Printf.sprintf "sample %s satisfies the full formula"
           (Rat.to_string value))
        true
        (Formula.eval base (fun x -> if x = qvar then value else Rat.zero)))
    samples;
  let distinct = List.sort_uniq compare (List.map (fun s -> s.(0)) samples) in
  Alcotest.(check int) "samples are distinct"
    (List.length samples) (List.length distinct)

(* --- Trusted witnesses vs certified re-derivation, end to end --- *)

(* Plain mode trusts each fast-path answer's checkable witness; paranoid
   mode re-derives every one on the certified slow path (pool replays
   through [Samples.rederives], CEGQI witnesses through
   [rederives_false]). Checking must never change an answer, so the
   synthesized SQL is byte-identical across the two modes — including
   for the predicate that only CEGQI can answer. *)
let test_sql_identical_across_trust () =
  let motivating =
    Parser.parse_predicate
      "l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01' AND \
       l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10"
  in
  let attempts =
    { Synthesize.from = [ "lineitem" ]; pred = past_dnf_limit_pred;
      target_cols = [ "l_quantity" ] }
    :: List.map
         (fun cols ->
           { Synthesize.from = [ "lineitem"; "orders" ]; pred = motivating;
             target_cols = cols })
         [ [ "l_shipdate" ]; [ "o_orderdate" ]; [ "l_shipdate"; "l_commitdate" ] ]
  in
  let run paranoid =
    Solver.reset_caches ();
    let cfg = { Config.default with Config.paranoid; jobs = 1 } in
    List.map
      (fun st ->
        match Synthesize.predicate st with
        | Some p -> Sia_sql.Printer.string_of_pred p
        | None -> "-")
      (Synthesize.synthesize_batch ~cfg Schema.tpch attempts).Synthesize.results
  in
  let plain = run false in
  let s0 = Solver.stats () in
  let paranoid = run true in
  Alcotest.(check (list string)) "synthesized SQL byte-identical" plain paranoid;
  Alcotest.(check int) "every certificate accepted" 0
    (Solver.stats_since s0).Solver.cert_rejections

(* --- Tag-scoped conflict pins --- *)

let test_dead_pins_tag_scoped () =
  Mpool.reset ();
  let key = "test-cegqi-pins" in
  let pin = [| ("a", qi 1); ("b", qi 2) |] in
  let other = [| ("a", qi 1); ("b", qi 3) |] in
  Mpool.mark_dead ~key Mpool.True_side ~tag:42 pin;
  Alcotest.(check bool) "dead for the marking query" true
    (Mpool.is_dead ~key Mpool.True_side ~tag:42 pin);
  Alcotest.(check bool) "alive for a different query" false
    (Mpool.is_dead ~key Mpool.True_side ~tag:43 pin);
  Alcotest.(check bool) "other pins unaffected" false
    (Mpool.is_dead ~key Mpool.True_side ~tag:42 other);
  Alcotest.(check bool) "sides are independent" false
    (Mpool.is_dead ~key Mpool.False_side ~tag:42 pin);
  Mpool.reset ();
  Alcotest.(check bool) "reset clears conflict memory" false
    (Mpool.is_dead ~key Mpool.True_side ~tag:42 pin)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Sia_check.Check.enable ();
  Alcotest.run "cegqi"
    [
      ( "differential",
        qsuite
          [
            prop_cegqi_agrees_fm_rat;
            prop_cegqi_agrees_cooper_int;
            prop_witness_checks;
          ] );
      ( "known-answer",
        [
          Alcotest.test_case "witness exists" `Quick test_cegqi_witness_exists;
          Alcotest.test_case "unsat ∃∀" `Quick test_cegqi_unsat;
          Alcotest.test_case "past the DNF limit" `Quick
            test_cegqi_past_dnf_limit;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "sql byte-identical" `Quick
            test_sql_identical_across_trust;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "pool replay strict eval" `Quick
            (test_pool_replay_strict_eval ~paranoid:false);
          Alcotest.test_case "pool replay strict eval (paranoid)" `Quick
            (test_pool_replay_strict_eval ~paranoid:true);
          Alcotest.test_case "dead pins tag-scoped" `Quick
            test_dead_pins_tag_scoped;
        ] );
    ]
