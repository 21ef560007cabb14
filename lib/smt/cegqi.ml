module Trace = Sia_trace.Trace

(* Counterexample-guided quantifier instantiation (Reynolds et al.) for
   the one quantified shape Sia needs: find x with

       G(x)  /\  forall y. not P(x, y)

   (a FALSE sample: a tuple no completion of which satisfies the
   predicate). Instead of eliminating y eagerly (Fourier-Motzkin /
   Cooper, which blows up on wide matrices), maintain a finite set Y of
   instantiations and iterate two quantifier-free queries:

     E_k :=  G  /\  /\_{s in Y} not P[y := s]     (existential side)

   - E_k unsat: the target is unsat — E_k only *under*-constrains it
     (every s-conjunct is implied by the universal), so this direction is
     sound unconditionally, and the solver's own Unsat proof of the final
     E_k is the certificate (its theory cores replay under Farkas in
     paranoid mode like any other).
   - E_k sat with model x0: check the universal at x0 by solving
     P /\ x = x0 over free y.
       - Unsat: x0 is a genuine witness — return it.
       - Sat with model y0: y0 refutes x0; add it to Y and repeat. The
         new conjunct not P[y := y0] excludes x0 (and everything that
         fails the same way), so the loop never revisits a candidate.

   Termination is not guaranteed in general; [max_iters] bounds the loop
   and maps overruns to [Unknown_ea], which callers must treat exactly
   like a solver resource limit (no optimality claims).

   All queries run on one throwaway {!Solver.Session} — guard conjuncts,
   the matrix and each accumulated instantiation are encoded once and
   re-enter later iterations as assumption literals — and are audited
   under paranoid mode like any direct solve. *)

type outcome =
  | Witness of Solver.model
  | Unsat_ea of int
  | Unknown_ea

(* Instantiation constants compound: y0 is pinned down by constraints
   derived from earlier instantiations, so its numerator/denominator
   digit counts can double per iteration. [max_rounds]/[node_limit]
   bound the *number* of solver steps, not the bigint cost of each one,
   so without an explicit magnitude fence a single adversarial instance
   can stall the process for minutes inside a handful of iterations.
   Rendered length is a crude but total, deterministic proxy for digit
   count; real workload constants (dates, quantities) are a few digits. *)
let oversized q = String.length (Sia_numeric.Rat.to_string q) > 80

let pin_formula candidate =
  Formula.and_
    (List.map
       (fun (v, q) -> Formula.atom (Atom.mk_eq (Linexpr.var v) (Linexpr.const q)))
       candidate)

let instantiate matrix univ model =
  List.fold_left
    (fun f y -> Formula.subst f y (Linexpr.const (Solver.model_value model y)))
    matrix univ

let solve_exists_forall ?(max_iters = 24) ?max_rounds ?node_limit ~is_int ~univ
    ~matrix ~guard () =
  Trace.span "cegqi.solve" ~args:[ ("univ", Trace.Int (List.length univ)) ]
  @@ fun () ->
  let sess = Solver.Session.create ~is_int Formula.tru in
  let solve fs =
    Solver.Session.solve_under ?max_rounds ?node_limit ~assumptions:fs sess
  in
  (* Existential-side variables: everything the guard or the matrix
     mentions, minus the universals. The universal check pins exactly
     these, so its verdict speaks about one concrete candidate. *)
  let evars =
    List.sort_uniq compare
      (List.filter
         (fun v -> not (List.mem v univ))
         (List.concat_map Formula.vars (matrix :: guard)))
  in
  let rec loop k instantiations =
    if k >= max_iters then Unknown_ea
    else
      match solve (List.rev_append instantiations guard) with
      | Solver.Unsat -> Unsat_ea (List.length instantiations)
      | Solver.Unknown -> Unknown_ea
      | Solver.Sat x0 -> begin
        (* [x0] assigns every variable of the existential query; extend
           with the solver's zero default for matrix variables E_k does
           not mention (they are unconstrained there, so the extension is
           still a model). The returned witness keeps the non-pinned
           assignments too: callers strictly evaluate their guard against
           it, and the guard may mention universal variables (the domain
           box does). *)
        let candidate = List.map (fun v -> (v, Solver.model_value x0 v)) evars in
        if List.exists (fun (_, q) -> oversized q) candidate then Unknown_ea
        else begin
        let witness =
          candidate
          @ List.filter (fun (v, _) -> not (List.mem_assoc v candidate)) x0
        in
        match solve [ matrix; pin_formula candidate ] with
        | Solver.Unsat -> Witness witness
        | Solver.Unknown -> Unknown_ea
        | Solver.Sat y0 ->
          if List.exists (fun y -> oversized (Solver.model_value y0 y)) univ
          then Unknown_ea
          else begin
            Solver.note_cegqi_instantiation ();
            let blocked = Formula.not_ (instantiate matrix univ y0) in
            loop (k + 1) (blocked :: instantiations)
          end
        end
      end
  in
  loop 0 []
