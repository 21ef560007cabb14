open Sia_smt

type result =
  | Valid
  | Invalid
  | Unknown

(* One-shot check on a fresh solver instance. *)
let implies_ce env ~p ~p1 =
  let t_p = Encode.encode_is_true env p in
  let t_p1 = Encode.encode_is_true env p1 in
  let query =
    Formula.and_ [ Encode.domains env; t_p; Formula.not_ t_p1 ]
  in
  match Solver.solve ~is_int:(Encode.is_int_var env) query with
  | Solver.Unsat -> (Valid, None)
  | Solver.Sat m -> (Invalid, Some m)
  | Solver.Unknown -> (Unknown, None)

let implies env ~p ~p1 = fst (implies_ce env ~p ~p1)

(* Incremental variant for the CEGIS loop: [p] and the NULL domain are
   fixed across iterations, only the candidate [p1] changes. The session
   keeps their encoding and everything learnt about them; each candidate
   costs one encoding of [not (is_true p1)] passed as an assumption. *)
type session = { env : Encode.env; sess : Solver.Session.t }

let make_session env ~p =
  let base =
    Formula.and_ [ Encode.domains env; Encode.encode_is_true env p ]
  in
  { env; sess = Solver.Session.create ~is_int:(Encode.is_int_var env) base }

let implies_ce_session ?(node_limit = 800) s ~p1 =
  Sia_trace.Trace.span "verify.implies"
  @@ fun () ->
  let t_p1 = Encode.encode_is_true s.env p1 in
  match
    (* Candidate predicates are unbounded (no domain box), so one unlucky
       branch-and-bound can diverge; cap it — Unknown is handled below. *)
    Solver.Session.solve_under s.sess ~node_limit
      ~assumptions:[ Formula.not_ t_p1 ]
  with
  | Solver.Unsat -> (Valid, None)
  | Solver.Sat m -> (Invalid, Some m)
  (* Soundness direction: a resource-limited solver answer surfaces as
     [Unknown], never as [Valid] — only an Unsat verdict (certificate
     checked in paranoid mode) blesses a candidate. *)
  | Solver.Unknown -> (Unknown, None)
