open Sia_numeric
open Sia_smt
module Ast = Sia_sql.Ast
module Svm = Sia_svm.Svm
module Rationalize = Sia_svm.Rationalize
module Trace = Sia_trace.Trace

type learned = {
  pred : Ast.pred;
  formula : Formula.t;
  n_models : int;
}

let decision_exact w b sample =
  let acc = ref b in
  Array.iteri (fun i wi -> acc := Rat.add !acc (Rat.mul wi sample.(i))) w;
  !acc

let accepts w b sample = Rat.sign (decision_exact w b sample) >= 0

let hyperplane_formula env ~cols w b =
  let lin =
    List.fold_left
      (fun acc (i, name) ->
        Linexpr.add acc (Linexpr.var ~coeff:w.(i) (Encode.var_of_column env name)))
      (Linexpr.const b)
      (List.mapi (fun i n -> (i, n)) cols)
  in
  Formula.atom (Atom.mk_ge lin Linexpr.zero)

(* Direction candidates: roundings of the SVM weight vector at increasing
   resolution. The coarsest one usually recovers the clean +-1 difference
   shapes the paper's examples show. *)
let direction_candidates w =
  let cands =
    List.map (fun k -> Rationalize.weights ~max_coeff:k w) [ 1; 2 ]
  in
  let distinct = ref [] in
  List.iter
    (fun c ->
      if
        (not (Array.for_all Rat.is_zero c))
        && not (List.exists (fun c' -> Array.for_all2 Rat.equal c c') !distinct)
      then distinct := !distinct @ [ c ])
    cands;
  !distinct

(* Count FALSE samples a tightened halfspace w.x >= t rejects: the
   learner's progress measure. *)
let rejected_count w t fs =
  List.length (List.filter (fun f -> Rat.sign (Rat.sub (decision_exact w Rat.zero f) t) < 0) fs)

(* Fallback of Algorithm 2 when no direction can be tightened (w.x
   unbounded below on p): iterate SVMs over misclassified TRUE samples and
   return the disjunction, snapping the last threshold to cover the rest. *)
let alg2_fallback cfg env ~cols ~ts ~fs =
  let to_floats = List.map (Array.map Rat.to_float) in
  let fs_f = to_floats fs in
  let rec loop cur_ts acc_preds acc_formulas round =
    if cur_ts = [] then (List.rev acc_preds, List.rev acc_formulas, round)
    else begin
      let model =
        Svm.train ~epochs:cfg.Config.svm_epochs ~seed:(cfg.Config.seed + round)
          ~pos:(to_floats cur_ts) ~neg:fs_f ()
      in
      let w, b = Rationalize.hyperplane model in
      let degenerate = Array.for_all Rat.is_zero w in
      let mis = List.filter (fun t -> not (accepts w b t)) cur_ts in
      let no_progress = List.length mis = List.length cur_ts in
      let out_of_models = round >= cfg.Config.max_learn_models - 1 in
      if degenerate || ((no_progress || out_of_models) && mis <> []) then begin
        let w = if degenerate then Array.map (fun _ -> Rat.zero) w else w in
        let m =
          List.fold_left
            (fun acc t -> Rat.min acc (decision_exact w Rat.zero t))
            (decision_exact w Rat.zero (List.hd cur_ts))
            (List.tl cur_ts)
        in
        let b = Rat.neg m in
        ( List.rev (Encode.hyperplane_to_pred env ~cols w b :: acc_preds),
          List.rev (hyperplane_formula env ~cols w b :: acc_formulas),
          round + 1 )
      end
      else
        loop mis
          (Encode.hyperplane_to_pred env ~cols w b :: acc_preds)
          (hyperplane_formula env ~cols w b :: acc_formulas)
          (round + 1)
    end
  in
  loop ts [] [] 0

let learn ?cache ?p1_formula cfg env ~p_formula ~cols ~ts ~fs =
  if ts = [] then invalid_arg "Learn.learn: no TRUE samples";
  if fs = [] then { pred = Ast.Ptrue; formula = Formula.tru; n_models = 0 }
  else begin
    (* Focus the learner on the FALSE samples the running valid predicate
       still accepts: already-rejected ones only drown the residual
       direction (the motivating example's difference bound is invisible
       to an SVM trained against 200 long-dead counter-examples). *)
    let fs_active =
      match p1_formula with
      | None -> fs
      | Some p1f ->
        let vars = List.map (Encode.var_of_column env) cols in
        let active =
          List.filter
            (fun s ->
              let lookup v =
                match List.find_index (Int.equal v) vars with
                | Some i -> s.(i)
                | None -> Rat.zero
              in
              Formula.eval p1f lookup)
            fs
        in
        if active = [] then fs else active
    in
    let fs = fs_active in
    let to_floats = List.map (Array.map Rat.to_float) in
    let model =
      Trace.span "svm.train"
        ~args:
          [ ("pos", Trace.Int (List.length ts)); ("neg", Trace.Int (List.length fs)) ]
        (fun () ->
          Svm.train ~epochs:cfg.Config.svm_epochs ~seed:cfg.Config.seed
            ~pos:(to_floats ts) ~neg:(to_floats fs) ())
    in
    (* Tighten each rounded direction against p: valid by construction and
       the strongest halfspace in that direction. Pick the one rejecting
       the most FALSE samples (ties: coarser coefficients, listed first). *)
    let scored =
      if not cfg.Config.tighten then []
      else
        List.filter_map
          (fun w ->
            match Tighten.strongest_threshold ?cache env ~p_formula ~cols ~w with
            | None -> None
            | Some t -> Some (w, t, rejected_count w (Rat.of_int t) fs))
          (direction_candidates model.Svm.w)
    in
    let best =
      List.fold_left
        (fun acc (w, t, r) ->
          match acc with
          | Some (_, _, r') when r' >= r -> acc
          | Some _ | None -> Some (w, t, r))
        None scored
    in
    match best with
    | Some (w, t, _) ->
      let b = Rat.of_int (-t) in
      {
        pred = Encode.hyperplane_to_pred env ~cols w b;
        formula = hyperplane_formula env ~cols w b;
        n_models = 1;
      }
    | None ->
      let preds, formulas, n_models = alg2_fallback cfg env ~cols ~ts ~fs in
      { pred = Ast.disj preds; formula = Formula.or_ formulas; n_models }
  end
