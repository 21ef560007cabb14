(* Differential suite for the DESIGN.md §21 grammar (§21.4).

   Two independent implementations of SQL's three-valued predicate
   semantics must agree on real TPC-H rows:

   - [Sia_engine.Eval.compile_pred3] decodes string columns through the
     table dictionary and compares actual strings;
   - [Sia_core.Encode.encode3] translates the same predicate to a pair
     of SMT formulas (T p, F p) over integer variables, with strings as
     interned rank codes (§21.2) and nullability as 0/1 indicator
     variables (§21.3), evaluated here as closed formulas under the
     row's full point assignment.

   The suite also pins golden rendered SQL for the TPC-H-class workload
   stream ([Qgen.suite]), so an accidental reseeding or grammar change
   in the generator fails loudly instead of silently shifting every
   benchmark number. *)

module Ast = Sia_sql.Ast
module Date = Sia_sql.Date
module Strdict = Sia_sql.Strdict
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
module Table = Sia_engine.Table
module Tpch = Sia_engine.Tpch
module Eval = Sia_engine.Eval
module Encode = Sia_core.Encode
module Formula = Sia_smt.Formula
module Rat = Sia_numeric.Rat
module Qgen = Sia_workload.Qgen

(* ------------------------------------------------------------------ *)
(* Data and column pools                                               *)
(* ------------------------------------------------------------------ *)

(* Big enough that customer carries actual NULLs in c_acctbal (~3% of
   600 rows); small enough to keep the suite fast. *)
let tables = lazy (Tpch.generate_all ~sf:0.004 ~seed:11 ())

let table name = List.assoc name (Lazy.force tables)

let date_lo = Date.to_days (Date.of_ymd 1992 1 1)
let date_hi = Date.to_days (Date.of_ymd 1998 12 31)

(* Constant ranges straddle the generated data so comparisons land on
   both sides; exactness is irrelevant to the differential. *)
type ckind = Kint of int * int | Kdate | Kstr

let lineitem_pool =
  [
    ("l_quantity", Kint (0, 55));
    ("l_extendedprice", Kint (0, 2_000_000));
    ("l_discount", Kint (0, 12));
    ("l_tax", Kint (0, 10));
    ("l_shipdate", Kdate);
    ("l_commitdate", Kdate);
    ("l_receiptdate", Kdate);
    ("l_returnflag", Kstr);
    ("l_linestatus", Kstr);
    ("l_shipmode", Kstr);
    ("l_shipinstruct", Kstr);
  ]

let customer_pool =
  [
    ("c_custkey", Kint (1, 400));
    ("c_nationkey", Kint (0, 24));
    ("c_acctbal", Kint (-99_999, 1_000_000));
    ("c_mktsegment", Kstr);
  ]

let pools = [ ("lineitem", lineitem_pool); ("customer", customer_pool) ]

let num_cols pool =
  List.filter (fun (_, k) -> match k with Kstr -> false | _ -> true) pool

let str_cols pool =
  List.filter (fun (_, k) -> match k with Kstr -> true | _ -> false) pool

let dict_of t c =
  match Table.dict t c with
  | Some d -> d
  | None -> Alcotest.fail (c ^ ": expected a string dictionary")

(* ------------------------------------------------------------------ *)
(* Predicate generator (the §21.1 grammar)                             *)
(* ------------------------------------------------------------------ *)

(* Stays inside what BOTH implementations support: no float constants
   (the engine stores ints), only prefix LIKE, only flat
   column-vs-literal string comparisons (§21.1), and no column*column
   products (the encoder folds those into composite variables the
   point assignment below could not bind). *)

let gen_pred tname =
  let t = table tname in
  let pool = List.assoc tname pools in
  QCheck.Gen.(
    let gen_cmp = oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne ] in
    let gen_num_const k =
      match k with
      | Kint (lo, hi) -> map Ast.int_ (int_range lo hi)
      | Kdate ->
        map (fun d -> Ast.Const (Ast.Cdate (Date.of_days d))) (int_range date_lo date_hi)
      | Kstr -> assert false
    in
    (* a dictionary member most of the time, a mutated non-member
       sometimes: both rank-translation paths (§21.2) get exercised *)
    let gen_str_lit d =
      let vs = Array.of_list (Strdict.values d) in
      let* i = int_range 0 (Array.length vs - 1) in
      let* mutate = frequency [ (3, return false); (1, return true) ] in
      return (if mutate then vs.(i) ^ "~" else vs.(i))
    in
    let gen_num_atom =
      let* c, k = oneofl (num_cols pool) in
      let* op = gen_cmp in
      let* rhs = gen_num_const k in
      return (Ast.Cmp (op, Ast.col c, rhs))
    in
    let gen_arith_atom =
      (* linear only: col - col and col * const *)
      let* c1, k1 = oneofl (num_cols pool) in
      let* c2, _ = oneofl (num_cols pool) in
      let* op = gen_cmp in
      let* shape = int_range 0 1 in
      match shape with
      | 0 ->
        let* n = int_range (-200) 200 in
        return (Ast.Cmp (op, Ast.(col c1 -! col c2), Ast.int_ n))
      | _ ->
        let* m = int_range 1 4 in
        let* rhs = gen_num_const k1 in
        return (Ast.Cmp (op, Ast.(col c1 *! int_ m), rhs))
    in
    let gen_between =
      let* c, k = oneofl (num_cols pool) in
      let* lo = gen_num_const k in
      let* hi = gen_num_const k in
      let* neg = bool in
      let b = Ast.Between (Ast.col c, lo, hi) in
      return (if neg then Ast.Not b else b)
    in
    let gen_in =
      let* use_str = bool in
      if use_str && str_cols pool <> [] then
        let* c, _ = oneofl (str_cols pool) in
        let d = dict_of t c in
        let* n = int_range 1 3 in
        let* lits = list_size (return n) (gen_str_lit d) in
        return (Ast.In (Ast.col c, List.map (fun s -> Ast.Cstring s) lits))
      else
        let* c, k = oneofl (num_cols pool) in
        let* n = int_range 1 4 in
        let* consts =
          list_size (return n)
            (map
               (fun e -> match e with Ast.Const cst -> cst | _ -> assert false)
               (gen_num_const k))
        in
        return (Ast.In (Ast.col c, consts))
    in
    let gen_str_atom =
      match str_cols pool with
      | [] -> gen_num_atom
      | scols ->
        let* c, _ = oneofl scols in
        let d = dict_of t c in
        let* shape = int_range 0 2 in
        (match shape with
         | 0 ->
           let* op = gen_cmp in
           let* s = gen_str_lit d in
           return (Ast.Cmp (op, Ast.col c, Ast.str s))
         | 1 ->
           (* prefix LIKE from a real value's first 1..3 chars *)
           let* v = oneofl (Strdict.values d) in
           let* k = int_range 1 (min 3 (String.length v)) in
           let* neg = bool in
           let p = Ast.Like (Ast.col c, String.sub v 0 k ^ "%") in
           return (if neg then Ast.Not p else p)
         | _ ->
           let* s = gen_str_lit d in
           return (Ast.Cmp (Ast.Eq, Ast.str s, Ast.col c)))
    in
    let gen_null_atom =
      let* c, _ = oneofl pool in
      let* neg = bool in
      let p = Ast.IsNull (Ast.col c) in
      return (if neg then Ast.Not p else p)
    in
    let gen_case_atom =
      let* arm_pred = gen_num_atom in
      let* c, k = oneofl (num_cols pool) in
      let* v1 = int_range 0 5 in
      let* els = int_range 0 5 in
      let* op = gen_cmp in
      let* use_col = bool in
      let arm2 =
        if use_col then [ (Ast.IsNull (Ast.col c), Ast.int_ 9) ] else []
      in
      let case =
        Ast.Case ((arm_pred, Ast.int_ v1) :: arm2, Ast.int_ els)
      in
      ignore k;
      return (Ast.Cmp (op, case, Ast.int_ 3))
    in
    let gen_atom =
      frequency
        [
          (4, gen_num_atom);
          (2, gen_arith_atom);
          (2, gen_between);
          (2, gen_in);
          (3, gen_str_atom);
          (2, gen_null_atom);
          (1, gen_case_atom);
        ]
    in
    let rec gen_tree depth =
      if depth = 0 then gen_atom
      else
        frequency
          [
            (3, gen_atom);
            ( 2,
              let* a = gen_tree (depth - 1) in
              let* b = gen_tree (depth - 1) in
              return (Ast.And (a, b)) );
            ( 2,
              let* a = gen_tree (depth - 1) in
              let* b = gen_tree (depth - 1) in
              return (Ast.Or (a, b)) );
            ( 1,
              let* a = gen_tree (depth - 1) in
              return (Ast.Not a) );
          ]
    in
    let* depth = int_range 0 2 in
    gen_tree depth)

let arb_pred tname =
  QCheck.make ~print:Printer.string_of_pred (gen_pred tname)

(* ------------------------------------------------------------------ *)
(* The differential                                                    *)
(* ------------------------------------------------------------------ *)

let string_of_tv = function
  | Eval.Tv_true -> "TRUE"
  | Eval.Tv_false -> "FALSE"
  | Eval.Tv_null -> "UNKNOWN"

(* Evaluate the trivalent encoding as a closed formula under the row's
   point assignment: every column variable gets the stored int (rank
   code for strings, padding when NULL — T/F must not depend on it),
   every null indicator gets the row's mask bit. *)
let check_pred tname pred =
  let t = table tname in
  let env = Encode.build_env Schema.tpch [ tname ] pred in
  let tf, ff = Encode.encode3 env pred in
  let ev = Eval.compile_pred3 t pred in
  let bindings =
    List.map
      (fun c ->
        ( Encode.var_of_column env c,
          Encode.null_var_of_column env c,
          Table.column t c,
          Table.null_mask t c ))
      (Encode.columns env)
  in
  let nrows = t.Table.nrows in
  let step = Stdlib.max 1 (nrows / 64) in
  let row = ref 0 in
  while !row < nrows do
    let r = !row in
    let assign = Hashtbl.create 16 in
    List.iter
      (fun (v, nv, arr, mask) ->
        Hashtbl.replace assign v (Rat.of_int arr.(r));
        match nv with
        | None -> ()
        | Some nvar ->
          let isnull = match mask with Some m -> m.(r) | None -> false in
          Hashtbl.replace assign nvar (if isnull then Rat.one else Rat.zero))
      bindings;
    let lookup v =
      match Hashtbl.find_opt assign v with Some q -> q | None -> Rat.zero
    in
    let is_t = Formula.eval tf lookup in
    let is_f = Formula.eval ff lookup in
    if is_t && is_f then
      QCheck.Test.fail_reportf "T and F both hold on %s row %d for %s" tname r
        (Printer.string_of_pred pred);
    let got =
      if is_t then Eval.Tv_true else if is_f then Eval.Tv_false else Eval.Tv_null
    in
    let expected = ev r in
    if got <> expected then
      QCheck.Test.fail_reportf "%s row %d: engine says %s, encoding says %s for %s"
        tname r (string_of_tv expected) (string_of_tv got)
        (Printer.string_of_pred pred);
    row := !row + step
  done;
  true

let prop_differential tname count =
  QCheck.Test.make
    ~name:(Printf.sprintf "engine eval = trivalent encoding (%s)" tname)
    ~count (arb_pred tname)
    (fun p -> check_pred tname p)

(* ------------------------------------------------------------------ *)
(* Hand-picked §21.3 corner cases                                      *)
(* ------------------------------------------------------------------ *)

let test_corner_cases () =
  let parse = Sia_sql.Parser.parse_predicate in
  List.iter
    (fun (tname, s) -> ignore (check_pred tname (parse s)))
    [
      (* NULL poison and the tautology trap: x = x is UNKNOWN on NULL *)
      ("customer", "c_acctbal = c_acctbal");
      ("customer", "c_acctbal < 0 OR c_acctbal >= 0");
      ("customer", "c_acctbal IS NULL OR c_acctbal IS NOT NULL");
      ("customer", "c_acctbal IS NULL AND c_mktsegment = 'BUILDING'");
      ("customer", "c_acctbal IN (0, 1, 2)");
      ("customer", "c_acctbal BETWEEN -10 AND 999999");
      ("customer", "NOT (c_acctbal <> 0)");
      (* CASE arms guard NULL conditions *)
      ("customer", "CASE WHEN c_acctbal < 0 THEN 1 ELSE 0 END = 1");
      (* strings: members, non-members, prefix ranges *)
      ("lineitem", "l_shipmode = 'AIR'");
      ("lineitem", "l_shipmode < 'REG AIR'");
      ("lineitem", "l_shipmode <> 'ZZZ'");
      ("lineitem", "l_shipmode LIKE 'R%'");
      ("lineitem", "l_shipmode NOT LIKE 'AIR%'");
      ("lineitem", "l_returnflag IN ('A', 'R')");
      (* IS NULL on a non-nullable column is statically FALSE *)
      ("lineitem", "l_quantity IS NULL");
      ("lineitem",
       "l_shipdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31' AND \
        l_receiptdate - l_shipdate <= 15");
    ]

(* ------------------------------------------------------------------ *)
(* Golden rendered SQL for the workload suite                          *)
(* ------------------------------------------------------------------ *)

(* Golden copies of the rendered non-join predicates of
   [Qgen.suite ~seed:42 ~variants:1 ()], in suite order. Regenerate by
   printing [Printer.string_of_pred sq.spred] per entry if the stream
   is deliberately reseeded; any other diff here is a regression. *)
let golden =
  [
    ( "q1",
      "l_shipdate <= DATE '1996-06-24' AND l_returnflag = 'R' AND \
       l_quantity <= 23" );
    ( "q3",
      "c_mktsegment = 'MACHINERY' AND o_orderdate < DATE '1994-10-06' \
       AND l_shipdate - o_orderdate > 38" );
    ( "q4",
      "o_orderdate BETWEEN DATE '1994-08-31' AND DATE '1994-12-01' \
       AND l_commitdate < l_receiptdate AND o_orderpriority IN \
       ('1-URGENT', '2-HIGH')" );
    ( "q5",
      "r_name = 'ASIA' AND o_orderdate BETWEEN DATE '1993-12-27' AND \
       DATE '1994-12-27' AND o_totalprice > 8961808" );
    ( "q6",
      "l_shipdate BETWEEN DATE '1994-12-13' AND DATE '1995-12-13' AND \
       l_discount BETWEEN 5 AND 7 AND l_quantity < 26" );
    ( "q10",
      "o_orderdate BETWEEN DATE '1992-05-11' AND DATE '1992-08-11' \
       AND l_returnflag = 'R' AND c_acctbal IS NOT NULL AND c_acctbal \
       >= 29467" );
    ( "q12",
      "l_shipmode IN ('MAIL', 'SHIP') AND l_shipdate < l_commitdate \
       AND l_commitdate < l_receiptdate AND l_receiptdate BETWEEN \
       DATE '1995-10-01' AND DATE '1996-09-30' AND CASE WHEN \
       o_orderpriority = '1-URGENT' THEN 1 WHEN o_orderpriority = \
       '2-HIGH' THEN 1 ELSE 0 END = 0" );
    ( "q14",
      "p_type LIKE 'STANDARD%' AND l_shipdate BETWEEN DATE \
       '1994-02-17' AND DATE '1994-03-20'" );
    ( "q16",
      "NOT p_brand = 'Brand#34' AND p_type NOT LIKE 'LARGE%' AND \
       p_size IN (12, 15, 18, 21) AND ps_availqty > 3227" );
    ( "q19",
      "p_brand = 'Brand#51' AND p_container IN ('SM CASE', 'SM BOX', \
       'SM PACK', 'SM PKG') AND l_quantity BETWEEN 25 AND 35 AND \
       p_size BETWEEN 1 AND 12 AND l_shipmode IN ('AIR', 'REG AIR') \
       AND l_shipinstruct = 'DELIVER IN PERSON'" );
    ( "qnull",
      "s_acctbal IS NULL OR s_acctbal < 47935" );
    ( "qcase",
      "CASE WHEN l_returnflag = 'A' THEN l_quantity ELSE 5 END <= 40 \
       AND l_shipdate >= DATE '1994-09-29'" );
  ]

let test_suite_golden () =
  let qs = Qgen.suite ~seed:42 ~variants:1 () in
  Alcotest.(check int) "12 templates at 1 variant" 12 (List.length qs);
  let got =
    List.map
      (fun sq -> (sq.Qgen.label, Printer.string_of_pred sq.Qgen.spred))
      qs
  in
  List.iter2
    (fun (el, ep) (gl, gp) ->
      Alcotest.(check string) "label" el gl;
      Alcotest.(check string) (el ^ " predicate") ep gp)
    golden got

let test_suite_features () =
  (* the suite exercises every §21.1 construct, and every catalog table
     appears as some template's rewrite target *)
  let qs = Qgen.suite ~seed:42 ~variants:1 () in
  let f =
    List.fold_left
      (fun acc sq -> Qgen.features_add acc (Qgen.features_of_pred sq.Qgen.spred))
      Qgen.features_zero qs
  in
  Alcotest.(check bool) "IN present" true (f.Qgen.f_in > 0);
  Alcotest.(check bool) "BETWEEN present" true (f.Qgen.f_between > 0);
  Alcotest.(check bool) "CASE present" true (f.Qgen.f_case > 0);
  Alcotest.(check bool) "LIKE present" true (f.Qgen.f_like > 0);
  Alcotest.(check bool) "IS NULL present" true (f.Qgen.f_isnull > 0);
  Alcotest.(check bool) "string cmp present" true (f.Qgen.f_string_eq > 0);
  (* every catalog table is scanned by some template, and the rewrite
     targets span the big fact/dimension tables *)
  let scanned =
    List.sort_uniq String.compare
      (List.concat_map (fun sq -> sq.Qgen.squery.Ast.from) qs)
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ " is scanned") true (List.mem t scanned))
    [ "lineitem"; "orders"; "customer"; "part"; "partsupp"; "supplier";
      "nation"; "region" ];
  let targets =
    List.sort_uniq String.compare (List.map (fun sq -> sq.Qgen.starget) qs)
  in
  Alcotest.(check (list string))
    "rewrite targets" [ "lineitem"; "orders"; "part"; "supplier" ] targets

(* CEGIS over the full grammar. A rewrite answers separable predicates
   without synthesis (DESIGN.md §23), which leaves only q3 of the suite
   on the CEGIS path; this test drives [Synthesize.synthesize] itself
   on every template, targeting the columns [Rewrite.rewrite_for_table]
   would, so IN, BETWEEN, CASE, LIKE, IS NULL and string comparisons
   all stay covered. Outcome labels are pinned, and every emitted
   predicate must pass an independent [Verify]. *)
let cegis_labels =
  [
    ("q1", "optimal"); ("q3", "trivial"); ("q4", "optimal"); ("q5", "valid");
    ("q6", "optimal"); ("q10", "optimal"); ("q12", "valid"); ("q14", "optimal");
    ("q16", "optimal"); ("q19", "optimal"); ("qnull", "trivial");
    ("qcase", "optimal");
  ]

let test_suite_cegis () =
  let module Synthesize = Sia_core.Synthesize in
  let module Rewrite = Sia_core.Rewrite in
  let module Verify = Sia_core.Verify in
  let qs = Qgen.suite ~seed:42 ~variants:1 () in
  List.iter2
    (fun (el, eo) sq ->
      let q = sq.Qgen.squery in
      let from = q.Ast.from in
      let pred = Rewrite.target_pred Schema.tpch q in
      let target_cols =
        Rewrite.table_target_cols Schema.tpch ~from ~pred
          ~target_table:sq.Qgen.starget
      in
      let st = Synthesize.synthesize Schema.tpch ~from ~pred ~target_cols in
      let label =
        match st.Synthesize.outcome with
        | Synthesize.Optimal _ -> "optimal"
        | Synthesize.Valid _ -> "valid"
        | Synthesize.Trivial -> "trivial"
        | Synthesize.Failed msg -> "failed: " ^ msg
      in
      Alcotest.(check string) "template" el sq.Qgen.label;
      Alcotest.(check string) (el ^ " outcome") eo label;
      match Synthesize.predicate st with
      | None -> ()
      | Some p1 ->
        let env = Encode.build_env Schema.tpch from (Ast.And (pred, p1)) in
        Alcotest.(check bool)
          (el ^ ": " ^ Printer.string_of_pred p1 ^ " is valid")
          true
          (Verify.implies env ~p:pred ~p1 = Verify.Valid))
    cegis_labels qs

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "grammar"
    [
      ( "differential",
        qsuite
          [ prop_differential "lineitem" 120; prop_differential "customer" 120 ]
      );
      ("corner cases", [ Alcotest.test_case "3VL corners" `Quick test_corner_cases ]);
      ( "suite golden",
        [
          Alcotest.test_case "rendered SQL" `Quick test_suite_golden;
          Alcotest.test_case "feature coverage" `Quick test_suite_features;
          Alcotest.test_case "CEGIS outcome per template" `Quick
            test_suite_cegis;
        ] );
    ]
