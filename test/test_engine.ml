(* Tests for the execution engine: tables, TPC-H generator invariants,
   predicate compilation, hash join, plan execution. *)

module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Date = Sia_sql.Date
module Table = Sia_engine.Table
module Tpch = Sia_engine.Tpch
module Eval = Sia_engine.Eval
module Exec = Sia_engine.Exec
module Schema = Sia_relalg.Schema
module Planner = Sia_relalg.Planner

let small () =
  let tables = Tpch.generate_all ~sf:0.001 ~seed:5 () in
  (List.assoc "lineitem" tables, List.assoc "orders" tables)

(* --- Table --- *)

let test_table_of_columns () =
  let t = Table.of_columns ~name:"t" [ ("a", [| 1; 2; 3 |]); ("b", [| 10; 20; 30 |]) ] in
  Alcotest.(check int) "rows" 3 t.Table.nrows;
  Alcotest.(check (array int)) "column a" [| 1; 2; 3 |] (Table.column t "a");
  Alcotest.(check (array int)) "column b" [| 10; 20; 30 |] (Table.column t "b");
  Alcotest.check_raises "unknown column" Not_found (fun () ->
      ignore (Table.column t "c"));
  let bad what f = Alcotest.check_raises what (Invalid_argument what) (fun () -> ignore (f ())) in
  bad "Table.of_columns: ragged" (fun () ->
      Table.of_columns ~name:"t" [ ("a", [| 1; 2 |]); ("b", [| 1 |]) ]);
  bad "Table.of_columns: null mask length mismatch" (fun () ->
      Table.of_columns ~name:"t" ~nulls:[ ("a", [| false |]) ] [ ("a", [| 1; 2 |]) ]);
  bad "Table: null mask for unknown column b" (fun () ->
      Table.of_columns ~name:"t" ~nulls:[ ("b", [| false; true |]) ] [ ("a", [| 1; 2 |]) ]);
  bad "Table: dictionary for unknown column b" (fun () ->
      Table.of_columns ~name:"t"
        ~dicts:[ ("b", Sia_sql.Strdict.make [ "x" ]) ]
        [ ("a", [| 1; 2 |]) ])

let test_table_select_rows () =
  let t = Table.of_columns ~name:"t" [ ("a", [| 1; 2; 3; 4 |]) ] in
  let t' = Table.gather t [| 0; 2 |] in
  Alcotest.(check (array int)) "rows 0,2 keep 1,3" [| 1; 3 |] (Table.column t' "a");
  Alcotest.(check int) "row count" 2 t'.Table.nrows

(* --- TPC-H generator --- *)

let test_tpch_invariants () =
  let li, ord = small () in
  Alcotest.(check bool) "lineitem nonempty" true (li.Table.nrows > 0);
  Alcotest.(check bool) "1-7 lineitems per order" true
    (li.Table.nrows >= ord.Table.nrows && li.Table.nrows <= 7 * ord.Table.nrows);
  let odate_of =
    let keys = Table.column ord "o_orderkey" in
    let dates = Table.column ord "o_orderdate" in
    let tbl = Hashtbl.create 64 in
    Array.iteri (fun i k -> Hashtbl.replace tbl k dates.(i)) keys;
    fun k -> Hashtbl.find tbl k
  in
  let lkeys = Table.column li "l_orderkey" in
  let ship = Table.column li "l_shipdate" in
  let commit = Table.column li "l_commitdate" in
  let receipt = Table.column li "l_receiptdate" in
  for i = 0 to li.Table.nrows - 1 do
    let o = odate_of lkeys.(i) in
    assert (ship.(i) >= o + 1 && ship.(i) <= o + 121);
    assert (commit.(i) >= o + 30 && commit.(i) <= o + 90);
    assert (receipt.(i) >= ship.(i) + 1 && receipt.(i) <= ship.(i) + 30)
  done;
  let lo = Date.to_days (Date.of_ymd 1992 1 1) in
  let hi = Date.to_days (Date.of_ymd 1998 8 2) in
  Array.iter (fun d -> assert (d >= lo && d <= hi)) (Table.column ord "o_orderdate")

let test_tpch_generate_all () =
  let tables = Tpch.generate_all ~sf:0.002 ~seed:5 () in
  Alcotest.(check (list string))
    "8 tables in catalog order"
    [
      "lineitem"; "orders"; "customer"; "part"; "partsupp"; "supplier";
      "nation"; "region";
    ]
    (List.map fst tables);
  let table n = List.assoc n tables in
  Alcotest.(check int) "nation fixed" 25 (table "nation").Table.nrows;
  Alcotest.(check int) "region fixed" 5 (table "region").Table.nrows;
  List.iter
    (fun (n, t) ->
      Alcotest.(check bool) (n ^ " nonempty") true (t.Table.nrows > 0))
    tables;
  (* every string column of the catalog is interned with a dictionary,
     and the decoded codes stay inside the dictionary's domain *)
  List.iter
    (fun (tname, t) ->
      List.iter
        (fun { Schema.cname; ctype; _ } ->
          match ctype with
          | Schema.Tstring _ ->
            (match Table.dict t cname with
             | None -> Alcotest.fail (tname ^ "." ^ cname ^ " has no dict")
             | Some d ->
               let n = Sia_sql.Strdict.size d in
               Array.iter
                 (fun code -> assert (code >= 0 && code < n))
                 (Table.column t cname))
          | _ ->
            (* no structural equality on [Strdict.t option] (lint R1) *)
            (match Table.dict t cname with
             | None -> ()
             | Some _ ->
               Alcotest.fail (tname ^ "." ^ cname ^ " numeric column has a dict")))
        (Schema.table Schema.tpch tname).Schema.columns)
    tables;
  (* the nullable account balances carry a sparse null mask (~3%) *)
  List.iter
    (fun (tname, cname) ->
      match Table.null_mask (table tname) cname with
      | None -> Alcotest.fail (cname ^ " should be nullable")
      | Some mask ->
        let nulls = Array.fold_left (fun a b -> if b then a + 1 else a) 0 mask in
        let frac = float_of_int nulls /. float_of_int (Array.length mask) in
        (* ~3% of rows; only demand a hit when the table is big enough
           for that to be near-certain (supplier has ~20 rows here) *)
        Alcotest.(check bool)
          (cname ^ " null fraction plausible")
          true
          (frac < 0.10 && (Array.length mask < 200 || nulls > 0)))
    [ ("customer", "c_acctbal"); ("supplier", "s_acctbal") ]

(* --- Eval --- *)

let test_eval_filter () =
  let li, _ = small () in
  let p = Parser.parse_predicate "l_shipdate < DATE '1995-01-01'" in
  let filtered = Eval.filter li p in
  let cutoff = Date.to_days (Date.of_string "1995-01-01") in
  Alcotest.(check bool) "all below cutoff" true
    (Array.for_all (fun d -> d < cutoff) (Table.column filtered "l_shipdate"));
  let sel = Eval.selectivity li p in
  Alcotest.(check (float 1e-9)) "selectivity consistent"
    (float_of_int filtered.Table.nrows /. float_of_int li.Table.nrows)
    sel

let test_eval_arith () =
  let li, _ = small () in
  let p = Parser.parse_predicate "l_receiptdate - l_shipdate <= 30" in
  Alcotest.(check (float 0.0)) "generator guarantees receipt within 30 days" 1.0
    (Eval.selectivity li p);
  let p2 = Parser.parse_predicate "l_receiptdate - l_shipdate > 30" in
  Alcotest.(check (float 0.0)) "complement" 0.0 (Eval.selectivity li p2)

let test_eval_logic () =
  let t = Table.of_columns ~name:"t" [ ("a", [| 1; 5; 9 |]) ] in
  let p = Parser.parse_predicate "a < 3 OR NOT a < 7" in
  let filtered = Eval.filter t p in
  Alcotest.(check (array int)) "1 and 9 pass" [| 1; 9 |] (Table.column filtered "a")

(* --- Join and plan execution --- *)

let test_hash_join_fk () =
  let li, ord = small () in
  let joined =
    Exec.hash_join ~left:li ~right:ord ~left_key:"l_orderkey" ~right_key:"o_orderkey"
  in
  (* Every lineitem matches exactly its one order. *)
  Alcotest.(check int) "FK join preserves lineitem count" li.Table.nrows joined.Table.nrows;
  let lk = Table.column joined "l_orderkey" in
  let ok = Table.column joined "o_orderkey" in
  Array.iteri (fun i k -> assert (ok.(i) = k)) lk

let test_plan_execution_equivalence () =
  (* Join-then-filter equals filter-then-join (pushdown preserves
     semantics in the engine, not only in the solver). *)
  let li, ord = small () in
  let tables = [ ("lineitem", li); ("orders", ord) ] in
  let q =
    Parser.parse_query
      "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
       l_shipdate - o_orderdate < 40 AND o_orderdate < DATE '1996-01-01'"
  in
  let naive = Planner.naive_plan Schema.tpch q in
  let pushed = Planner.plan Schema.tpch q in
  let out1 = Exec.run ~tables naive in
  let out2 = Exec.run ~tables pushed in
  Alcotest.(check bool) "nonempty" true (out1.Table.nrows > 0);
  Alcotest.(check bool) "same result multiset" true (Table.equal_multiset out1 out2);
  Alcotest.(check bool) "pushed plan differs from naive" true (not (Sia_relalg.Plan.equal naive pushed))

(* --- Three-valued NULL semantics (examples/null_semantics.ml, asserted) --- *)

(* The example's walkthrough as hard assertions: over nullable columns,
   Verify must use SQL's trivalent semantics. A value-level tautology like
   (b > -100 OR b <= -100) evaluates to NULL when b is NULL, so it would
   drop the tuple (a=1, b=NULL) that p = (a > 0 OR b > 0) accepts. *)

let nullable_cat : Schema.catalog =
  [
    {
      Schema.tname = "t";
      row_estimate = 1000;
      columns =
        [
          { Schema.cname = "a"; ctype = Schema.Tint; nullable = true };
          { Schema.cname = "b"; ctype = Schema.Tint; nullable = true };
        ];
    };
  ]

let implies_verdict p_str p1_str =
  let p = Parser.parse_predicate p_str in
  let p1 = Parser.parse_predicate p1_str in
  let env = Sia_core.Encode.build_env nullable_cat [ "t" ] (Ast.And (p, p1)) in
  Sia_core.Verify.implies env ~p ~p1

let test_null_tautology_trap () =
  (* Valid over non-null data, invalid under SQL semantics. *)
  Alcotest.(check bool) "value-level tautology rejected" true
    (implies_verdict "a > 0 OR b > 0" "b > -100 OR b <= -100"
     = Sia_core.Verify.Invalid)

let test_null_self_implication () =
  Alcotest.(check bool) "p implies itself under NULLs" true
    (implies_verdict "a > 0 OR b > 0" "a > 0 OR b > 0" = Sia_core.Verify.Valid)

let test_null_conjunction_forces_nonnull () =
  (* p TRUE requires b > 0 TRUE, which requires b non-NULL: the one-sided
     weakening survives the trivalent encoding. *)
  Alcotest.(check bool) "AND branch forces b non-null" true
    (implies_verdict "a > 0 AND b > 0" "b > 0" = Sia_core.Verify.Valid)

let test_null_disjunction_leaks_null () =
  (* The same weakening under OR does not: (a=1, b=NULL) makes p TRUE but
     b > 0 NULL. *)
  Alcotest.(check bool) "OR branch can leave b NULL" true
    (implies_verdict "a > 0 OR b > 0" "b > 0" = Sia_core.Verify.Invalid)

let prop_filter_join_commute =
  QCheck.Test.make ~name:"filter commutes with join on one-sided predicates" ~count:20
    (QCheck.int_range 10 100)
    (fun days ->
      let li, ord = small () in
      let tables = [ ("lineitem", li); ("orders", ord) ] in
      let q =
        Parser.parse_query
          (Printf.sprintf
             "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
              l_receiptdate - l_commitdate < %d" days)
      in
      let naive = Planner.naive_plan Schema.tpch q in
      let pushed = Planner.plan Schema.tpch q in
      Table.equal_multiset (Exec.run ~tables naive) (Exec.run ~tables pushed))

(* --- Join row order and NULL keys (fixed fixtures) --- *)

let test_join_row_order () =
  let l = Table.of_columns ~name:"l" [ ("lk", [| 1; 2; 1; 3 |]); ("lv", [| 10; 11; 12; 13 |]) ] in
  let r = Table.of_columns ~name:"r" [ ("rk", [| 1; 1; 2 |]); ("rv", [| 20; 21; 22 |]) ] in
  (* r is smaller, so it is the build side: rows come in probe (l)
     order, and each probe row's matches newest-first *)
  let j = Exec.hash_join ~left:l ~right:r ~left_key:"lk" ~right_key:"rk" in
  Alcotest.(check string) "name" "l_r" j.Table.name;
  Alcotest.(check (array string)) "columns" [| "lk"; "lv"; "rk"; "rv" |] j.Table.col_names;
  Alcotest.(check (array int)) "lv" [| 10; 10; 11; 12; 12 |] (Table.column j "lv");
  Alcotest.(check (array int)) "rv" [| 21; 20; 22; 21; 20 |] (Table.column j "rv");
  (* swapped: the smaller left side builds, columns stay left-first *)
  let j = Exec.hash_join ~left:r ~right:l ~left_key:"rk" ~right_key:"lk" in
  Alcotest.(check string) "name" "r_l" j.Table.name;
  Alcotest.(check (array string)) "columns" [| "rk"; "rv"; "lk"; "lv" |] j.Table.col_names;
  Alcotest.(check (array int)) "rv" [| 21; 20; 22; 21; 20 |] (Table.column j "rv");
  Alcotest.(check (array int)) "lv" [| 10; 10; 11; 12; 12 |] (Table.column j "lv");
  (* a pushed filter and a residual narrow the cursor without reordering *)
  let plan =
    Sia_relalg.Plan.Join
      ( {
          Sia_relalg.Plan.left_key = { Ast.table = None; name = "lk" };
          right_key = { Ast.table = None; name = "rk" };
          residual = Some Ast.(col "lv" +! col "rv" >! int_ 31);
        },
        Sia_relalg.Plan.Filter (Ast.(col "lv" <>! int_ 11), Sia_relalg.Plan.Scan "l"),
        Sia_relalg.Plan.Scan "r" )
  in
  let out = Exec.run ~tables:[ ("l", l); ("r", r) ] plan in
  Alcotest.(check string) "run name" "l_r" out.Table.name;
  Alcotest.(check (array int)) "run lv" [| 12; 12 |] (Table.column out "lv");
  Alcotest.(check (array int)) "run rv" [| 20; 21 |] (Table.column out "rv")

let test_join_null_keys () =
  (* A NULL key's stored padding equals a real key on the other side;
     SQL's NULL = x is UNKNOWN, so those rows must not match. *)
  let l =
    Table.of_columns ~name:"l"
      ~nulls:[ ("lk", [| false; true; false |]) ]
      [ ("lk", [| 1; 1; 0 |]); ("lv", [| 10; 11; 12 |]) ]
  in
  let r =
    Table.of_columns ~name:"r"
      ~nulls:[ ("rk", [| false; true; false |]) ]
      [ ("rk", [| 1; 0; 2 |]); ("rv", [| 20; 21; 22 |]) ]
  in
  (* equal sizes build the left input, so each side's NULL is met both
     while building and while probing *)
  List.iter
    (fun (left, right, lkey, rkey) ->
      let j = Exec.hash_join ~left ~right ~left_key:lkey ~right_key:rkey in
      Alcotest.(check (array int)) "only the non-NULL pair (lv)" [| 10 |] (Table.column j "lv");
      Alcotest.(check (array int)) "only the non-NULL pair (rv)" [| 20 |] (Table.column j "rv"))
    [ (l, r, "lk", "rk"); (r, l, "rk", "lk") ]

let test_filter_conjunct_order () =
  (* a later conjunct never sees a row an earlier one rejected *)
  let t = Table.of_columns ~name:"t" [ ("a", [| 0; 1; 4 |]) ] in
  let p = Parser.parse_predicate "a > 0 AND 2 / a > 0" in
  Alcotest.(check (array int)) "a = 0 never divides" [| 1 |] (Table.column (Eval.filter t p) "a")

(* --- Differential: Exec.run against a nested-loop reference --- *)

(* Three small tables over a catalog of nullable columns; joins go
   r.r_k = s.s_k and s.s_j = u.u_j. Values come from tiny ranges, so
   keys repeat and collide with the padding stored under NULLs. *)
type kind = Num | Str

let modes = Sia_sql.Strdict.make [ "AIR"; "MAIL"; "RAIL"; "SHIP"; "TRUCK" ]

let diff_tables =
  [
    ("r", [ ("r_k", Num); ("r_a", Num); ("r_m", Str) ]);
    ("s", [ ("s_k", Num); ("s_j", Num); ("s_b", Num) ]);
    ("u", [ ("u_j", Num); ("u_c", Num); ("u_m", Str) ]);
  ]

let diff_cat : Schema.catalog =
  List.map
    (fun (tname, cols) ->
      {
        Schema.tname;
        row_estimate = 10;
        columns =
          List.map
            (fun (cname, k) ->
              {
                Schema.cname;
                ctype = (match k with Num -> Schema.Tint | Str -> Schema.Tstring modes);
                nullable = true;
              })
            cols;
      })
    diff_tables

let gen_table (tname, cols) =
  QCheck.Gen.(
    let* n = frequency [ (1, return 0); (6, int_range 1 6) ] in
    let* columns =
      flatten_l
        (List.map
           (fun (c, k) ->
             (* no NULLs, about a third, or about two thirds *)
             let* density = int_range 0 2 in
             let* vals = array_size (return n) (int_range 0 (match k with Num -> 3 | Str -> 4)) in
             let* nulls = array_size (return n) (map (fun x -> x < density) (int_range 0 2)) in
             return (c, k, vals, if density = 0 then None else Some nulls))
           cols)
    in
    return
      (Table.of_columns ~name:tname
         ~nulls:(List.filter_map (fun (c, _, _, m) -> Option.map (fun m -> (c, m)) m) columns)
         ~dicts:
           (List.filter_map
              (fun (c, k, _, _) -> match k with Str -> Some (c, modes) | Num -> None)
              columns)
         (List.map (fun (c, _, v, _) -> (c, v)) columns)))

let gen_residual cols =
  let nums = List.filter_map (fun (c, k) -> match k with Num -> Some c | Str -> None) cols in
  let strs = List.filter_map (fun (c, k) -> match k with Str -> Some c | Num -> None) cols in
  QCheck.Gen.(
    let num = map Ast.col (oneofl nums) in
    let const = map Ast.int_ (int_range (-1) 4) in
    let op = oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne ] in
    let lit = oneofl [ "AIR"; "MAIL"; "RAIL"; "SHIP"; "TRUCK"; "BUS"; "M" ] in
    let atom =
      frequency
        [
          (3, map3 (fun o a b -> Ast.Cmp (o, a, b)) op num const);
          (2, map3 (fun o a b -> Ast.Cmp (o, a, b)) op num num);
          (2, map3 (fun o a b -> Ast.Cmp (o, Ast.(a +! b), Ast.int_ 3)) op num num);
          ( 1,
            map2
              (fun a cs -> Ast.In (a, List.map (fun c -> Ast.Cint c) cs))
              num
              (list_size (int_range 1 3) (int_range 0 3)) );
          (1, map3 (fun a lo hi -> Ast.Between (a, lo, hi)) num const const);
          ( 2,
            map3 (fun o c s -> Ast.Cmp (o, Ast.col c, Ast.str s)) op (oneofl strs) lit );
          ( 1,
            map2
              (fun c p -> Ast.Like (Ast.col c, p))
              (oneofl strs)
              (oneofl [ "A%"; "MA%"; "R%"; "T%"; "X%"; "SHIP" ]) );
          (2, map (fun c -> Ast.IsNull (Ast.col c)) (oneofl (nums @ strs)));
          ( 1,
            map3
              (fun (o, guard) v e -> Ast.Cmp (o, Ast.Case ([ (guard, v) ], e), Ast.int_ 2))
              (pair op (map2 (fun a b -> Ast.Cmp (Ast.Lt, a, b)) num num))
              num const );
        ]
    in
    let rec tree depth =
      if depth = 0 then atom
      else
        frequency
          [
            (3, atom);
            (2, map2 (fun a b -> Ast.And (a, b)) (tree (depth - 1)) (tree (depth - 1)));
            (2, map2 (fun a b -> Ast.Or (a, b)) (tree (depth - 1)) (tree (depth - 1)));
            (1, map (fun a -> Ast.Not a) (tree (depth - 1)));
          ]
    in
    int_range 0 2 >>= tree)

type diff_case = { db : (string * Table.t) list; query : Ast.query }

let gen_case =
  QCheck.Gen.(
    let* three = bool in
    let from = if three then [ "r"; "s"; "u" ] else [ "r"; "s" ] in
    let specs = List.filter (fun (t, _) -> List.mem t from) diff_tables in
    let* db = flatten_l (List.map (fun spec -> map (fun t -> (fst spec, t)) (gen_table spec)) specs) in
    let* residual = gen_residual (List.concat_map snd specs) in
    let eq a b = Ast.Cmp (Ast.Eq, Ast.col a, Ast.col b) in
    let joins = if three then [ eq "r_k" "s_k"; eq "u_j" "s_j" ] else [ eq "s_k" "r_k" ] in
    return { db; query = { Ast.select = [ Ast.Star ]; from; where = Some (Ast.conj (joins @ [ residual ])) } })

let print_case c =
  let cell t i r =
    match t.Table.null_masks.(i) with
    | Some m when m.(r) -> "NULL"
    | _ -> string_of_int t.Table.cols.(i).(r)
  in
  let table (name, t) =
    Printf.sprintf "%s(%s):\n%s" name
      (String.concat ", " (Array.to_list t.Table.col_names))
      (String.concat "\n"
         (List.init t.Table.nrows (fun r ->
              "  " ^ String.concat ", " (List.init (Array.length t.Table.cols) (fun i -> cell t i r)))))
  in
  String.concat "\n" (Sia_sql.Printer.string_of_query c.query :: List.map table c.db)

(* The FROM tables' cross product, first table varying slowest. *)
let cross_product tables =
  let total = List.fold_left (fun acc t -> acc * t.Table.nrows) 1 tables in
  let _, parts =
    List.fold_right
      (fun t (stride, acc) ->
        let n = t.Table.nrows in
        (stride * n, Table.gather t (Array.init total (fun k -> k / stride mod n)) :: acc))
      tables (1, [])
  in
  let cat f = Array.concat (List.map f parts) in
  {
    Table.name = "cross";
    col_names = cat (fun t -> t.Table.col_names);
    cols = cat (fun t -> t.Table.cols);
    nrows = total;
    null_masks = cat (fun t -> t.Table.null_masks);
    dicts = cat (fun t -> t.Table.dicts);
  }

(* The naive plan with its top filter moved into the join's residual. *)
let rec residual_plan = function
  | Sia_relalg.Plan.Project (items, sub) -> Sia_relalg.Plan.Project (items, residual_plan sub)
  | Sia_relalg.Plan.Filter (p, Sia_relalg.Plan.Join (info, l, r)) ->
    Sia_relalg.Plan.Join ({ info with Sia_relalg.Plan.residual = Some p }, l, r)
  | plan -> plan

let prop_engine_differential =
  QCheck.Test.make ~name:"Exec.run = nested loop over the cross product" ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let x = cross_product (List.map (fun t -> List.assoc t c.db) c.query.Ast.from) in
      let where = Option.get c.query.Ast.where in
      let ev = Eval.compile_pred3 x where in
      let keep = List.filter (fun r -> ev r = Eval.Tv_true) (List.init x.Table.nrows Fun.id) in
      let expected = Table.gather x (Array.of_list keep) in
      let naive = Planner.naive_plan diff_cat c.query in
      List.for_all
        (fun plan -> Table.equal_multiset expected (Exec.run ~tables:c.db plan))
        [ naive; Planner.plan diff_cat c.query; residual_plan naive ])

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "table",
        [
          Alcotest.test_case "of_columns" `Quick test_table_of_columns;
          Alcotest.test_case "select rows" `Quick test_table_select_rows;
        ] );
      ( "tpch",
        [
          Alcotest.test_case "invariants" `Quick test_tpch_invariants;
          Alcotest.test_case "generate_all" `Quick test_tpch_generate_all;
        ] );
      ( "eval",
        [
          Alcotest.test_case "filter" `Quick test_eval_filter;
          Alcotest.test_case "date arithmetic" `Quick test_eval_arith;
          Alcotest.test_case "boolean logic" `Quick test_eval_logic;
        ] );
      ( "exec",
        [
          Alcotest.test_case "hash join FK" `Quick test_hash_join_fk;
          Alcotest.test_case "plan equivalence" `Quick test_plan_execution_equivalence;
          Alcotest.test_case "join row order" `Quick test_join_row_order;
          Alcotest.test_case "NULL join keys never match" `Quick test_join_null_keys;
          Alcotest.test_case "conjunct-at-a-time filter" `Quick test_filter_conjunct_order;
        ] );
      ("exec-props", qsuite [ prop_filter_join_commute; prop_engine_differential ]);
      ( "null-semantics",
        [
          Alcotest.test_case "tautology trap" `Quick test_null_tautology_trap;
          Alcotest.test_case "self implication" `Quick test_null_self_implication;
          Alcotest.test_case "AND forces non-null" `Quick
            test_null_conjunction_forces_nonnull;
          Alcotest.test_case "OR leaks NULL" `Quick test_null_disjunction_leaks_null;
        ] );
    ]
