module Date = Sia_sql.Date
module Strdict = Sia_sql.Strdict
module Schema = Sia_relalg.Schema

let orders_per_sf = 1_500_000
let date_lo = Date.to_days (Date.of_ymd 1992 1 1)
let date_hi = Date.to_days (Date.of_ymd 1998 8 2)

(* The dictionary a string column carries in the catalog; the generator
   draws codes against it so engine tables and the encoder agree on the
   interning (DESIGN.md §21.2). *)
let dict_of tname cname =
  let td = Schema.table Schema.tpch tname in
  let cd = List.find (fun c -> c.Schema.cname = cname) td.Schema.columns in
  match cd.Schema.ctype with
  | Schema.Tstring d -> d
  | _ -> invalid_arg (Printf.sprintf "Tpch.dict_of: %s.%s is not a string column" tname cname)

(* dbgen's row count for a table of [per_sf] rows at scale factor 1. *)
let scaled ~sf per_sf = int_of_float (Float.max 1.0 (float_of_int per_sf *. sf))

let draw_codes rand dict n =
  let size = Strdict.size dict in
  Array.init n (fun _ -> Random.State.int rand size)

(* Walks the orders stream in its draw order (tpch.mli), passing each
   order's row and values to [order] and each lineitem's row, order row,
   line number and values in column order to [line]. Returns the
   lineitem count. *)
let draw_orders rand n_orders ~order ~line =
  let uniform lo hi = lo + Random.State.int rand (hi - lo + 1) in
  let k = ref 0 in
  for i = 0 to n_orders - 1 do
    let custkey = uniform 1 (Stdlib.max 1 (n_orders / 10)) in
    let totalprice = uniform 100_00 500_000_00 in
    (* Leave room for ship/receipt offsets so every date stays in range. *)
    let odate = uniform date_lo (date_hi - 152) in
    order i custkey totalprice odate;
    for ln = 1 to uniform 1 7 do
      let ship = odate + uniform 1 121 in
      let commit = odate + uniform 30 90 in
      let receipt = ship + uniform 1 30 in
      let tax = uniform 0 8 in
      let discount = uniform 0 10 in
      let price = uniform 1_00 100_000_00 in
      let quantity = uniform 1 50 in
      let suppkey = uniform 1 10_000 in
      let partkey = uniform 1 200_000 in
      line !k i ln partkey suppkey quantity price discount tax ship commit receipt;
      incr k
    done
  done;
  !k

let lineitem_orders ~sf ~seed =
  let rand = Random.State.make [| seed |] in
  let n_orders = scaled ~sf orders_per_sf in
  (* A first walk over a copy of the stream counts the lineitems, so the
     second can fill exact-size columns with the same draws. *)
  let n_li =
    draw_orders (Random.State.copy rand) n_orders
      ~order:(fun _ _ _ _ -> ())
      ~line:(fun _ _ _ _ _ _ _ _ _ _ _ _ -> ())
  in
  let col n = Array.make n 0 in
  let o_custkey = col n_orders and o_totalprice = col n_orders in
  let o_orderdate = col n_orders in
  let l_orderkey = col n_li and l_partkey = col n_li and l_suppkey = col n_li in
  let l_linenumber = col n_li and l_quantity = col n_li in
  let l_extendedprice = col n_li and l_discount = col n_li and l_tax = col n_li in
  let l_shipdate = col n_li and l_commitdate = col n_li in
  let l_receiptdate = col n_li in
  ignore
    (draw_orders rand n_orders
       ~order:(fun i custkey totalprice odate ->
         o_custkey.(i) <- custkey;
         o_totalprice.(i) <- totalprice;
         o_orderdate.(i) <- odate)
       ~line:(fun k i ln partkey suppkey quantity price discount tax ship commit receipt ->
         l_orderkey.(k) <- i + 1;
         l_partkey.(k) <- partkey;
         l_suppkey.(k) <- suppkey;
         l_linenumber.(k) <- ln;
         l_quantity.(k) <- quantity;
         l_extendedprice.(k) <- price;
         l_discount.(k) <- discount;
         l_tax.(k) <- tax;
         l_shipdate.(k) <- ship;
         l_commitdate.(k) <- commit;
         l_receiptdate.(k) <- receipt)
      : int);
  (* The string codes come from their own stream (tpch.mli). *)
  let rand2 = Random.State.make [| seed; 0x51a |] in
  let d_returnflag = dict_of "lineitem" "l_returnflag" in
  let d_linestatus = dict_of "lineitem" "l_linestatus" in
  let d_shipmode = dict_of "lineitem" "l_shipmode" in
  let d_shipinstruct = dict_of "lineitem" "l_shipinstruct" in
  let d_orderstatus = dict_of "orders" "o_orderstatus" in
  let d_orderpriority = dict_of "orders" "o_orderpriority" in
  let l_returnflag = col n_li and l_linestatus = col n_li in
  let l_shipmode = col n_li and l_shipinstruct = col n_li in
  let code d = Random.State.int rand2 (Strdict.size d) in
  for k = 0 to n_li - 1 do
    l_shipinstruct.(k) <- code d_shipinstruct;
    l_shipmode.(k) <- code d_shipmode;
    l_linestatus.(k) <- code d_linestatus;
    l_returnflag.(k) <- code d_returnflag
  done;
  let o_orderstatus = draw_codes rand2 d_orderstatus n_orders in
  let o_orderpriority = draw_codes rand2 d_orderpriority n_orders in
  let lineitem =
    Table.of_columns ~name:"lineitem"
      ~dicts:
        [
          ("l_returnflag", d_returnflag);
          ("l_linestatus", d_linestatus);
          ("l_shipmode", d_shipmode);
          ("l_shipinstruct", d_shipinstruct);
        ]
      [
        ("l_orderkey", l_orderkey);
        ("l_partkey", l_partkey);
        ("l_suppkey", l_suppkey);
        ("l_linenumber", l_linenumber);
        ("l_quantity", l_quantity);
        ("l_extendedprice", l_extendedprice);
        ("l_discount", l_discount);
        ("l_tax", l_tax);
        ("l_shipdate", l_shipdate);
        ("l_commitdate", l_commitdate);
        ("l_receiptdate", l_receiptdate);
        ("l_returnflag", l_returnflag);
        ("l_linestatus", l_linestatus);
        ("l_shipmode", l_shipmode);
        ("l_shipinstruct", l_shipinstruct);
      ]
  in
  let orders =
    Table.of_columns ~name:"orders"
      ~dicts:
        [
          ("o_orderstatus", d_orderstatus);
          ("o_orderpriority", d_orderpriority);
        ]
      [
        ("o_orderkey", Array.init n_orders (fun i -> i + 1));
        ("o_custkey", o_custkey);
        ("o_totalprice", o_totalprice);
        ("o_orderdate", o_orderdate);
        ("o_shippriority", col n_orders);
        ("o_orderstatus", o_orderstatus);
        ("o_orderpriority", o_orderpriority);
      ]
  in
  (lineitem, orders)

(* A ~3% null mask plus values for the nullable account balances. *)
let acctbal rand n =
  let mask = Array.init n (fun _ -> Random.State.int rand 100 < 3) in
  let vals = Array.init n (fun _ -> Random.State.int rand 11_000_00 - 999_99) in
  (vals, mask)

let generate_all ~sf ?(seed = 7) () =
  let lineitem, orders = lineitem_orders ~sf ~seed in
  let rand = Random.State.make [| seed; 0x8ab1e5 |] in
  let uniform lo hi = lo + Random.State.int rand (hi - lo + 1) in
  let n_cust = scaled ~sf 150_000 in
  let n_part = scaled ~sf 200_000 in
  let n_psupp = scaled ~sf 800_000 in
  let n_supp = scaled ~sf 10_000 in
  let d_mktsegment = dict_of "customer" "c_mktsegment" in
  let d_brand = dict_of "part" "p_brand" in
  let d_type = dict_of "part" "p_type" in
  let d_container = dict_of "part" "p_container" in
  let d_nation = dict_of "nation" "n_name" in
  let d_region = dict_of "region" "r_name" in
  (* The column lists below are evaluated right to left, so each table
     draws its last column first; the data depends on it (tpch.mli). *)
  let customer =
    let vals, mask = acctbal rand n_cust in
    Table.of_columns ~name:"customer"
      ~nulls:[ ("c_acctbal", mask) ]
      ~dicts:[ ("c_mktsegment", d_mktsegment) ]
      [
        ("c_custkey", Array.init n_cust (fun i -> i + 1));
        ("c_nationkey", Array.init n_cust (fun _ -> uniform 0 24));
        ("c_mktsegment", draw_codes rand d_mktsegment n_cust);
        ("c_acctbal", vals);
      ]
  in
  let part =
    Table.of_columns ~name:"part"
      ~dicts:
        [
          ("p_brand", d_brand); ("p_type", d_type); ("p_container", d_container);
        ]
      [
        ("p_partkey", Array.init n_part (fun i -> i + 1));
        ("p_size", Array.init n_part (fun _ -> uniform 1 50));
        ("p_retailprice", Array.init n_part (fun _ -> uniform 900_00 2_000_00));
        ("p_brand", draw_codes rand d_brand n_part);
        ("p_type", draw_codes rand d_type n_part);
        ("p_container", draw_codes rand d_container n_part);
      ]
  in
  let partsupp =
    Table.of_columns ~name:"partsupp"
      [
        ("ps_partkey", Array.init n_psupp (fun _ -> uniform 1 n_part));
        ("ps_suppkey", Array.init n_psupp (fun _ -> uniform 1 n_supp));
        ("ps_availqty", Array.init n_psupp (fun _ -> uniform 1 9_999));
        ("ps_supplycost", Array.init n_psupp (fun _ -> uniform 1_00 1_000_00));
      ]
  in
  let supplier =
    let vals, mask = acctbal rand n_supp in
    Table.of_columns ~name:"supplier"
      ~nulls:[ ("s_acctbal", mask) ]
      [
        ("s_suppkey", Array.init n_supp (fun i -> i + 1));
        ("s_nationkey", Array.init n_supp (fun _ -> uniform 0 24));
        ("s_acctbal", vals);
      ]
  in
  let nation =
    Table.of_columns ~name:"nation"
      ~dicts:[ ("n_name", d_nation) ]
      [
        ("n_nationkey", Array.init 25 (fun i -> i));
        ("n_regionkey", Array.init 25 (fun i -> i mod 5));
        ("n_name", Array.init 25 (fun i -> i));
      ]
  in
  let region =
    Table.of_columns ~name:"region"
      ~dicts:[ ("r_name", d_region) ]
      [
        ("r_regionkey", Array.init 5 (fun i -> i));
        ("r_name", Array.init 5 (fun i -> i));
      ]
  in
  [
    ("lineitem", lineitem);
    ("orders", orders);
    ("customer", customer);
    ("part", part);
    ("partsupp", partsupp);
    ("supplier", supplier);
    ("nation", nation);
    ("region", region);
  ]
