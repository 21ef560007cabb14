(** TPC-H data generator for the catalog in {!Sia_relalg.Schema.tpch}.

    Follows dbgen's date rules: order dates uniform over
    [1992-01-01, 1998-08-02]; per order 1-7 lineitems with
    ship = order + U(1,121), commit = order + U(30,90),
    receipt = ship + U(1,30). Dates are stored as day counts
    (see {!Sia_sql.Date}); prices as cents; categorical string columns
    as dictionary codes drawn against the catalog's interned domains
    (DESIGN.md §21.2).

    Deterministic per seed, from three independently seeded streams.
    [[|seed|]]: per order o_custkey, o_totalprice, o_orderdate and the
    line count; per line the ship, commit and receipt offsets, then
    l_tax, l_discount, l_extendedprice, l_quantity, l_suppkey,
    l_partkey. [[|seed; 0x51a|]]: per lineitem l_shipinstruct,
    l_shipmode, l_linestatus, l_returnflag; then every o_orderstatus,
    then every o_orderpriority. [[|seed; 0x8ab1e5|]]: customer, part,
    partsupp and supplier, one whole column at a time. Their column
    lists are literals, which ocamlopt evaluates right to left, so each
    draws its last column first (an acctbal draws its null mask, then
    its values). test/tpch_digest.expected pins every column. *)

val orders_per_sf : int
(** 1_500_000, the TPC-H constant. *)

val generate_all : sf:float -> ?seed:int -> unit -> (string * Table.t) list
(** All 8 TPC-H tables keyed by name, in catalog order: lineitem,
    orders, customer, part, partsupp, supplier, nation and region.
    The nullable account balances (c_acctbal, s_acctbal) carry a ~3%
    null mask. The small tables scale with [sf] like dbgen (nation and
    region are fixed at 25 and 5 rows). *)
