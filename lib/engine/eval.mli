(** Compile predicates to allocation-free row tests (DESIGN.md §22.2).

    A predicate is compiled once, against a {!resolver} that maps column
    names to storage, into the pair of row tests (T p, F p) of DESIGN.md
    §21.3; an expression compiles to a value function plus a null test
    that is absent when the expression is statically non-NULL. Rows are
    plain ints: a base-table row, or a position in a join cursor whose
    columns read through an index vector. Nothing allocates per row.

    Dates evaluate to day counts and intervals to day spans, so the date
    arithmetic in predicates reduces to integer arithmetic, exactly as in
    Sia's encoding. Division is SQL-style integer division (truncation).
    String comparisons decode the dictionary and compare actual strings —
    deliberately independent of the SMT rank encoding, so the
    differential suite in [test/test_grammar.ml] checks two separate
    implementations of the same semantics (DESIGN.md §21.4). *)

exception Unsupported of string

(** SQL's three truth values (DESIGN.md §21.3). *)
type tv = Tv_true | Tv_false | Tv_null

(** Where a column's values live: [data.(index.(r))] (or [data.(r)]
    without an index vector) is the value at row [r], NULL where the
    mask says so. *)
type source = {
  data : int array;
  nulls : bool array option;
  dict : Sia_sql.Strdict.t option;
  index : int array option;
}

type resolver = string -> source
(** Column name (qualifier ignored) to storage.
    @raise Not_found for unknown columns. *)

val table_resolver : ?index:int array -> Table.t -> resolver
(** The columns of one table, read through [index] when given. *)

(** A compiled expression: [get r] is meaningful only where [null] does
    not hold; [null = None] means the expression is never NULL. *)
type value = { get : int -> int; null : (int -> bool) option }

val compile_expr : resolver -> Sia_sql.Ast.expr -> value
(** @raise Unsupported as {!compile_pred3}. *)

val compile_pred3 : Table.t -> Sia_sql.Ast.pred -> int -> tv
(** [compile_pred3 table p] resolves every column of [p] against [table]
    once, returning a per-row three-valued evaluator.
    @raise Unsupported for float constants (the engine stores ints),
    non-prefix LIKE patterns, and string operations on dictionary-less
    columns; @raise Not_found for unresolvable columns. *)

val select : resolver -> Sia_sql.Ast.pred -> int -> int array
(** [select resolve p n] is the rows [r] with [0 <= r < n] where [p] is
    TRUE, ascending (UNKNOWN rejects, matching SQL filter semantics). Each top-level
    conjunct is tested only on the rows the earlier ones kept, so a
    [Division_by_zero] can arise only on such rows. *)

val filter : Table.t -> Sia_sql.Ast.pred -> Table.t
(** The rows of the table where the predicate is TRUE, in order. *)

val selectivity : Table.t -> Sia_sql.Ast.pred -> float
(** Fraction of rows accepted; [1.0] on an empty table. *)
