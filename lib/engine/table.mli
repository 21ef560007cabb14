(** Columnar in-memory tables. All values are stored as native ints:
    dates as day counts, DOUBLE columns as fixed-point cents, string
    columns as interned dictionary codes (DESIGN.md §21.2). Nullable
    columns carry an optional per-row null mask; a masked row's stored
    int is meaningless padding. *)

type t = {
  name : string;
  col_names : string array;
  cols : int array array;  (** column-major, [cols.(c).(row)] *)
  nrows : int;
  null_masks : bool array option array;
      (** per column; [None] means the column has no NULLs *)
  dicts : Sia_sql.Strdict.t option array;
      (** per column; [Some d] marks an interned string column *)
}

val of_columns :
  name:string ->
  ?nulls:(string * bool array) list ->
  ?dicts:(string * Sia_sql.Strdict.t) list ->
  (string * int array) list ->
  t
(** A table from its named columns, in order. [nulls] and [dicts]
    attach null masks and string dictionaries by column name.
    @raise Invalid_argument on columns of different lengths, a mask or
    dictionary for an unknown column, or a mask of the wrong length. *)

val col_index : t -> string -> int
(** @raise Not_found for unknown column names. *)

val column : t -> string -> int array

val null_mask : t -> string -> bool array option
(** The column's null mask, or [None] when it cannot hold NULLs.
    @raise Not_found for unknown column names. *)

val dict : t -> string -> Sia_sql.Strdict.t option
(** The column's string dictionary, or [None] for numeric columns.
    @raise Not_found for unknown column names. *)

val gather : t -> int array -> t
(** Materialize the given rows, in order (selection-vector flush). *)

val equal_multiset : t -> t -> bool
(** NULL-aware result equality: the same set of column names and the
    same rows as a multiset, where NULL equals NULL (as in GROUP BY) and
    column order, row order and table name are ignored. Values compare
    as stored ints, so string columns must share their dictionaries. *)
