(** Plan execution: late-materializing filters and in-memory hash joins
    over {!Table}s, with wall-clock timing for the runtime experiments
    (Fig 9). DESIGN.md §22 describes the cursor.

    Filters and joins compute row-index vectors over the base tables and
    copy no column; {!run} gathers each output column once, at the root.
    A join's output rows come in probe order, and for one probe row its
    build matches come newest-first (the build side is the smaller
    input, the left one on a tie). Columns are the left input's followed
    by the right input's, and the joined table is named
    [left ^ "_" ^ right]. Rows whose join key is NULL on either side
    never match, since SQL's [NULL = x] is UNKNOWN. *)

exception Unsupported of string

val hash_join :
  left:Table.t -> right:Table.t -> left_key:string -> right_key:string -> Table.t

val run : tables:(string * Table.t) list -> Sia_relalg.Plan.t -> Table.t
(** Execute a logical plan bottom-up. A bare scan returns its table
    itself; every other plan returns freshly gathered columns.
    @raise Unsupported for plan shapes outside the engine's fragment. *)

val time : (unit -> 'a) -> 'a * float
(** Result plus elapsed seconds. *)
