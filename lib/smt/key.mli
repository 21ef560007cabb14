(** Canonical keys for solver queries.

    A {e canonical key} identifies a query up to variable naming: the
    formula is canonicalized ({!Formula.canon}), its variables are
    renamed to [0..n-1] in first-occurrence order, and the renamed
    integrality bits plus the resource limits join the key. Two calls
    that would run the identical search map to the identical key, which
    is what lets the memo cache and the parallel pool treat a hit as a
    recompute. *)

type canonical = {
  id : Formula.t * bool list * int * int;
      (** Hash/equality identity: canonical formula, per-variable
          integrality bits, [max_rounds], [node_limit]. *)
  fwd : (int, int) Hashtbl.t;  (** original var -> canonical var *)
  back : int array;  (** canonical var -> original var *)
}

val id_hash : Formula.t * bool list * int * int -> int
(** Hash of a key identity ({!canonical} [id]), routing the formula
    through the structural {!Formula.hash}. Always use this instead of
    the polymorphic [Hashtbl.hash]: formulas carry numeric values whose
    physical representation is not canonical. *)

val canonical :
  is_int:(int -> bool) -> max_rounds:int -> node_limit:int -> Formula.t -> canonical
(** Build the canonical key of a formula (expected in NNF). Stable
    across processes and runs: depends only on the formula's structure
    and the two limits. *)
