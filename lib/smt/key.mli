(** Canonical keys for formulas.

    A {e canonical key} identifies a formula up to variable naming: the
    formula is canonicalized ({!Formula.canon}), its variables are
    renamed to [0..n-1] in first-occurrence order, and the renamed
    integrality bits join the key. The serve daemon's rewrite cache
    ([Sia_serve.Cache]) keys on it, so requests that differ only in
    conjunct order or variable numbering share an entry. *)

type canonical = {
  id : Formula.t * bool list;
      (** Hash/equality identity: canonical formula and per-variable
          integrality bits. *)
  back : int array;  (** canonical var -> original var *)
}

val id_hash : Formula.t * bool list -> int
(** Hash of a key identity ({!canonical} [id]), routing the formula
    through the structural {!Formula.hash}. Always use this instead of
    the polymorphic [Hashtbl.hash]: formulas carry numeric values whose
    physical representation is not canonical. *)

val canonical : is_int:(int -> bool) -> Formula.t -> canonical
(** Build the canonical key of a formula (expected in NNF). Stable
    across processes and runs: depends only on the formula's structure
    and the integrality of its variables. *)
