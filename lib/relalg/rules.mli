(** Predicate-centric rewrite rules.

    The paper's premise: a filter can move below a join only when every
    column it references belongs to one side. Sia widens the applicability
    of this rule by synthesizing one-sided predicates; these rules are what
    then exploit them. *)

val pred_tables : Schema.catalog -> string list -> Sia_sql.Ast.pred -> string list
(** [pred_tables cat from p]: the sorted, deduplicated tables over [from]
    that own the columns of [p]. An unresolvable column contributes
    ["?"], which no plan node covers, so such a predicate is never sunk
    below a join. This is the test {!push_down} sinks by. *)

val push_down : Schema.catalog -> Plan.t -> Plan.t
(** Split conjunctive filters and sink each conjunct to the deepest plan
    node whose table set covers its columns. *)

val add_conjunct : Schema.catalog -> Plan.t -> Sia_sql.Ast.pred -> Plan.t
(** Add a synthesized predicate to a plan and sink it (the rewrite Sia
    performs after learning a predicate). *)

val pushdown_blocked_tables : Schema.catalog -> Plan.t -> string list
(** Tables that are scanned in full because no filter applies to them
    before a join: the targets worth synthesizing predicates for (the
    "syntax-based prospective" test of the paper's section 6.2). *)
