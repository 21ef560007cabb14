(** Theory checking for conjunctions of literals: rational simplex plus a
    branch-and-bound integer layer, a gcd infeasibility test, and rewriting
    of divisibility literals into fresh-variable equalities. *)

open Sia_numeric

type lit = Atom.t * bool
(** Atom with polarity. [Lin] atoms must be positive; [Dvd] atoms may take
    either polarity. *)

type verdict =
  | Sat of (int * Rat.t) list  (** model over the input's variables *)
  | Unsat of lit list  (** an infeasible subset of the input literals *)
  | Unknown  (** branch-and-bound budget exhausted (unbounded integer vars) *)

val check : is_int:(int -> bool) -> ?node_limit:int -> lit list -> verdict
(** Integer variables are rounded by branch and bound; divisibility
    constraints become fresh integer variables. Models assign every
    variable occurring in the input (integral values for integer vars). *)

val check_cert :
  is_int:(int -> bool) ->
  ?node_limit:int ->
  lit list ->
  verdict * Cert.theory_cert option
(** Like {!check}, but every [Unsat] verdict additionally carries a
    certificate (a gcd witness or a branch tree of Farkas combinations)
    that {!Cert} consumers can replay independently. [Sat] and [Unknown]
    verdicts carry no certificate — a model is its own certificate, and is
    audited separately against the full formula. *)

(** {1 Sessions}

    A session keeps one incremental {!Simplex.t} alive across consecutive
    theory rounds of a single SAT search. Each round re-scans its
    literals' bounds over the shared tableau — literals seen before cost
    no re-translation and add no rows — and branch-and-bound works by
    push/pop of cut bounds instead of rebuilding the tableau per node.
    Literal expansions (fresh divisibility witnesses) and bound tokens
    are allocated once per distinct literal and stay stable for the
    session's lifetime. *)

type session

val create_session :
  is_int:(int -> bool) -> ?node_limit:int -> max_var:int -> unit -> session
(** [max_var] must dominate every variable id in literals later passed to
    {!check_cert_session}; ids above it are reserved for divisibility
    witnesses. *)

val session_fresh_base : session -> int
(** First variable id reserved for session witnesses ([max_var + 1]).
    Callers reusing a session across searches check that new atoms stay
    below it and recreate the session otherwise. *)

val set_session_node_limit : session -> int -> unit
(** Adjust the branch-and-bound budget for subsequent
    {!check_cert_session} calls. Verdicts remain a function of the
    round's literals and the budget alone, so retargeting a live session
    is equivalent to creating a fresh one with the new limit. *)

val check_cert_session : session -> lit list -> verdict * Cert.theory_cert option
(** Same contract as {!check_cert}, reusing the session's tableau.
    Certificates are phrased over the given round's literal positions,
    exactly as in the one-shot interface.
    @raise Invalid_argument if a literal mentions a variable above the
    session's [max_var]. *)

val reused_round_count : unit -> int
(** Cumulative rounds served by an already-populated tableau (monotone,
    process-wide); callers sample deltas. *)

val rebuild_count : unit -> int
(** Cumulative scratch rebuilds triggered by the tableau-bloat escape
    hatch. *)
