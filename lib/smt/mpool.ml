open Sia_numeric

(* Model pool: the first rung of the sample-generation ladder.

   Entries are *named* valuations — (column name, value) pairs — rather
   than solver-variable assignments: variable numbering is private to one
   encoding environment, while column names are stable across every
   attempt of a query family, so a model harvested by one CEGIS attempt
   replays in a sibling attempt without any canonical-translation
   machinery. The caller supplies the family key; Samples keys by the
   concrete query (tables, predicate) — the exact key the fork-pool
   sharding groups by, so same-family attempts always run on one worker
   and the pool's evolution is identical sequential or parallel.

   The pool is a cache of *candidates*, never of answers: every replayed
   valuation is re-validated against the full current query (strict
   evaluation, plus a certified re-derivation under SIA_PARANOID) before
   it is returned as a sample. Dropping the pool can therefore only
   change cost, not results of the validation discipline — it is flushed
   by {!Solver.reset_caches} like every other cache. *)

type valuation = (string * Rat.t) array

type side = True_side | False_side

type entry = {
  mutable models : valuation list; (* newest first; see [candidates] *)
  mutable n_models : int;
  mutable dead_pins : (int * valuation) list;
      (* under-approx pins that conflicted, tagged by the query fingerprint
         they conflicted against: a pin that dries up refuting one CEGIS
         candidate is perfectly live for the next one, so conflicts must
         not outlive their query *)
  mutable n_dead : int;
}

(* Per-family caps keep replay and pin selection O(1)-ish and — more
   importantly — deterministic: once a family is full, later harvests are
   dropped instead of evicting older entries, so the candidate order a
   later attempt sees never depends on how many extra models an unrelated
   chunk happened to produce. *)
let max_models = 64
let max_dead = 128

let table : (string * int, entry) Hashtbl.t = Hashtbl.create 64

let side_ix = function True_side -> 0 | False_side -> 1

let entry_for key side =
  let k = (key, side_ix side) in
  match Hashtbl.find_opt table k with
  | Some e -> e
  | None ->
    let e = { models = []; n_models = 0; dead_pins = []; n_dead = 0 } in
    Hashtbl.add table k e;
    e

let same_valuation (a : valuation) (b : valuation) =
  Array.length a = Array.length b
  && Array.for_all2 (fun (n1, q1) (n2, q2) -> String.equal n1 n2 && Rat.equal q1 q2) a b

let harvest ~key side v =
  let e = entry_for key side in
  if e.n_models < max_models && not (List.exists (same_valuation v) e.models)
  then begin
    e.models <- v :: e.models;
    e.n_models <- e.n_models + 1
  end

let candidates ~key side =
  match Hashtbl.find_opt table (key, side_ix side) with
  | None -> []
  | Some e -> List.rev e.models (* insertion order: oldest first *)

let mark_dead ~key side ~tag pin =
  let e = entry_for key side in
  if
    e.n_dead < max_dead
    && not
         (List.exists
            (fun (t, p) -> t = tag && same_valuation pin p)
            e.dead_pins)
  then begin
    e.dead_pins <- (tag, pin) :: e.dead_pins;
    e.n_dead <- e.n_dead + 1
  end

let is_dead ~key side ~tag pin =
  match Hashtbl.find_opt table (key, side_ix side) with
  | None -> false
  | Some e ->
    List.exists (fun (t, p) -> t = tag && same_valuation pin p) e.dead_pins

let reset () = Hashtbl.reset table

(* Differential harnesses (serve-vs-batch, jobs differential) compare
   cold runs via [Solver.reset_caches]; the pool must go cold with the
   solver caches it grew alongside. *)
let () = Solver.on_reset_caches reset
