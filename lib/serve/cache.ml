open Sia_smt
module Encode = Sia_core.Encode
module Trace = Sia_trace.Trace

(* The key reuses the solver's canonical form (Key.canonical: canon
   formula, alpha-renamed vars, integrality bits) and adds back what the
   alpha-renaming abstracts away: which column each canonical variable
   stands for. Without the column names, alpha-equivalent predicates
   over different columns (l_quantity <-> l_extendedprice) would collide
   on one entry. Target columns complete the identity: the same
   predicate synthesized onto different column subsets yields different
   rewrites. The separable-split bit keeps apart requests whose formulas
   agree but whose conjuncts group differently over the tables, since
   only a split request can be answered without attaching anything. *)
type key = {
  id : Formula.t * bool list * int * int;
  cols : string array;  (** canonical variable -> column name *)
  targets : string list;  (** sorted target columns *)
  splits : bool;  (** [Rewrite.pushed_pred] is [Some _] *)
}

type verdict =
  | Optimal of Sia_sql.Ast.pred
  | Pushed
  | Valid of Sia_sql.Ast.pred
  | Trivial

type entry = {
  verdict : verdict;
  tables : string list;
}

(* Canonical keys embed a Formula.t: hash and equality must go through
   the structural Key.id_hash / Formula.equal, never the polymorphic
   ones (sia-lint R1; numeric payloads have non-canonical
   representations). *)
module KTbl = Hashtbl.Make (struct
  type t = key

  let equal k1 k2 =
    let (f1, b1, r1, n1) = k1.id and (f2, b2, r2, n2) = k2.id in
    r1 = r2 && n1 = n2 && b1 = b2
    && k1.cols = k2.cols
    && k1.targets = k2.targets
    && k1.splits = k2.splits
    && Formula.equal f1 f2

  let hash k =
    Hashtbl.hash (Key.id_hash k.id, k.cols, k.targets, k.splits)
end)

type slot = {
  entry : entry;
  mutable stamp : float;  (** insertion time; the TTL anchor *)
}

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  expirations : int;
  invalidations : int;
  entries : int;
}

type t = {
  tbl : slot KTbl.t;
  now : unit -> float;
  ttl : float;
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable expirations : int;
  mutable invalidations : int;
}

let clear t =
  t.invalidations <- t.invalidations + KTbl.length t.tbl;
  KTbl.reset t.tbl

let create ?(now = Unix.gettimeofday) ?(ttl = 0.) ?(capacity = 4096)
    ?(register = true) () =
  let t =
    {
      tbl = KTbl.create 256;
      now;
      ttl;
      capacity = max 1 capacity;
      hits = 0;
      misses = 0;
      insertions = 0;
      expirations = 0;
      invalidations = 0;
    }
  in
  (* A solver cache reset must take the derived rewrites with it: an
     entry answered under evicted learnt state is still sound, but the
     reset contract (PR 6: "compare genuinely cold runs") means cold. *)
  if register then Solver.on_reset_caches (fun () -> clear t);
  t

let key cat ~from ~pred ~target_cols =
  match Encode.build_env cat from pred with
  | exception Encode.Unsupported msg -> Error ("unsupported predicate: " ^ msg)
  | exception Not_found -> Error "unresolvable column"
  | env ->
    let f = Encode.encode_bool env pred in
    (* build_env numbers variables by order of appearance in the
       predicate, and Key.canonical's conjunct sort keys on those
       numbers — so "a < 1 AND b < 2" and "b < 2 AND a < 1" would
       canonicalize differently. Renumbering by column name first makes
       the numbering (and hence the sort, the alpha-renaming, and the
       back map) a function of the column set alone: conjunct order
       washes out. *)
    let vars = Formula.vars f in
    let names =
      List.sort_uniq String.compare
        (List.map (fun v -> Encode.var_name env v) vars)
    in
    let rank_of = Hashtbl.create 8 and orig_of = Hashtbl.create 8 in
    List.iteri (fun i n -> Hashtbl.replace rank_of n i) names;
    List.iter
      (fun v ->
        Hashtbl.replace orig_of
          (Hashtbl.find rank_of (Encode.var_name env v))
          v)
      vars;
    let f = Formula.map_vars (fun v -> Hashtbl.find rank_of (Encode.var_name env v)) f in
    let is_int r = Encode.is_int_var env (Hashtbl.find orig_of r) in
    (* The limits in a canonical id discriminate solver resource
       budgets; a rewrite key has no budgets of its own, so both are
       pinned to 0. *)
    let k = Key.canonical ~is_int ~max_rounds:0 ~node_limit:0 f in
    Ok
      {
        id = k.Key.id;
        cols =
          Array.map
            (fun r -> Encode.var_name env (Hashtbl.find orig_of r))
            k.Key.back;
        targets = List.sort String.compare target_cols;
        splits =
          Option.is_some
            (Sia_core.Rewrite.pushed_pred cat ~from ~pred ~target_cols);
      }

let expired t slot = t.ttl > 0. && t.now () -. slot.stamp > t.ttl

let find t k =
  match KTbl.find_opt t.tbl k with
  | Some slot when expired t slot ->
    KTbl.remove t.tbl k;
    t.expirations <- t.expirations + 1;
    t.misses <- t.misses + 1;
    if Trace.enabled () then Trace.instant "serve.cache_expired";
    None
  | Some slot ->
    t.hits <- t.hits + 1;
    if Trace.enabled () then Trace.instant "serve.cache_hit";
    Some slot.entry
  | None ->
    t.misses <- t.misses + 1;
    if Trace.enabled () then Trace.instant "serve.cache_miss";
    None

let sweep_expired t =
  let stale =
    KTbl.fold (fun k slot acc -> if expired t slot then k :: acc else acc) t.tbl
      []
  in
  List.iter (fun k -> KTbl.remove t.tbl k) stale;
  t.expirations <- t.expirations + List.length stale

let add t k entry =
  if not (KTbl.mem t.tbl k) && KTbl.length t.tbl >= t.capacity then begin
    sweep_expired t;
    (* Still full: wholesale reset, like the solver memo cache — O(1)
       amortized and the steady-state template population refills it in
       one pass of the request stream. *)
    if KTbl.length t.tbl >= t.capacity then clear t
  end;
  t.insertions <- t.insertions + 1;
  KTbl.replace t.tbl k { entry; stamp = t.now () }

let invalidate t tables =
  let doomed =
    KTbl.fold
      (fun k slot acc ->
        let hit =
          tables = []
          || List.exists (fun tbl -> List.mem tbl slot.entry.tables) tables
        in
        if hit then k :: acc else acc)
      t.tbl []
  in
  List.iter (fun k -> KTbl.remove t.tbl k) doomed;
  let n = List.length doomed in
  t.invalidations <- t.invalidations + n;
  if Trace.enabled () then
    Trace.instant "serve.cache_invalidate" ~args:[ ("evicted", Trace.Int n) ];
  n

let length t = KTbl.length t.tbl

let stats t : stats =
  {
    hits = t.hits;
    misses = t.misses;
    insertions = t.insertions;
    expirations = t.expirations;
    invalidations = t.invalidations;
    entries = KTbl.length t.tbl;
  }
