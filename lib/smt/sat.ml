(* CDCL with two-watched literals, first-UIP learning, activity decay,
   phase saving, and Luby restarts. Decisions come from [order], every
   variable sorted by (activity desc, index asc), and a cursor: every
   position before [cursor] holds an assigned variable, so the first
   unassigned variable at or after it is the highest-activity,
   lowest-index free variable — the one a linear scan over all
   variables would pick, so the data structure never changes a model.
   Long-lived incremental sessions grow to thousands of variables and a
   Sat answer decides every one of them: the cursor makes a decision
   amortized O(1), and backtracking only moves the cursor back to the
   first position it unassigns. Activities change only at conflicts,
   which are rare next to decisions, so the order is restored lazily at
   the first decision after one (see [sort_order]). *)

type lit = int

let pos v = 2 * v
let neg_lit v = (2 * v) + 1
let lit_of v sign = if sign then pos v else neg_lit v
let var_of l = l / 2
let lit_sign l = l land 1 = 0
let negate l = l lxor 1

type clause = { lits : int array; mutable activity : float; learnt : bool }

type t = {
  mutable nvars : int;
  mutable assign : int array; (* -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable activity : float array;
  mutable phase : bool array;
  mutable watches : clause list array; (* indexed by literal *)
  mutable trail : int array;
  mutable trail_len : int;
  mutable trail_lim : int array; (* trail_lim.(i): trail length when level i+1 opened *)
  mutable lim_len : int; (* current decision level *)
  mutable qhead : int;
  mutable clauses : clause list;
  mutable learnts : clause list;
  mutable var_inc : float;
  mutable ok : bool;
  mutable conflicts : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable seen : bool array;
  mutable order : int array; (* variables by (activity desc, index asc) *)
  mutable order_pos : int array; (* var -> position in [order] *)
  mutable cursor : int; (* [order.(i)] is assigned for every [i < cursor] *)
  mutable bumped : int list; (* variables bumped since the last sort, once each *)
  mutable is_bumped : bool array; (* var -> member of [bumped] *)
  mutable rescaled : bool; (* every activity was rescaled since the last sort *)
  mutable tracer : (Cert.sat_event -> unit) option;
}

let create () =
  {
    nvars = 0;
    assign = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 None;
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    watches = Array.make 32 [];
    trail = Array.make 16 0;
    trail_len = 0;
    trail_lim = Array.make 16 0;
    lim_len = 0;
    qhead = 0;
    clauses = [];
    learnts = [];
    var_inc = 1.0;
    ok = true;
    conflicts = 0;
    propagations = 0;
    restarts = 0;
    seen = Array.make 16 false;
    order = Array.make 16 0;
    order_pos = Array.make 16 0;
    cursor = 0;
    bumped = [];
    is_bumped = Array.make 16 false;
    rescaled = false;
    tracer = None;
  }

let set_tracer s f = s.tracer <- Some f
let emit s ev = match s.tracer with Some f -> f ev | None -> ()

let grow arr n default =
  let len = Array.length arr in
  if n <= len then arr
  else begin
    let arr' = Array.make (max n (2 * len)) default in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

(* [before s u v]: [u] precedes [v] in the decision order, higher
   activity first and ties to the lower index. The order is strict and
   total, so the first free variable in [order] is unique. *)
let before s u v =
  s.activity.(u) > s.activity.(v) || (s.activity.(u) = s.activity.(v) && u < v)

(* Restore [order] after activities changed. Only bumps raise an
   activity, so the variables not bumped since the last sort are still in
   order: the bumped ones are sorted on their own and merged back in,
   O(n + m log m) for m bumped variables. A rescale multiplies every
   activity and can turn distinct ones into ties (rounding, underflow to
   0), so it re-sorts everything. *)
let sort_order s =
  let n = s.nvars in
  let cmp u v = if before s u v then -1 else 1 in
  let old = Array.sub s.order 0 n in
  if s.rescaled then begin
    Array.sort cmp old;
    Array.blit old 0 s.order 0 n
  end
  else begin
    let moved = Array.of_list s.bumped in
    Array.sort cmp moved;
    let i = ref 0 and j = ref 0 in
    for k = 0 to n - 1 do
      while !i < n && s.is_bumped.(old.(!i)) do
        incr i
      done;
      if !j < Array.length moved && (!i = n || before s moved.(!j) old.(!i)) then begin
        s.order.(k) <- moved.(!j);
        incr j
      end
      else begin
        s.order.(k) <- old.(!i);
        incr i
      end
    done
  end;
  List.iter (fun v -> s.is_bumped.(v) <- false) s.bumped;
  s.bumped <- [];
  s.rescaled <- false;
  for k = 0 to n - 1 do
    s.order_pos.(s.order.(k)) <- k
  done;
  s.cursor <- 0

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assign <- grow s.assign s.nvars (-1);
  s.level <- grow s.level s.nvars 0;
  s.reason <- grow s.reason s.nvars None;
  s.activity <- grow s.activity s.nvars 0.0;
  s.phase <- grow s.phase s.nvars false;
  s.seen <- grow s.seen s.nvars false;
  s.watches <- grow s.watches (2 * s.nvars) [];
  s.trail <- grow s.trail s.nvars 0;
  (* A new variable has activity 0 and the highest index, so it sorts
     last; the cursor is at most [v], so its invariant holds. *)
  s.order <- grow s.order s.nvars 0;
  s.order_pos <- grow s.order_pos s.nvars 0;
  s.is_bumped <- grow s.is_bumped s.nvars false;
  s.order.(v) <- v;
  s.order_pos.(v) <- v;
  v

let n_vars s = s.nvars
let n_conflicts s = s.conflicts
let n_propagations s = s.propagations
let n_restarts s = s.restarts
let n_learnts s = List.length s.learnts

let lit_value s l =
  let a = s.assign.(var_of l) in
  if a < 0 then -1 else if lit_sign l then a else 1 - a

let decision_level s = s.lim_len

(* Open a new decision level at the current trail position. *)
let push_level s =
  s.trail_lim <- grow s.trail_lim (s.lim_len + 1) 0;
  s.trail_lim.(s.lim_len) <- s.trail_len;
  s.lim_len <- s.lim_len + 1

let enqueue s l reason =
  let v = var_of l in
  s.assign.(v) <- (if lit_sign l then 1 else 0);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.phase.(v) <- lit_sign l;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

(* Propagate enqueued literals; returns a conflicting clause if any. *)
let propagate s =
  let conflict = ref None in
  while !conflict = None && s.qhead < s.trail_len do
    (* Assigning [l] true falsifies [negate l]; clauses watching a literal
       [w] are stored in [watches.(negate w)], so the affected clauses are
       exactly [watches.(l)]. *)
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let falsified = negate l in
    let ws = s.watches.(l) in
    s.watches.(l) <- [];
    let rec go = function
      | [] -> ()
      | c :: rest -> begin
        (* Ensure the falsified literal is at index 1. *)
        if c.lits.(0) = falsified then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- falsified
        end;
        if lit_value s c.lits.(0) = 1 then begin
          (* Clause already satisfied: keep watching. *)
          s.watches.(l) <- c :: s.watches.(l);
          go rest
        end
        else begin
          (* Look for a new literal to watch. *)
          let n = Array.length c.lits in
          let found = ref false in
          let i = ref 2 in
          while (not !found) && !i < n do
            if lit_value s c.lits.(!i) <> 0 then begin
              let tmp = c.lits.(1) in
              c.lits.(1) <- c.lits.(!i);
              c.lits.(!i) <- tmp;
              s.watches.(negate c.lits.(1)) <- c :: s.watches.(negate c.lits.(1));
              found := true
            end;
            incr i
          done;
          if !found then go rest
          else begin
            (* Unit or conflicting. *)
            s.watches.(l) <- c :: s.watches.(l);
            if lit_value s c.lits.(0) = 0 then begin
              (* Conflict: restore remaining watches and stop. *)
              s.watches.(l) <- List.rev_append rest s.watches.(l);
              conflict := Some c
            end
            else begin
              enqueue s c.lits.(0) (Some c);
              go rest
            end
          end
        end
      end
    in
    go ws
  done;
  !conflict

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100;
    s.rescaled <- true
  end;
  if not s.is_bumped.(v) then begin
    s.is_bumped.(v) <- true;
    s.bumped <- v :: s.bumped
  end

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let cancel_until s target =
  if decision_level s > target then begin
    let bound = s.trail_lim.(target) in
    for i = s.trail_len - 1 downto bound do
      let v = var_of s.trail.(i) in
      s.assign.(v) <- -1;
      s.reason.(v) <- None;
      if s.order_pos.(v) < s.cursor then s.cursor <- s.order_pos.(v)
    done;
    s.trail_len <- bound;
    s.qhead <- bound;
    s.lim_len <- target
  end

(* First-UIP conflict analysis. Returns the learnt clause (UIP first) and
   the backjump level. *)
let analyze s confl =
  let learnt = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let idx = ref (s.trail_len - 1) in
  let cur_level = decision_level s in
  let clause = ref (Some confl) in
  let continue = ref true in
  while !continue do
    (match !clause with
     | Some c ->
       let start = if !p = -1 then 0 else 1 in
       for i = start to Array.length c.lits - 1 do
         let q = c.lits.(i) in
         let v = var_of q in
         if (not s.seen.(v)) && s.level.(v) > 0 then begin
           s.seen.(v) <- true;
           var_bump s v;
           if s.level.(v) >= cur_level then incr path
           else learnt := q :: !learnt
         end
       done
     | None -> ());
    (* Find next literal on trail to resolve. *)
    while not s.seen.(var_of s.trail.(!idx)) do
      decr idx
    done;
    let l = s.trail.(!idx) in
    let v = var_of l in
    s.seen.(v) <- false;
    decr idx;
    decr path;
    if !path = 0 then begin
      p := l;
      continue := false
    end
    else begin
      clause := s.reason.(v);
      p := l
    end
  done;
  let learnt_lits = negate !p :: !learnt in
  List.iter (fun l -> s.seen.(var_of l) <- false) !learnt;
  (* Backjump level: max level among non-UIP literals. *)
  let bj =
    List.fold_left (fun acc l -> max acc s.level.(var_of l)) 0 !learnt
  in
  (learnt_lits, bj)

let attach s c =
  s.watches.(negate c.lits.(0)) <- c :: s.watches.(negate c.lits.(0));
  s.watches.(negate c.lits.(1)) <- c :: s.watches.(negate c.lits.(1))

let add_clause_internal s lits learnt =
  match lits with
  | [] -> s.ok <- false
  | [ l ] ->
    (match lit_value s l with
     | 1 -> ()
     | 0 -> if decision_level s = 0 then s.ok <- false else invalid_arg "unit at non-zero level"
     | _ ->
       enqueue s l None;
       if propagate s <> None then s.ok <- false)
  | _ ->
    let c = { lits = Array.of_list lits; activity = 0.0; learnt } in
    if learnt then s.learnts <- c :: s.learnts else s.clauses <- c :: s.clauses;
    attach s c;
    c |> ignore

let add_clause s lits =
  (* Log the clause as given, pre-simplification: the checker applies its
     own root-level simplification when replaying. *)
  emit s (Cert.Given lits);
  if s.ok then begin
    cancel_until s 0;
    s.qhead <- s.trail_len;
    (* Simplify: drop false literals, detect satisfied/duplicate. *)
    let tbl = Hashtbl.create 8 in
    let sat = ref false in
    let lits =
      List.filter
        (fun l ->
          if Hashtbl.mem tbl (negate l) then sat := true;
          if lit_value s l = 1 then sat := true;
          if lit_value s l = 0 then false
          else if Hashtbl.mem tbl l then false
          else begin
            Hashtbl.add tbl l ();
            true
          end)
        lits
    in
    if not !sat then add_clause_internal s lits false;
    (* Re-run propagation from scratch queue position at level 0. *)
    if s.ok then begin
      s.qhead <- 0;
      if propagate s <> None then s.ok <- false
    end
  end

let pick_branch s =
  if s.rescaled || not (List.is_empty s.bumped) then sort_order s;
  while s.cursor < s.nvars && s.assign.(s.order.(s.cursor)) >= 0 do
    s.cursor <- s.cursor + 1
  done;
  if s.cursor = s.nvars then None
  else begin
    let v = s.order.(s.cursor) in
    Some (lit_of v s.phase.(v))
  end

(* Luby sequence 1,1,2,1,1,2,4,... ; [i] is 1-based. *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do
    incr k
  done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

(* [solve ?assumptions s] searches under the given assumption literals,
   MiniSat-style: assumption [i] is decided at level [i + 1] (a dummy level
   is opened when it is already implied, keeping the level <-> assumption
   indexing aligned). A conflict at or below the assumption levels makes
   the query unsat *under the assumptions* without marking the instance
   globally unsat; learnt clauses never resolve on assumption decisions
   (they have no reason clause), so everything learnt remains valid for
   later calls with different assumptions. *)
let solve ?(assumptions = []) s =
  cancel_until s 0;
  s.qhead <- s.trail_len;
  if not s.ok then begin
    emit s (Cert.Final []);
    false
  end
  else begin
    let assumps = Array.of_list assumptions in
    let n_assumps = Array.length assumps in
    let restart_n = ref 1 in
    let result = ref None in
    while !result = None do
      let budget = 100 * luby !restart_n in
      incr restart_n;
      let confl_count = ref 0 in
      let within = ref true in
      while !result = None && !within do
        match propagate s with
        | Some confl ->
          s.conflicts <- s.conflicts + 1;
          incr confl_count;
          if decision_level s = 0 then begin
            s.ok <- false;
            emit s (Cert.Final []);
            result := Some false
          end
          else begin
            let learnt, bj = analyze s confl in
            cancel_until s bj;
            (match learnt with
             | [] ->
               emit s (Cert.Final []);
               result := Some false
             | [ l ] ->
               emit s (Cert.Learnt learnt);
               enqueue s l None
             | l :: _ ->
               emit s (Cert.Learnt learnt);
               let arr = Array.of_list learnt in
               (* Watch invariant: place a literal of maximal decision level
                  at index 1 so backtracking cannot leave a stale false
                  watch next to an unassigned first watch. *)
               let best = ref 1 in
               for i = 2 to Array.length arr - 1 do
                 if s.level.(var_of arr.(i)) > s.level.(var_of arr.(!best)) then best := i
               done;
               let tmp = arr.(1) in
               arr.(1) <- arr.(!best);
               arr.(!best) <- tmp;
               let c = { lits = arr; activity = 0.0; learnt = true } in
               s.learnts <- c :: s.learnts;
               attach s c;
               enqueue s l (Some c));
            var_decay s;
            if !confl_count > budget then within := false
          end
        | None ->
          if decision_level s < n_assumps then begin
            (* Next assumption becomes the decision for the next level. *)
            let l = assumps.(decision_level s) in
            match lit_value s l with
            | 1 ->
              (* Already implied: open a dummy level so level [i + 1]
                 still corresponds to assumption [i]. *)
              push_level s
            | 0 ->
              (* Falsified by level-0 facts, earlier assumptions, or a
                 clause learnt from them: unsat under these assumptions.
                 The refutation is pure unit propagation below the free
                 decision levels, so asserting the assumptions and
                 propagating re-derives it. *)
              emit s (Cert.Final assumptions);
              result := Some false
            | _ ->
              push_level s;
              enqueue s l None
          end
          else begin
            match pick_branch s with
            | None -> result := Some true
            | Some l ->
              push_level s;
              enqueue s l None
          end
      done;
      if !result = None then begin
        s.restarts <- s.restarts + 1;
        cancel_until s 0
      end
    done;
    match !result with
    | Some true ->
      (* Snapshot the model into the saved phases so {!value} keeps
         answering after any later backtracking. *)
      for v = 0 to s.nvars - 1 do
        if s.assign.(v) >= 0 then s.phase.(v) <- s.assign.(v) = 1
      done;
      true
    | Some false -> false
    | None -> assert false
  end

let value s v = if v < s.nvars && s.assign.(v) >= 0 then s.assign.(v) = 1 else s.phase.(v)
