(* Pins the SAT solver's decision order. Runs a seeded corpus of random
   incremental sessions (variables added between calls, clauses added
   between calls, solves under random assumptions) and prints, after
   every [Sat.solve], the answer, the model read through [Sat.value] over
   all variables, and the conflict, propagation and restart counters.
   The runtest rule in test/dune diffs the output against
   sat_order.expected: any change to which variable is decided next, or
   to its phase, changes some model or counter here. After an intended
   change, `dune promote` records the new output.

   Sessions are sized around the random 3-SAT threshold (about 4.26
   clauses per variable) so that most solves hit conflicts and some run
   past the first Luby restart budget of 100 conflicts; the summary line
   counts both. Three larger sessions at the threshold run thousands of
   conflicts, enough for the activity rescale. *)

(* A 63-bit LCG, so the corpus does not depend on the stdlib's Random. *)
let state = ref 0

let next () =
  state := (!state * 3935559000370003845) + 2691343689449507681;
  !state lsr 20

let below n = next () mod n

let random_lit nvars = Sia_smt.Sat.lit_of (below nvars) (below 2 = 0)

let model_hex s =
  let n = Sia_smt.Sat.n_vars s in
  let b = Buffer.create ((n / 4) + 1) in
  let v = ref 0 in
  while !v < n do
    let nibble = ref 0 in
    for i = 0 to 3 do
      if !v + i < n && Sia_smt.Sat.value s (!v + i) then nibble := !nibble lor (1 lsl i)
    done;
    Buffer.add_char b "0123456789abcdef".[!nibble];
    v := !v + 4
  done;
  Buffer.contents b

(* One session: [vars] variables to start, then [rounds] solves, each
   after adding up to 11 variables and the clauses that bring the
   clause-to-variable ratio to [round / ramp] of [ratio] (all of it from
   round [ramp] on), under up to [max_assumptions] random assumptions. *)
let run_session ~stats session ~vars ~rounds ~ramp ~ratio ~max_assumptions =
  let with_conflicts, with_restarts, unsat = stats in
  let s = Sia_smt.Sat.create () in
  let nvars = ref 0 in
  let add_vars k =
    for _ = 1 to k do
      ignore (Sia_smt.Sat.new_var s);
      incr nvars
    done
  in
  add_vars vars;
  let added = ref 0 in
  for round = 1 to rounds do
    if round > 1 then add_vars (below 12);
    let target = int_of_float (ratio *. float_of_int (!nvars * min round ramp) /. float_of_int ramp) in
    while !added < target do
      Sia_smt.Sat.add_clause s (List.init 3 (fun _ -> random_lit !nvars));
      incr added
    done;
    let assumptions = List.init (below (max_assumptions + 1)) (fun _ -> random_lit !nvars) in
    let c0 = Sia_smt.Sat.n_conflicts s and r0 = Sia_smt.Sat.n_restarts s in
    let sat = Sia_smt.Sat.solve ~assumptions s in
    if Sia_smt.Sat.n_conflicts s > c0 then incr with_conflicts;
    if Sia_smt.Sat.n_restarts s > r0 then incr with_restarts;
    if not sat then incr unsat;
    Printf.printf "s%d.%d %s c=%d p=%d r=%d m=%s\n" session round
      (if sat then "sat" else "unsat")
      (Sia_smt.Sat.n_conflicts s) (Sia_smt.Sat.n_propagations s)
      (Sia_smt.Sat.n_restarts s) (model_hex s)
  done

let () =
  let with_conflicts = ref 0 and with_restarts = ref 0 and unsat = ref 0 in
  let stats = (with_conflicts, with_restarts, unsat) in
  for session = 0 to 199 do
    state := session + 1;
    let vars = 30 + below 90 in
    let ratio = 3.6 +. (float_of_int (below 100) /. 100.0) in
    let rounds = 3 + below 5 in
    run_session ~stats session ~vars ~rounds ~ramp:rounds ~ratio ~max_assumptions:3
  done;
  (* Hard instances at the threshold. Two of the three run past the
     ~4,500 conflicts after which an activity exceeds 1e100 and every
     activity is rescaled. *)
  for session = 200 to 202 do
    state := session + 1;
    run_session ~stats session ~vars:175 ~rounds:2 ~ramp:1 ~ratio:4.3 ~max_assumptions:0
  done;
  Printf.printf "solves with conflicts=%d, with restarts=%d, unsat=%d\n" !with_conflicts
    !with_restarts !unsat
