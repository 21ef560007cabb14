(* The structured tracing subsystem (lib/trace) and its three contracts:
   spans nest strictly per lane, a disabled trace is a true no-op (same
   rewrites, zero events), and a jobs=2 batch reassembles worker events
   into one merged trace whose per-worker lanes partition the task set.
   Sia_trace.Json reads the Chrome trace-event export back. *)

module Trace = Sia_trace.Trace
module Json = Sia_trace.Json
module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
open Sia_core

let cat = Schema.tpch
let from2 = [ "lineitem"; "orders" ]

let motivating_pred =
  Parser.parse_predicate
    "l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01' AND \
     l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10"

(* Each test starts from a clean, disabled trace. The epoch survives
   (enable is idempotent about it), which is exactly the production
   situation of a late enabler. *)
let fresh () =
  Trace.disable ();
  Trace.reset ()

let synth ~trace target_cols =
  let cfg = { Config.default with Config.trace = trace } in
  Synthesize.synthesize ~cfg cat ~from:from2 ~pred:motivating_pred ~target_cols

let render st =
  match Synthesize.predicate st with
  | Some p -> Printer.string_of_pred p
  | None -> "-"

(* ------------------------------------------------------------------ *)
(* Span nesting                                                        *)
(* ------------------------------------------------------------------ *)

(* Every lane's Begin/End events must form a well-formed bracket
   sequence with matching names; returns the number of violations. *)
let check_nesting evs =
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 4 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks tid s;
      s
  in
  let bad = ref 0 in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.Trace.ph with
      | Trace.Begin -> (
        let s = stack ev.Trace.tid in
        s := ev.Trace.name :: !s)
      | Trace.End -> (
        let s = stack ev.Trace.tid in
        match !s with
        | top :: rest when top = ev.Trace.name -> s := rest
        | _ -> incr bad)
      | Trace.Instant | Trace.Counter | Trace.Meta -> ())
    evs;
  Hashtbl.iter (fun _ s -> bad := !bad + List.length !s) stacks;
  !bad

let test_nesting () =
  fresh ();
  let st = synth ~trace:true [ "l_shipdate" ] in
  Alcotest.(check bool) "synthesis succeeded" true
    (Synthesize.is_valid_outcome st);
  let evs = Trace.events () in
  Alcotest.(check bool) "events were emitted" true (evs <> []);
  Alcotest.(check int) "well-formed nesting" 0 (check_nesting evs);
  let names =
    List.sort_uniq compare (List.map (fun e -> e.Trace.name) evs)
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("span " ^ expected) true (List.mem expected names))
    [
      "synthesize"; "cegis.iteration"; "gen"; "learn"; "verify"; "prune";
      "smt.solve"; "sat.search"; "theory.check";
    ]

(* ------------------------------------------------------------------ *)
(* Disabled = no-op                                                    *)
(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  fresh ();
  let off = synth ~trace:false [ "l_shipdate"; "l_commitdate" ] in
  Alcotest.(check int) "no events while disabled" 0
    (List.length (Trace.events ()));
  let on = synth ~trace:true [ "l_shipdate"; "l_commitdate" ] in
  Alcotest.(check bool) "traced run emitted events" true (Trace.events () <> []);
  Alcotest.(check string) "identical rendered predicate" (render off) (render on);
  Alcotest.(check bool) "identical outcome class" true
    (Synthesize.is_optimal_outcome off = Synthesize.is_optimal_outcome on)

(* ------------------------------------------------------------------ *)
(* jobs=2: one merged trace with per-worker lanes                      *)
(* ------------------------------------------------------------------ *)

let test_jobs2_merged_trace () =
  fresh ();
  (* Two structurally different queries: the batch must contain at least
     two shard groups, or the effective-jobs cap (fewer groups than
     workers) would correctly refuse to fork. The cap also consults the
     detected core count, so force it to 2 for this single-core-safe
     test. *)
  Unix.putenv "SIA_ONLINE_CORES" "2";
  let second_pred =
    Parser.parse_predicate
      "l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'"
  in
  let attempts =
    List.map
      (fun (pred, cols) -> { Synthesize.from = from2; pred; target_cols = cols })
      [
        (motivating_pred, [ "l_shipdate" ]);
        (motivating_pred, [ "l_commitdate" ]);
        (second_pred, [ "l_shipdate"; "l_commitdate" ]);
        (second_pred, [ "o_orderdate" ]);
      ]
  in
  let cfg2 = { Config.default with Config.jobs = 2; Config.trace = true } in
  let b2 = Synthesize.synthesize_batch ~cfg:cfg2 cat attempts in
  let evs = Trace.events () in
  Alcotest.(check int) "well-formed nesting across lanes" 0 (check_nesting evs);
  let lanes =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Trace.event) ->
           if e.Trace.ph = Trace.Meta then None else Some e.Trace.tid)
         evs)
  in
  Alcotest.(check (list int)) "parent lane plus one lane per worker"
    [ 0; 1; 2 ] lanes;
  (* The pool.task spans on the worker lanes partition the submitted
     indices: each task traced exactly once, on exactly one lane. *)
  let task_idxs =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.name = "pool.task" && e.Trace.ph = Trace.Begin then
          match List.assoc_opt "idx" e.Trace.args with
          | Some (Trace.Int i) -> Some (e.Trace.tid, i)
          | _ -> None
        else None)
      evs
  in
  Alcotest.(check (list int)) "task indices partition the batch"
    [ 0; 1; 2; 3 ]
    (List.sort compare (List.map snd task_idxs));
  List.iter
    (fun (tid, _) ->
      Alcotest.(check bool) "tasks live on worker lanes" true
        (tid = 1 || tid = 2))
    task_idxs;
  (* And the parallel results are the sequential ones. *)
  fresh ();
  let b1 =
    Synthesize.synthesize_batch
      ~cfg:{ cfg2 with Config.jobs = 1; Config.trace = false }
      cat attempts
  in
  Alcotest.(check (list string)) "jobs=2 results = jobs=1 results"
    (List.map render b1.Synthesize.results)
    (List.map render b2.Synthesize.results)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let test_chrome_export () =
  fresh ();
  Trace.enable ();
  let escaped = "v\"with\\escapes\n\001" in
  Trace.span "outer" ~args:[ ("k", Trace.String escaped) ]
    (fun () -> Trace.instant "tick" ~args:[ ("n", Trace.Int 3) ]);
  Trace.counter "c" [ ("x", 1.5) ];
  Trace.set_lane_name 1 "worker 0";
  let j =
    match Json.parse (Trace.to_chrome_string ()) with
    | j -> j
    | exception Json.Error msg -> Alcotest.failf "export is not JSON: %s" msg
  in
  match Json.member "traceEvents" j with
  | Some (Json.Arr evs) ->
    Alcotest.(check int) "event count" 5 (List.length evs);
    List.iter
      (fun ev ->
        List.iter
          (fun key ->
            Alcotest.(check bool) ("event has " ^ key) true (Json.member key ev <> None))
          [ "name"; "cat"; "ph"; "ts"; "pid"; "tid" ])
      evs;
    let field k ev = Json.str (Json.member k ev) in
    (* Instants carry the scope field Chrome requires to render them. *)
    List.iter
      (fun ev ->
        if field "ph" ev = Some "i" then
          Alcotest.(check (option string)) "instant has scope" (Some "t") (field "s" ev))
      evs;
    (* The span argument's quote, backslash, newline and control byte
       come back intact. *)
    let outer =
      List.find (fun ev -> field "name" ev = Some "outer" && field "ph" ev = Some "B") evs
    in
    Alcotest.(check (option string)) "escaped argument" (Some escaped)
      (Option.bind (Json.member "args" outer) (fun a -> Json.str (Json.member "k" a)))
  | _ -> Alcotest.fail "traceEvents missing or not an array"

let () =
  (* The batch test forks; Alcotest must not be mid-test in the children.
     The pool only forks inside Pool.map and the workers _exit before
     returning, so plain sequential runs are safe. *)
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting well-formed" `Quick test_nesting;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "jobs=2 merged trace" `Quick test_jobs2_merged_trace;
          Alcotest.test_case "chrome export is valid" `Quick test_chrome_export;
        ] );
    ]
