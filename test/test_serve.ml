(* The serve daemon (lib/serve): rewrite-as-a-service must be a pure
   transport around the batch pipeline. Four angles:

   - Differential: the 12-query workload driven through a live daemon
     yields rewritten SQL byte-identical to sequential batch mode, both
     plain and under paranoid auditing, and a second pass over the same
     texts replays the first byte for byte. The daemon adds a template
     cache, a request memo and hot solver state, none of which may
     change an answer.
   - Wire robustness: truncated frames, bad magic, oversized length
     prefixes, unknown tags, interleaved half-written requests and
     mid-request disconnects get a structured error or a dropped
     connection — never a hang, a crash, or a corrupted reply to
     another client.
   - Cache semantics: template hit after first miss, reordered/alpha
     variants collapsing onto one entry, TTL expiry on a fake clock,
     table-scoped invalidation, the solver reset hook, and the
     never-cache-failures rule.
   - Request memo: repeated texts across TTL expiry and invalidation,
     one text under two targets, repeated parse errors, exact cache
     counters, and the capacity bound. *)

module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
module Solver = Sia_smt.Solver
module Qgen = Sia_workload.Qgen
module Protocol = Sia_serve.Protocol
module Cache = Sia_serve.Cache
module Json = Sia_trace.Json
module Client = Sia_serve.Client
open Sia_core

let cat = Schema.tpch

(* ------------------------------------------------------------------ *)
(* Differential: daemon output == batch output, byte for byte          *)
(* ------------------------------------------------------------------ *)

(* SIA_SERVE_TEST_QUERIES trims the workload for quick local runs; the
   default is the full 12-query benchmark population. *)
let n_queries =
  match Sys.getenv_opt "SIA_SERVE_TEST_QUERIES" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> 12)
  | None -> 12

let tagged =
  lazy
    (let queries = Qgen.generate ~seed:42 ~count:n_queries () in
     let subsets = Qgen.column_subsets 1 @ Qgen.column_subsets 2 in
     List.concat_map
       (fun (gq : Qgen.gen_query) -> List.map (fun s -> (gq, s)) subsets)
       queries)

let render_result (r : Rewrite.rewrite_result) =
  ( (match r.Rewrite.synthesized with
     | Some p -> Printer.string_of_pred p
     | None -> "-"),
    match r.Rewrite.rewritten with
    | Some q -> Printer.string_of_query q
    | None -> "-" )

(* The canonical reference: sequential batch mode on a cold cache, the
   exact code path of bench --dump-sql. *)
let batch_run cfg =
  Solver.reset_caches ();
  List.map
    (fun ((gq : Qgen.gen_query), cols) ->
      render_result
        (Rewrite.rewrite_for_columns ~cfg cat gq.Qgen.query ~target_cols:cols))
    (Lazy.force tagged)

(* Every attempt twice: the first pass is the cold served answer, the
   second replays each text the daemon has already seen (request-memo
   hits, and rewrite-cache hits wherever the first pass was cached). *)
let serve_run cfg =
  Client.with_daemon ~cfg @@ fun path ->
  let c = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let pass () =
    List.map
      (fun ((gq : Qgen.gen_query), cols) ->
        let sql = Printer.string_of_query gq.Qgen.query in
        match
          Client.request ~timeout:300. c
            (Protocol.Rewrite { target = Protocol.Cols cols; sql })
        with
        | Protocol.Rewritten r -> (r.Protocol.pred, r.Protocol.sql)
        | Protocol.Error_reply e -> Alcotest.failf "daemon error: %s" e
        | _ -> Alcotest.fail "unexpected response kind")
      (Lazy.force tagged)
  in
  let first = pass () in
  (first, pass ())

let check_differential cfg =
  let batch = batch_run cfg in
  let served, repeated = serve_run cfg in
  let compare what reference answers =
    List.iteri
      (fun i (((bp, bs), (sp, ss)), ((gq : Qgen.gen_query), cols)) ->
        if bp <> sp || bs <> ss then
          Alcotest.failf
            "attempt %d (query %d, cols %s) diverged (%s):\n\
             expected pred: %s\nserve pred:    %s\nexpected sql:  %s\n\
             serve sql:     %s"
            i gq.Qgen.id (String.concat "," cols) what bp sp bs ss)
      (List.combine (List.combine reference answers) (Lazy.force tagged))
  in
  compare "serve vs batch" batch served;
  compare "repeat vs first serve" served repeated

let test_differential_plain () =
  check_differential { Config.default with Config.paranoid = false }

let test_differential_paranoid () =
  check_differential { Config.default with Config.paranoid = true }

(* ------------------------------------------------------------------ *)
(* Wire-protocol robustness                                            *)
(* ------------------------------------------------------------------ *)

let ping_ok path =
  let c = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.request ~timeout:10. c Protocol.Ping with
  | Protocol.Ok_reply "pong" -> ()
  | _ -> Alcotest.fail "daemon did not answer a fresh ping"

let ping_frame () =
  let tag, payload = Protocol.encode_request Protocol.Ping in
  Protocol.frame tag payload

let expect_error ?(timeout = 10.) c what =
  match Client.recv ~timeout c with
  | Protocol.Error_reply _ -> ()
  | _ -> Alcotest.failf "expected a structured error after %s" what

let test_truncated_frame () =
  Client.with_daemon @@ fun path ->
  let c = Client.connect path in
  Client.send_raw c (String.sub (ping_frame ()) 0 3);
  Client.close c;
  ping_ok path

let test_bad_magic () =
  Client.with_daemon @@ fun path ->
  let c = Client.connect path in
  Client.send_raw c "XXXXXXXXXXXX";
  expect_error c "bad magic";
  Client.close c;
  ping_ok path

let test_oversized_length () =
  Client.with_daemon @@ fun path ->
  let c = Client.connect path in
  (* A syntactically perfect header whose length field asks for more
     than max_payload: must be refused up front, not buffered. *)
  let b = Bytes.create 8 in
  Bytes.blit_string "Si" 0 b 0 2;
  Bytes.set b 2 (Char.chr Protocol.version);
  Bytes.set b 3 'P';
  Bytes.set_int32_be b 4 (Int32.of_int (Protocol.max_payload + 1));
  Client.send_raw c (Bytes.to_string b);
  expect_error c "an oversized length prefix";
  Client.close c;
  ping_ok path

let test_unknown_tag () =
  Client.with_daemon @@ fun path ->
  let c = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Client.send_raw c (Protocol.frame 'Z' "whatever");
  expect_error c "an unknown request tag";
  (* A well-framed unknown tag is recoverable: the same connection must
     keep working. *)
  (match Client.request ~timeout:10. c Protocol.Ping with
   | Protocol.Ok_reply "pong" -> ()
   | _ -> Alcotest.fail "connection unusable after unknown tag");
  ping_ok path

let test_interleaved_half_frames () =
  Client.with_daemon @@ fun path ->
  let a = Client.connect path in
  let b = Client.connect path in
  Fun.protect
    ~finally:(fun () ->
      Client.close a;
      Client.close b)
  @@ fun () ->
  let f = ping_frame () in
  (* A's request is stuck at a frame boundary; B must be served anyway
     (per-connection decoders, no head-of-line blocking on bytes). *)
  Client.send_raw a (String.sub f 0 4);
  (match Client.request ~timeout:10. b Protocol.Ping with
   | Protocol.Ok_reply "pong" -> ()
   | _ -> Alcotest.fail "half-written frame on A blocked B");
  Client.send_raw a (String.sub f 4 (String.length f - 4));
  match Client.recv ~timeout:10. a with
  | Protocol.Ok_reply "pong" -> ()
  | _ -> Alcotest.fail "A's completed frame was not answered"

let test_disconnect_mid_request () =
  Client.with_daemon @@ fun path ->
  let c = Client.connect path in
  let tag, payload =
    Protocol.encode_request
      (Protocol.Rewrite
         { target = Protocol.Cols [ "l_shipdate" ]; sql = "NOT EVEN SQL" })
  in
  Client.send_raw c (Protocol.frame tag payload);
  (* Vanish before the reply: the daemon's write must fail harmlessly. *)
  Client.close c;
  ping_ok path

let prop_garbage_survival path s =
  let c = Client.connect path in
  Client.send_raw c s;
  (* The daemon may answer an error, drop us, or wait for more bytes —
     anything but hanging or dying. *)
  (try ignore (Client.recv ~timeout:0.05 c) with
   | Client.Timeout | Protocol.Corrupt _ | Failure _ -> ());
  Client.close c;
  ping_ok path;
  true

let test_fuzz_garbage () =
  Client.with_daemon @@ fun path ->
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:40 ~name:"garbage bytes never kill the daemon"
       (QCheck.string_of_size QCheck.Gen.(int_range 0 40))
       (prop_garbage_survival path))

(* Concurrent clients racing real requests: every reply must be the
   right shape, and a deliberately corrupt client in the middle must
   not corrupt anyone else's stream. *)
let test_concurrent_clients () =
  Client.with_daemon @@ fun path ->
  let clients = Array.init 4 (fun _ -> Client.connect path) in
  Fun.protect
    ~finally:(fun () -> Array.iter Client.close clients)
  @@ fun () ->
  let evil = Client.connect path in
  Client.send_raw evil "Si\255garbage-version";
  (* All four send before anyone reads: the daemon queues and answers
     each on its own connection. *)
  Array.iter
    (fun c ->
      let tag, payload = Protocol.encode_request Protocol.Ping in
      Client.send_raw c (Protocol.frame tag payload))
    clients;
  Array.iter
    (fun c ->
      match Client.recv ~timeout:10. c with
      | Protocol.Ok_reply "pong" -> ()
      | _ -> Alcotest.fail "a well-behaved client got a wrong reply")
    clients;
  Client.close evil

(* ------------------------------------------------------------------ *)
(* Cache semantics                                                     *)
(* ------------------------------------------------------------------ *)

let from2 = [ "lineitem"; "orders" ]

let key_of s cols =
  match
    Cache.key cat ~from:from2 ~pred:(Parser.parse_predicate s)
      ~target_cols:cols
  with
  | Ok k -> k
  | Error e -> Alcotest.failf "unexpected key failure on %S: %s" s e

let trivial_entry tables = { Cache.verdict = Cache.Trivial; tables }

let test_hit_after_miss () =
  let cache = Cache.create ~register:false () in
  let k = key_of "l_shipdate < 10 AND o_orderdate < 20" [ "l_shipdate" ] in
  Alcotest.(check bool) "first lookup misses" true (Cache.find cache k = None);
  Cache.add cache k (trivial_entry from2);
  Alcotest.(check bool) "second lookup hits" true (Cache.find cache k <> None);
  let st = Cache.stats cache in
  Alcotest.(check int) "one hit" 1 st.Cache.hits;
  Alcotest.(check int) "one miss" 1 st.Cache.misses;
  Alcotest.(check int) "one insertion" 1 st.Cache.insertions

let test_variants_share_entry () =
  let cache = Cache.create ~register:false () in
  let k1 = key_of "l_shipdate < 10 AND o_orderdate < 20" [ "l_shipdate" ] in
  (* Reordered conjuncts canonicalize to the same key... *)
  let k2 = key_of "o_orderdate < 20 AND l_shipdate < 10" [ "l_shipdate" ] in
  (* ...and so does a reordered target list. *)
  let k3 =
    key_of "l_shipdate < 10 AND o_orderdate < 20"
      [ "o_orderdate"; "l_shipdate" ]
  and k3' =
    key_of "o_orderdate < 20 AND l_shipdate < 10"
      [ "l_shipdate"; "o_orderdate" ]
  in
  Cache.add cache k1 (trivial_entry from2);
  Alcotest.(check bool) "reordered conjuncts hit the same entry" true
    (Cache.find cache k2 <> None);
  Cache.add cache k3 (trivial_entry from2);
  Alcotest.(check bool) "reordered targets hit the same entry" true
    (Cache.find cache k3' <> None);
  Alcotest.(check int) "two distinct entries in total" 2 (Cache.length cache);
  (* The alpha-renaming must NOT conflate different columns: the same
     shape over l_commitdate is a different template. *)
  let k4 = key_of "l_commitdate < 10 AND o_orderdate < 20" [ "l_commitdate" ] in
  Alcotest.(check bool) "same shape over other columns misses" true
    (Cache.find cache k4 = None)

let test_ttl_expiry () =
  let clock = ref 0. in
  let cache = Cache.create ~now:(fun () -> !clock) ~ttl:10. ~register:false () in
  let k = key_of "l_shipdate < 10" [ "l_shipdate" ] in
  Cache.add cache k (trivial_entry [ "lineitem" ]);
  clock := 5.;
  Alcotest.(check bool) "inside the TTL: hit" true (Cache.find cache k <> None);
  clock := 21.;
  Alcotest.(check bool) "past the TTL: miss" true (Cache.find cache k = None);
  let st = Cache.stats cache in
  Alcotest.(check int) "expiry counted" 1 st.Cache.expirations;
  Alcotest.(check int) "expired entry evicted" 0 st.Cache.entries

let test_invalidate_by_table () =
  let cache = Cache.create ~register:false () in
  let k1 = key_of "l_shipdate < 10" [ "l_shipdate" ] in
  let k2 = key_of "o_orderdate < 20" [ "o_orderdate" ] in
  Cache.add cache k1 { Cache.verdict = Cache.Trivial; tables = [ "lineitem" ] };
  Cache.add cache k2 { Cache.verdict = Cache.Trivial; tables = [ "orders" ] };
  Alcotest.(check int) "stats change on customer evicts nothing" 0
    (Cache.invalidate cache [ "customer" ]);
  Alcotest.(check int) "lineitem invalidation evicts its entry only" 1
    (Cache.invalidate cache [ "lineitem" ]);
  Alcotest.(check bool) "lineitem entry gone" true (Cache.find cache k1 = None);
  Alcotest.(check bool) "orders entry untouched" true
    (Cache.find cache k2 <> None);
  Alcotest.(check int) "empty table list flushes everything" 1
    (Cache.invalidate cache [])

let test_solver_reset_clears () =
  let cache = Cache.create ~register:true () in
  let k = key_of "l_shipdate < 10" [ "l_shipdate" ] in
  Cache.add cache k (trivial_entry [ "lineitem" ]);
  Solver.reset_caches ();
  Alcotest.(check int) "solver cache reset emptied the rewrite cache" 0
    (Cache.length cache)

(* One integer counter of the daemon's Stats JSON. *)
let stats_field c name =
  match Client.request c Protocol.Stats with
  | Protocol.Stats_reply json -> (
    match Json.num (Json.member name (Json.parse json)) with
    | Some v when Float.is_integer v -> int_of_float v
    | Some _ | None -> Alcotest.failf "stats field %s is not an int: %s" name json)
  | _ -> Alcotest.fail "expected stats"

(* A query whose lineitem conjunct also mentions orders: pushdown cannot
   apply it to the lineitem scan, so the rewrite attaches a synthesized
   predicate and a cache hit re-attaches it. *)
let join_sql =
  "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
   l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'"

(* A separable query: its exact projection is its own lineitem conjuncts,
   which pushdown already applies, so neither a miss nor a hit attaches
   anything. *)
let separable_sql =
  "SELECT * FROM lineitem WHERE l_shipdate < 30 AND l_shipdate > 10"

(* Daemon-level cache behavior: hits are observable in the [cached]
   reply flag, replayed answers are byte-identical, invalidation is
   table-scoped, and failures are never cached. *)
let test_daemon_cache_flow () =
  Client.with_daemon @@ fun path ->
  let c = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let ask ?(cols = [ "l_shipdate" ]) sql =
    match
      Client.request ~timeout:120. c
        (Protocol.Rewrite { target = Protocol.Cols cols; sql })
    with
    | Protocol.Rewritten r -> r
    | _ -> Alcotest.fail "expected a rewrite reply"
  in
  (* The solver counters are the daemon's own work since it started:
     a miss synthesizes, a hit runs no solver query. *)
  let solver_queries () = stats_field c "solver_queries" in
  let sql = join_sql in
  let q0 = solver_queries () in
  let r1 = ask sql in
  Alcotest.(check bool) "first request misses" false r1.Protocol.cached;
  Alcotest.(check bool) "a predicate is attached" true (r1.Protocol.sql <> "-");
  let q1 = solver_queries () in
  Alcotest.(check bool) "the miss runs solver queries" true (q1 > q0);
  let r2 = ask sql in
  Alcotest.(check bool) "repeat hits" true r2.Protocol.cached;
  Alcotest.(check int) "the hit runs no solver query" q1 (solver_queries ());
  Alcotest.(check string) "replayed predicate byte-identical" r1.Protocol.pred
    r2.Protocol.pred;
  Alcotest.(check string) "replayed SQL byte-identical" r1.Protocol.sql
    r2.Protocol.sql;
  (* The reordered-conjunct variant is the same template: a hit whose
     predicate matches, replayed onto the variant's own WHERE clause. *)
  let variant =
    "SELECT * FROM lineitem, orders WHERE o_orderdate < DATE '1993-06-01' \
     AND l_shipdate - o_orderdate < 20 AND o_orderkey = l_orderkey"
  in
  let r3 = ask variant in
  Alcotest.(check bool) "alpha/reorder variant hits" true r3.Protocol.cached;
  Alcotest.(check string) "variant replays the same predicate"
    r1.Protocol.pred r3.Protocol.pred;
  Alcotest.(check string) "variant attaches to its own WHERE clause"
    (variant ^ " AND " ^ r1.Protocol.pred ^ ";")
    r3.Protocol.sql;
  Alcotest.(check int) "the variant hit runs no solver query" q1
    (solver_queries ());
  (* A separable request attaches nothing, on the miss and on the hit. *)
  let s1 = ask separable_sql in
  let s2 = ask separable_sql in
  Alcotest.(check (pair bool bool)) "separable: miss, then hit" (false, true)
    (s1.Protocol.cached, s2.Protocol.cached);
  Alcotest.(check string) "separable miss attaches nothing" "-" s1.Protocol.sql;
  Alcotest.(check string) "separable hit attaches nothing" "-" s2.Protocol.sql;
  Alcotest.(check string) "separable hit replays the outcome"
    s1.Protocol.outcome s2.Protocol.outcome;
  Alcotest.(check string) "separable hit replays the predicate"
    s1.Protocol.pred s2.Protocol.pred;
  let batch_cols target_cols sql =
    render_result
      (Rewrite.rewrite_for_columns cat (Parser.parse_query sql) ~target_cols)
  in
  let batch = batch_cols [ "l_shipdate" ] in
  Alcotest.(check (pair string string)) "separable serve == batch"
    (batch separable_sql) (s1.Protocol.pred, s1.Protocol.sql);
  (* Its reordered variant hits the same entry and still replies exactly
     as a fresh rewrite of the variant would. *)
  let separable_variant =
    "SELECT * FROM lineitem WHERE l_shipdate > 10 AND l_shipdate < 30"
  in
  let s3 = ask separable_variant in
  Alcotest.(check bool) "separable variant hits" true s3.Protocol.cached;
  Alcotest.(check (pair string string)) "separable variant hit == batch"
    (batch separable_variant) (s3.Protocol.pred, s3.Protocol.sql);
  (* A commuted comparison and a repeated conjunct canonicalize to the
     same key but print differently: each hit reports the request's own
     conjuncts, exactly as a fresh rewrite of that request does. *)
  List.iter
    (fun v ->
      let s = ask v in
      let fresh = batch v in
      Alcotest.(check bool) (v ^ ": hits") true s.Protocol.cached;
      Alcotest.(check bool) (v ^ ": its own predicate") true
        (fst fresh <> s1.Protocol.pred);
      Alcotest.(check (pair string string)) (v ^ ": hit == batch") fresh
        (s.Protocol.pred, s.Protocol.sql))
    [
      "SELECT * FROM lineitem WHERE 30 > l_shipdate AND l_shipdate > 10";
      "SELECT * FROM lineitem WHERE l_shipdate < 30 AND l_shipdate > 10 \
       AND l_shipdate < 30";
    ];
  (* Invalidation is table-scoped. *)
  (match Client.request c (Protocol.Invalidate [ "part" ]) with
   | Protocol.Ok_reply s -> Alcotest.(check string) "part evicts none" "evicted=0" s
   | _ -> Alcotest.fail "expected an ack");
  Alcotest.(check bool) "entry survives unrelated invalidation" true
    (ask sql).Protocol.cached;
  (match Client.request c (Protocol.Invalidate [ "orders" ]) with
   | Protocol.Ok_reply s ->
     Alcotest.(check string) "orders evicts the join entry" "evicted=1" s
   | _ -> Alcotest.fail "expected an ack");
  Alcotest.(check bool) "post-invalidation request re-solves" false
    (ask sql).Protocol.cached;
  Alcotest.(check bool) "the lineitem-only entry survives" true
    (ask separable_sql).Protocol.cached;
  (* Two requests with one formula, of which only the first splits: in
     the second, the lineitem bound also names o_totalprice (with a zero
     coefficient), so pushdown cannot sink it and a fresh rewrite
     attaches a synthesized predicate. The split request's verdict must
     not answer it. *)
  let split_sql =
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
     l_quantity < 30 AND o_totalprice < 4000"
  and unsplit_sql =
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
     l_quantity + o_totalprice - o_totalprice < 30 AND o_totalprice < 4000"
  in
  let u1 = ask ~cols:[ "l_quantity" ] split_sql in
  let u2 = ask ~cols:[ "l_quantity" ] unsplit_sql in
  Alcotest.(check (pair string string)) "split request: serve == batch"
    (batch_cols [ "l_quantity" ] split_sql) (u1.Protocol.pred, u1.Protocol.sql);
  Alcotest.(check (pair string string)) "unsplit request: serve == batch"
    (batch_cols [ "l_quantity" ] unsplit_sql)
    (u2.Protocol.pred, u2.Protocol.sql);
  Alcotest.(check (pair string bool)) "only the unsplit request attaches"
    ("-", true) (u1.Protocol.sql, u2.Protocol.sql <> "-")

let test_daemon_never_caches_failures () =
  Client.with_daemon @@ fun path ->
  let c = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* l_commitdate never appears in the predicate, so synthesis reports
     Failed deterministically; the verdict must not be cached. *)
  let ask () =
    match
      Client.request ~timeout:60. c
        (Protocol.Rewrite
           {
             target = Protocol.Cols [ "l_commitdate" ];
             sql = "SELECT * FROM lineitem WHERE l_shipdate < 30";
           })
    with
    | Protocol.Rewritten r -> r
    | _ -> Alcotest.fail "expected a rewrite reply"
  in
  let r1 = ask () in
  Alcotest.(check bool) "failure outcome" true
    (String.length r1.Protocol.outcome >= 6
     && String.sub r1.Protocol.outcome 0 6 = "failed");
  Alcotest.(check bool) "failure not served from cache" false
    r1.Protocol.cached;
  let r2 = ask () in
  Alcotest.(check bool) "retry re-solves instead of replaying" false
    r2.Protocol.cached;
  Alcotest.(check int) "no insertions recorded" 0
    (stats_field c "cache_insertions")

(* ------------------------------------------------------------------ *)
(* Request memo                                                        *)
(* ------------------------------------------------------------------ *)

let rewrite ?(target = Protocol.Cols [ "l_shipdate" ]) c sql =
  match Client.request ~timeout:120. c (Protocol.Rewrite { target; sql }) with
  | Protocol.Rewritten r -> r
  | Protocol.Error_reply e -> Alcotest.failf "daemon error: %s" e
  | _ -> Alcotest.fail "expected a rewrite reply"

let same_answer what (a : Protocol.reply) (b : Protocol.reply) =
  Alcotest.(check string) (what ^ ": outcome") a.Protocol.outcome
    b.Protocol.outcome;
  Alcotest.(check string) (what ^ ": pred") a.Protocol.pred b.Protocol.pred;
  Alcotest.(check string) (what ^ ": sql") a.Protocol.sql b.Protocol.sql

let with_conn ?ttl ?capacity f =
  Client.with_daemon ?ttl ?capacity @@ fun path ->
  let c = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* The memo tests run on two inputs: the join query, whose hits
   re-attach a synthesized predicate, and the separable query, which
   attaches nothing on the miss or the hit. *)
let memo_inputs = [ (join_sql, true); (separable_sql, false) ]

let on_inputs test () =
  List.iter (fun (sql, attaches) -> test sql attaches) memo_inputs

let check_attached what attaches (r : Protocol.reply) =
  if attaches then
    Alcotest.(check bool) (what ^ ": attaches a predicate") true
      (r.Protocol.sql <> "-")
  else Alcotest.(check string) (what ^ ": attaches nothing") "-" r.Protocol.sql

let test_memo_exact_counters sql attaches =
  with_conn @@ fun c ->
  let r1 = rewrite c sql in
  Alcotest.(check bool) "first request misses" false r1.Protocol.cached;
  check_attached "miss" attaches r1;
  for i = 1 to 3 do
    let r = rewrite c sql in
    Alcotest.(check bool) (Printf.sprintf "repeat %d hits" i) true
      r.Protocol.cached;
    same_answer (Printf.sprintf "repeat %d" i) r1 r;
    check_attached "hit" attaches r
  done;
  Alcotest.(check int) "cache_hits" 3 (stats_field c "cache_hits");
  Alcotest.(check int) "cache_misses" 1 (stats_field c "cache_misses");
  Alcotest.(check int) "cache_insertions" 1 (stats_field c "cache_insertions");
  Alcotest.(check int) "text_memo_hits" 3 (stats_field c "text_memo_hits");
  Alcotest.(check int) "text_memo_entries" 1
    (stats_field c "text_memo_entries")

(* The TTL is wall-clock here, so it is wide enough that a scheduling
   stall between two back-to-back requests cannot expire the entry. *)
let test_memo_ttl_expiry sql attaches =
  with_conn ~ttl:1.0 @@ fun c ->
  let r1 = rewrite c sql in
  check_attached "miss" attaches r1;
  (* A hit inside the TTL leaves a rendered reply in the memo. *)
  Alcotest.(check bool) "repeat inside the TTL hits" true
    (rewrite c sql).Protocol.cached;
  Unix.sleepf 1.5;
  let r2 = rewrite c sql in
  Alcotest.(check bool) "memoized text re-solves after expiry" false
    r2.Protocol.cached;
  same_answer "re-solve" r1 r2;
  let r3 = rewrite c sql in
  Alcotest.(check bool) "and then hits again" true r3.Protocol.cached;
  same_answer "hit after re-solve" r1 r3;
  check_attached "hit" attaches r3;
  Alcotest.(check int) "one expiration" 1 (stats_field c "cache_expirations")

let test_memo_invalidation sql attaches =
  with_conn @@ fun c ->
  let r1 = rewrite c sql in
  check_attached "miss" attaches r1;
  Alcotest.(check bool) "warm hit" true (rewrite c sql).Protocol.cached;
  (match Client.request c (Protocol.Invalidate [ "lineitem" ]) with
   | Protocol.Ok_reply s -> Alcotest.(check string) "evicted" "evicted=1" s
   | _ -> Alcotest.fail "expected an ack");
  let r2 = rewrite c sql in
  Alcotest.(check bool) "memoized text re-solves after invalidation" false
    r2.Protocol.cached;
  same_answer "re-solve" r1 r2;
  let r3 = rewrite c sql in
  Alcotest.(check bool) "next repeat hits" true r3.Protocol.cached;
  same_answer "hit after invalidation" r1 r3;
  check_attached "hit" attaches r3

(* One text, two targets: the memo key carries the target, so neither
   request may inherit the other's columns. Reference answers come from
   the in-process pipeline, cold, in the same order. *)
let test_memo_targets_distinct () =
  let sql =
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND \
     l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'"
  in
  let q = Parser.parse_query sql in
  let cfg = Config.default in
  Solver.reset_caches ();
  let ref_table =
    render_result
      (Rewrite.rewrite_for_table ~cfg cat q ~target_table:"lineitem")
  in
  let ref_cols =
    render_result
      (Rewrite.rewrite_for_columns ~cfg cat q ~target_cols:[ "o_orderdate" ])
  in
  Alcotest.(check bool) "the two targets give different rewrites" true
    (ref_table <> ref_cols);
  with_conn @@ fun c ->
  let ask target =
    let r = rewrite ~target c sql in
    (r.Protocol.pred, r.Protocol.sql)
  in
  let pair = Alcotest.(pair string string) in
  for pass = 1 to 2 do
    Alcotest.check pair
      (Printf.sprintf "pass %d: Table lineitem" pass)
      ref_table
      (ask (Protocol.Table "lineitem"));
    Alcotest.check pair
      (Printf.sprintf "pass %d: Cols o_orderdate" pass)
      ref_cols
      (ask (Protocol.Cols [ "o_orderdate" ]))
  done;
  Alcotest.(check int) "one memo entry per target" 2
    (stats_field c "text_memo_entries")

let test_memo_parse_error () =
  with_conn @@ fun c ->
  let ask () =
    match
      Client.request c
        (Protocol.Rewrite
           { target = Protocol.Cols [ "l_shipdate" ]; sql = "NOT EVEN SQL" })
    with
    | Protocol.Error_reply e -> e
    | _ -> Alcotest.fail "expected a parse error"
  in
  let e1 = ask () in
  for _ = 1 to 2 do
    Alcotest.(check string) "same error on repeat" e1 (ask ())
  done;
  Alcotest.(check int) "parse errors are not memoized" 0
    (stats_field c "text_memo_entries")

(* Texts the cache cannot answer, and texts over the memo's size limit,
   pin nothing: they are answered from scratch every time. *)
let test_memo_skips_unkeyable_and_large sql attaches =
  with_conn @@ fun c ->
  (* No lineitem column in the predicate: no target columns, no key. *)
  let unkeyable = "SELECT * FROM lineitem, orders WHERE o_orderdate < 30" in
  for _ = 1 to 2 do
    ignore (rewrite ~target:(Protocol.Table "lineitem") c unkeyable)
  done;
  (* A keyable template padded past the limit: the cache still answers
     its repeat, the memo never sees it. *)
  let large = sql ^ String.make 8192 ' ' in
  let r1 = rewrite c large in
  let r2 = rewrite c large in
  Alcotest.(check bool) "large text still hits the cache" true
    r2.Protocol.cached;
  same_answer "large text repeat" r1 r2;
  check_attached "large text miss" attaches r1;
  check_attached "large text hit" attaches r2;
  Alcotest.(check int) "text_memo_entries" 0
    (stats_field c "text_memo_entries");
  Alcotest.(check int) "text_memo_hits" 0 (stats_field c "text_memo_hits")

let test_memo_bounded () =
  with_conn ~capacity:2 @@ fun c ->
  let texts =
    List.map
      (Printf.sprintf "SELECT * FROM lineitem WHERE l_shipdate < %d")
      [ 10; 20; 30; 40 ]
  in
  let first = List.map (rewrite c) texts in
  List.iter2
    (fun sql r1 ->
      same_answer "repeat under a 2-entry bound" r1 (rewrite c sql);
      Alcotest.(check bool) "memo within capacity" true
        (stats_field c "text_memo_entries" <= 2))
    texts first

(* 300 distinct texts of ~4 KB (one template, padded to different
   lengths, so every one is a cache hit) exceed the memo's 1 MiB text
   budget long before its 4096-entry bound. *)
let test_memo_byte_budget sql attaches =
  with_conn @@ fun c ->
  let base = String.length sql in
  for i = 0 to 299 do
    let r = rewrite c (sql ^ String.make (3700 - base + i) ' ') in
    check_attached (Printf.sprintf "text %d" i) attaches r
  done;
  let entries = stats_field c "text_memo_entries" in
  Alcotest.(check bool)
    (Printf.sprintf "%d resident texts of >= 3.7 KB fit in 1 MiB" entries)
    true
    (entries > 0 && entries * 3700 <= 1 lsl 20)

let () =
  Alcotest.run "serve"
    [
      ( "differential",
        [
          Alcotest.test_case "plain: serve == batch" `Slow
            test_differential_plain;
          Alcotest.test_case "paranoid: serve == batch" `Slow
            test_differential_paranoid;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "truncated frame" `Quick test_truncated_frame;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "oversized length prefix" `Quick
            test_oversized_length;
          Alcotest.test_case "unknown tag is recoverable" `Quick
            test_unknown_tag;
          Alcotest.test_case "interleaved half frames" `Quick
            test_interleaved_half_frames;
          Alcotest.test_case "disconnect mid-request" `Quick
            test_disconnect_mid_request;
          Alcotest.test_case "garbage fuzz" `Quick test_fuzz_garbage;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after miss" `Quick test_hit_after_miss;
          Alcotest.test_case "variants share one entry" `Quick
            test_variants_share_entry;
          Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry;
          Alcotest.test_case "invalidate by table" `Quick
            test_invalidate_by_table;
          Alcotest.test_case "solver reset clears rewrite cache" `Quick
            test_solver_reset_clears;
          Alcotest.test_case "daemon cache flow" `Quick test_daemon_cache_flow;
          Alcotest.test_case "failures never cached" `Quick
            test_daemon_never_caches_failures;
        ] );
      ( "request-memo",
        [
          Alcotest.test_case "1 miss + 3 hits: exact counters" `Quick
            (on_inputs test_memo_exact_counters);
          Alcotest.test_case "ttl expiry re-solves" `Quick
            (on_inputs test_memo_ttl_expiry);
          Alcotest.test_case "invalidation re-solves" `Quick
            (on_inputs test_memo_invalidation);
          Alcotest.test_case "targets not conflated" `Quick
            test_memo_targets_distinct;
          Alcotest.test_case "parse errors repeat" `Quick test_memo_parse_error;
          Alcotest.test_case "unkeyable and large texts not kept" `Quick
            (on_inputs test_memo_skips_unkeyable_and_large);
          Alcotest.test_case "bounded by capacity" `Quick test_memo_bounded;
          Alcotest.test_case "bounded by text bytes" `Quick
            (on_inputs test_memo_byte_budget);
        ] );
    ]
