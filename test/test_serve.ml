(* The serve daemon (lib/serve): rewrite-as-a-service must be a pure
   transport around the batch pipeline. Three angles:

   - Differential: the 12-query workload driven through a live daemon
     yields rewritten SQL byte-identical to sequential batch mode, both
     plain and under paranoid auditing. The daemon
     adds a template cache and hot solver state, neither of which may
     change an answer.
   - Wire robustness: truncated frames, bad magic, oversized length
     prefixes, unknown tags, interleaved half-written requests and
     mid-request disconnects get a structured error or a dropped
     connection — never a hang, a crash, or a corrupted reply to
     another client.
   - Cache semantics: template hit after first miss, reordered/alpha
     variants collapsing onto one entry, TTL expiry on a fake clock,
     table-scoped invalidation, the solver reset hook, and the
     never-cache-failures rule. *)

module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
module Solver = Sia_smt.Solver
module Qgen = Sia_workload.Qgen
module Protocol = Sia_serve.Protocol
module Cache = Sia_serve.Cache
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

let serve_run cfg =
  Client.with_daemon ~cfg @@ fun path ->
  let c = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
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

let check_differential cfg =
  let batch = batch_run cfg in
  let served = serve_run cfg in
  List.iteri
    (fun i (((bp, bs), (sp, ss)), ((gq : Qgen.gen_query), cols)) ->
      if bp <> sp || bs <> ss then
        Alcotest.failf
          "attempt %d (query %d, cols %s) diverged:\n\
           batch pred: %s\nserve pred: %s\nbatch sql:  %s\nserve sql:  %s"
          i gq.Qgen.id (String.concat "," cols) bp sp bs ss)
    (List.combine (List.combine batch served) (Lazy.force tagged))

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

(* Daemon-level cache behavior: hits are observable in the [cached]
   reply flag, replayed answers are byte-identical, invalidation is
   table-scoped, and failures are never cached. *)
let test_daemon_cache_flow () =
  Client.with_daemon @@ fun path ->
  let c = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let ask sql =
    match
      Client.request ~timeout:120. c
        (Protocol.Rewrite { target = Protocol.Cols [ "l_shipdate" ]; sql })
    with
    | Protocol.Rewritten r -> r
    | _ -> Alcotest.fail "expected a rewrite reply"
  in
  let sql = "SELECT * FROM lineitem WHERE l_shipdate < 30 AND l_shipdate > 10" in
  let r1 = ask sql in
  Alcotest.(check bool) "first request misses" false r1.Protocol.cached;
  let r2 = ask sql in
  Alcotest.(check bool) "repeat hits" true r2.Protocol.cached;
  Alcotest.(check string) "replayed predicate byte-identical" r1.Protocol.pred
    r2.Protocol.pred;
  Alcotest.(check string) "replayed SQL byte-identical" r1.Protocol.sql
    r2.Protocol.sql;
  (* The reordered-conjunct variant is the same template: a hit whose
     predicate matches, replayed onto the variant's own WHERE clause. *)
  let r3 =
    ask "SELECT * FROM lineitem WHERE l_shipdate > 10 AND l_shipdate < 30"
  in
  Alcotest.(check bool) "alpha/reorder variant hits" true r3.Protocol.cached;
  Alcotest.(check string) "variant replays the same predicate"
    r1.Protocol.pred r3.Protocol.pred;
  (* Invalidation is table-scoped. *)
  (match Client.request c (Protocol.Invalidate [ "orders" ]) with
   | Protocol.Ok_reply s -> Alcotest.(check string) "orders evicts none" "evicted=0" s
   | _ -> Alcotest.fail "expected an ack");
  Alcotest.(check bool) "entry survives unrelated invalidation" true
    (ask sql).Protocol.cached;
  (match Client.request c (Protocol.Invalidate [ "lineitem" ]) with
   | Protocol.Ok_reply s ->
     Alcotest.(check string) "lineitem evicts the entry" "evicted=1" s
   | _ -> Alcotest.fail "expected an ack");
  Alcotest.(check bool) "post-invalidation request re-solves" false
    (ask sql).Protocol.cached

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
  match Client.request c Protocol.Stats with
  | Protocol.Stats_reply json ->
    let has s =
      let n = String.length s and m = String.length json in
      let rec go i = i + n <= m && (String.sub json i n = s || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "no insertions recorded" true
      (has "\"cache_insertions\":0")
  | _ -> Alcotest.fail "expected stats"

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
    ]
